//! The exact Figure 2 / Figure 3 fixture: the *Customer Identification*
//! example that runs through the whole paper.
//!
//! Figure 2 (top to bottom): the *DWH Inbound Interface* (staging) area
//! holds Customer data with a string `customer_id`; the *integration* area
//! generalizes Individuals and Institutions into Partners keyed by an
//! integer `partner_id`; data marts refer to all customers as *Clients*
//! (`client_information_id`). Figure 3 shows the same example as a
//! meta-data graph: the fact layer holds the mapping chain
//! `client_information_id → partner_id → customer_id`, the schema layer
//! describes the classes, and the hierarchy layer relates
//! `Source_File_Column`/`Application1_View_Column` to `Attribute`,
//! `Application1_Item`, and `Interface_Item` — exactly the classes the
//! paper's Listings 1 and 2 query.

use mdw_core::ingest::Extract;
use mdw_core::model::{AbstractionLevel, Area};
use mdw_core::ontology::OntologyBuilder;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_rdf::term::Term;
use mdw_rdf::vocab;

fn dm(l: &str) -> Term {
    Term::iri(vocab::cs::dm(l))
}

fn dt(l: &str) -> Term {
    Term::iri(vocab::cs::dt(l))
}

fn dwh(l: &str) -> Term {
    Term::iri(vocab::cs::dwh(l))
}

/// The key instances of the fixture, for tests and the harness.
#[derive(Debug, Clone)]
pub struct Fig2Fixture {
    /// The ontology extract (hierarchy + schema of Figure 3's upper layers).
    pub ontology: Extract,
    /// The facts extract (Figure 3's fact layer).
    pub facts: Extract,
    /// `dwh:client_information_id` — the source-file column (Listing 2's
    /// start node).
    pub client_information_id: Term,
    /// `dwh:partner_id` — the integration-area column.
    pub partner_id: Term,
    /// `dwh:customer_id` — the Application-1 view column (the search hit of
    /// Figure 5/6).
    pub customer_id: Term,
}

/// Builds the fixture extracts.
pub fn fixture() -> Fig2Fixture {
    let mut onto = OntologyBuilder::new();

    // Hierarchy layer (Figure 3 top).
    onto.class(&dm("Item"), "Item");
    for (c, l, sup) in [
        ("Attribute", "Attribute", "Item"),
        ("Application1_Item", "Application", "Item"),
        ("Interface_Item", "Interface", "Item"),
        ("Schema", "Schema", "Item"),
        ("Domain", "Domain", "Item"),
        ("Entity", "Entity", "Item"),
        ("File", "File", "Item"),
        ("Report", "Report", "Item"),
    ] {
        onto.class(&dm(c), l);
        onto.subclass(&dm(c), &dm(sup));
    }
    onto.class(&dm("Application1_View_Column"), "Column");
    onto.subclass(&dm("Application1_View_Column"), &dm("Attribute"));
    onto.subclass(&dm("Application1_View_Column"), &dm("Application1_Item"));
    onto.class(&dm("Source_File_Column"), "Source Column");
    onto.subclass(&dm("Source_File_Column"), &dm("Attribute"));
    onto.subclass(&dm("Source_File_Column"), &dm("Interface_Item"));
    onto.class(&dm("Integration_Column"), "Integration Column");
    onto.subclass(&dm("Integration_Column"), &dm("Attribute"));

    // Business generalization of Figure 2's integration area: People are
    // Individuals, organizations are Institutions, both are Partners.
    onto.class(&dm("Party"), "Party");
    onto.class(&dm("Partner"), "Partner");
    onto.class(&dm("Individual"), "Individual");
    onto.class(&dm("Institution"), "Institution");
    onto.class(&dm("Customer"), "Customer");
    onto.subclass(&dm("Partner"), &dm("Party"));
    onto.subclass(&dm("Individual"), &dm("Partner"));
    onto.subclass(&dm("Institution"), &dm("Partner"));
    onto.subclass(&dm("Customer"), &dm("Party"));
    onto.property(&dm("hasFirstName"), "first name", &dm("Individual"));
    onto.property(&Term::iri(vocab::cs::HAS_NAME), "has name", &dm("Item"));
    onto.symmetric(&dm("isRelatedTo"));

    // Fact layer (Figure 3 bottom).
    let ty = Term::iri(vocab::rdf::TYPE);
    let has_name = Term::iri(vocab::cs::HAS_NAME);
    let in_area = Term::iri(vocab::cs::IN_AREA);
    let in_schema = Term::iri(vocab::cs::IN_SCHEMA);
    let at_level = Term::iri(vocab::cs::AT_LEVEL);
    let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);

    let client = dwh("client_information_id");
    let partner = dwh("partner_id");
    let customer = dwh("customer_id");

    let facts: Vec<(Term, Term, Term)> = vec![
        // The inbound source-file column.
        (client.clone(), ty.clone(), dm("Source_File_Column")),
        (client.clone(), has_name.clone(), Term::plain("client_information_id")),
        (client.clone(), in_area.clone(), Area::InboundInterface.term()),
        (client.clone(), in_schema.clone(), dwh("schema/inbound")),
        (client.clone(), at_level.clone(), AbstractionLevel::Physical.term()),
        // The integration-area partner key (integer, Figure 2).
        (partner.clone(), ty.clone(), dm("Integration_Column")),
        (partner.clone(), has_name.clone(), Term::plain("partner_id")),
        (partner.clone(), in_area.clone(), Area::Integration.term()),
        (partner.clone(), in_schema.clone(), dwh("schema/integration")),
        (partner.clone(), at_level.clone(), AbstractionLevel::Physical.term()),
        (partner.clone(), dm("hasDataType"), Term::plain("NUMBER")),
        // The Application-1 view column in the data mart.
        (customer.clone(), ty.clone(), dm("Application1_View_Column")),
        (customer.clone(), has_name.clone(), Term::plain("customer_id")),
        (customer.clone(), in_area.clone(), Area::DataMart.term()),
        (customer.clone(), in_schema.clone(), dwh("schema/app1")),
        (customer.clone(), at_level.clone(), AbstractionLevel::Conceptual.term()),
        (customer.clone(), dm("hasDataType"), Term::plain("VARCHAR2")),
        // The mapping chain of Figure 3's fact layer.
        (client.clone(), mapped.clone(), partner.clone()),
        (partner.clone(), mapped, customer.clone()),
        // The first mapping transforms the string customer key of the
        // staging area into the integer partner key (Figure 2's mapping).
        (dwh("map/client-partner"), ty.clone(), dt("Mapping")),
        (dwh("map/client-partner"), dt("mapsFrom"), client.clone()),
        (dwh("map/client-partner"), dt("mapsTo"), partner.clone()),
        (
            dwh("map/client-partner"),
            dt("ruleCondition"),
            Term::plain("partner_id = to_number(customer_id)"),
        ),
        (dwh("map/partner-customer"), ty.clone(), dt("Mapping")),
        (dwh("map/partner-customer"), dt("mapsFrom"), partner.clone()),
        (dwh("map/partner-customer"), dt("mapsTo"), customer.clone()),
        (
            dwh("map/partner-customer"),
            dt("ruleCondition"),
            Term::plain("client.partner_id = partner.partner_id"),
        ),
        // Concrete partners: an individual and an institution (Figure 2's
        // integration model).
        (dwh("partner/4711"), ty.clone(), dm("Individual")),
        (dwh("partner/4711"), has_name.clone(), Term::plain("John Doe")),
        (dwh("partner/4711"), dm("hasFirstName"), Term::plain("John")),
        (dwh("partner/0815"), ty.clone(), dm("Institution")),
        (dwh("partner/0815"), has_name.clone(), Term::plain("ACME AG")),
        (dwh("partner/4711"), dm("isRelatedTo"), dwh("partner/0815")),
        // Schemas as items.
        (dwh("schema/inbound"), ty.clone(), dm("Schema")),
        (dwh("schema/inbound"), has_name.clone(), Term::plain("DWH Inbound Interface")),
        (dwh("schema/integration"), ty.clone(), dm("Schema")),
        (dwh("schema/integration"), has_name.clone(), Term::plain("DWH Integration")),
        (dwh("schema/app1"), ty, dm("Schema")),
        (dwh("schema/app1"), has_name, Term::plain("Application 1 Data Mart")),
    ];

    Fig2Fixture {
        ontology: Extract::new("protege-ontology", onto.into_triples()),
        facts: Extract::new("fig2-facts", facts),
        client_information_id: client,
        partner_id: partner,
        customer_id: customer,
    }
}

/// Builds a warehouse loaded with the fixture and a built semantic index —
/// the starting point of most examples and integration tests.
pub fn warehouse() -> MetadataWarehouse {
    let fx = fixture();
    let mut w = MetadataWarehouse::new();
    w.ingest(vec![fx.ontology, fx.facts])
        .expect("fixture ingests cleanly");
    w.build_semantic_index().expect("index builds");
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_core::lineage::{Direction, LineageRequest};
    use mdw_core::search::SearchRequest;

    #[test]
    fn fixture_loads_cleanly() {
        let fx = fixture();
        let mut w = MetadataWarehouse::new();
        let report = w.ingest(vec![fx.ontology, fx.facts]).unwrap();
        assert!(report.is_clean(), "rejections: {:?}", report.load.rejections);
    }

    #[test]
    fn figure5_search_for_customer() {
        let w = warehouse();
        let results = w.search(&SearchRequest::new("customer")).unwrap();
        // customer_id is found and appears under Column, Attribute, and
        // Application — the multi-group membership of Figure 6.
        assert!(results.group("Column").is_some());
        assert!(results.group("Attribute").is_some());
        assert!(results.group("Application").is_some());
    }

    #[test]
    fn figure8_lineage_from_client_information_id() {
        let w = warehouse();
        let fx = fixture();
        let result = w
            .lineage(
                &LineageRequest::downstream(fx.client_information_id.clone())
                    .filter_class(dm("Application1_Item")),
            )
            .unwrap();
        // "there is a match between the client_information_id … and any
        // instance of Application1_View_Column" — customer_id.
        assert_eq!(result.endpoints.len(), 1);
        assert_eq!(result.endpoints[0].node, fx.customer_id);
        assert_eq!(result.endpoints[0].distance, 2);
    }

    #[test]
    fn symmetric_is_related_to_derived() {
        let w = warehouse();
        // partner/0815 isRelatedTo partner/4711 is only derived (symmetry).
        let view = w.entailed().unwrap();
        let dict = w.published().dict();
        let s = dict.lookup(&dwh("partner/0815")).unwrap();
        let p = dict.lookup(&dm("isRelatedTo")).unwrap();
        let o = dict.lookup(&dwh("partner/4711")).unwrap();
        assert!(view.contains(mdw_rdf::triple::Triple::new(s, p, o)));
        assert!(!w
            .published()
            .model(w.model_name())
            .unwrap()
            .contains(mdw_rdf::triple::Triple::new(s, p, o)));
    }

    #[test]
    fn individuals_are_partners_and_parties() {
        let w = warehouse();
        let results = w.search(&SearchRequest::new("John Doe")).unwrap();
        let labels: Vec<&str> = results.groups.iter().map(|g| g.label.as_str()).collect();
        assert!(labels.contains(&"Individual"));
        assert!(labels.contains(&"Partner"));
        assert!(labels.contains(&"Party"));
    }

    #[test]
    fn upstream_provenance_of_customer_id() {
        let w = warehouse();
        let fx = fixture();
        let result = w
            .lineage(&LineageRequest {
                start: fx.customer_id.clone(),
                direction: Direction::Upstream,
                target_class_filters: vec![dm("Interface_Item")],
                max_depth: 8,
                max_paths: 1000,
                rule_condition_filter: None,
                budget: Default::default(),
            })
            .unwrap();
        // Provenance ends at the inbound source-file column.
        assert_eq!(result.endpoints.len(), 1);
        assert_eq!(result.endpoints[0].node, fx.client_information_id);
    }
}
