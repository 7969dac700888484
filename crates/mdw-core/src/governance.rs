//! The audit / data-governance service.
//!
//! Section IV.B motivates it: "an auditor may want to know which
//! applications (and correspondingly which roles and users) have access to a
//! particular information item (e.g., the balance of a bank account of a
//! user from the USA)." And Section II's extended scope adds "the assignment
//! of owners and consumers of data to meta-data" as a data-governance use
//! case (Figure 9).
//!
//! [`who_can_access`] answers the auditor's question over the entailed
//! graph:
//!
//! 1. the item's (entailed) classes identify the owning applications — an
//!    item typed `Application1_View_Column` inherits `Application1_Item`,
//!    the same class its application instance carries,
//! 2. roles attach to applications (`dm:forApplication`),
//! 3. users hold roles (`dm:hasRole`),
//! 4. explicit governance edges (`dm:hasOwner` / `dm:hasConsumer`, the
//!    Figure 9 extension) are reported directly,
//! 5. reports that use the item (`dm:usesItem`) widen the audit to its
//!    consumers' surface.

use std::collections::BTreeSet;

use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::term::Term;
use mdw_rdf::triple::{Triple, TriplePattern};
use mdw_rdf::vocab;
use mdw_reason::EntailedGraph;

/// One role grant relevant to the audited item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleGrant {
    /// The role instance.
    pub role: Term,
    /// The role's display name (`dm:hasName`), e.g. "business owner".
    pub role_name: Option<String>,
    /// The application the role is scoped to.
    pub application: Term,
    /// Users holding the role.
    pub users: Vec<Term>,
}

/// The access/audit report for one information item.
#[derive(Debug, Clone)]
pub struct AccessReport {
    /// The audited item.
    pub item: Term,
    /// Applications whose scope contains the item (via shared per-app
    /// classes in the hierarchy).
    pub applications: Vec<Term>,
    /// Role grants on those applications.
    pub grants: Vec<RoleGrant>,
    /// Explicit owners (`dm:hasOwner`, Figure 9 governance scope).
    pub owners: Vec<Term>,
    /// Explicit consumers (`dm:hasConsumer`).
    pub consumers: Vec<Term>,
    /// Reports that use the item (`dm:usesItem`).
    pub used_by_reports: Vec<Term>,
}

impl AccessReport {
    /// Every distinct user that appears anywhere in the report — the
    /// auditor's bottom line.
    pub fn all_users(&self) -> Vec<Term> {
        let mut set: BTreeSet<Term> = BTreeSet::new();
        for grant in &self.grants {
            set.extend(grant.users.iter().cloned());
        }
        set.extend(self.owners.iter().cloned());
        set.extend(self.consumers.iter().cloned());
        set.into_iter().collect()
    }
}

/// Computes the audit report for an information item.
pub fn who_can_access(
    graph: &EntailedGraph<'_>,
    dict: &Dictionary,
    item: &Term,
) -> AccessReport {
    let empty = AccessReport {
        item: item.clone(),
        applications: Vec::new(),
        grants: Vec::new(),
        owners: Vec::new(),
        consumers: Vec::new(),
        used_by_reports: Vec::new(),
    };
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let (Some(item_id), Some(ty)) = (dict.lookup(item), lookup(vocab::rdf::TYPE)) else {
        return empty;
    };
    let application_class = lookup(&vocab::cs::dm("Application"));
    let for_application = lookup(&vocab::cs::dm("forApplication"));
    let has_role = lookup(&vocab::cs::dm("hasRole"));
    let has_name = lookup(vocab::cs::HAS_NAME);
    let has_owner = lookup(&vocab::cs::dm("hasOwner"));
    let has_consumer = lookup(&vocab::cs::dm("hasConsumer"));
    let uses_item = lookup(&vocab::cs::dm("usesItem"));
    let sub_class = lookup(vocab::rdfs::SUB_CLASS_OF);

    // 1. The item's entailed classes, minus classes every application
    //    trivially carries (superclasses of dm:Application like dm:Item).
    let item_classes: BTreeSet<TermId> = graph
        .scan(TriplePattern::with_sp(item_id, ty))
        .map(|t| t.o)
        .collect();
    let is_generic = |class: TermId| -> bool {
        match (application_class, sub_class) {
            (Some(app), Some(sub)) => graph.contains(Triple::new(app, sub, class)),
            _ => false,
        }
    };
    let mut applications: BTreeSet<TermId> = BTreeSet::new();
    if let Some(app_class) = application_class {
        for t in graph.scan(TriplePattern::with_po(ty, app_class)) {
            let app = t.s;
            // Shared non-generic class with the item?
            let shares = graph
                .scan(TriplePattern::with_sp(app, ty))
                .any(|at| at.o != app_class && item_classes.contains(&at.o) && !is_generic(at.o));
            if shares {
                applications.insert(app);
            }
        }
    }

    // 2–3. Roles scoped to those applications and their holders.
    let mut grants = Vec::new();
    if let Some(for_app) = for_application {
        for &app in &applications {
            for t in graph.scan(TriplePattern::with_po(for_app, app)) {
                let role = t.s;
                let role_name = has_name.and_then(|p| {
                    graph
                        .scan(TriplePattern::with_sp(role, p))
                        .next()
                        .and_then(|t| dict.term(t.o))
                        .and_then(|term| term.as_literal().map(|l| l.lexical.to_string()))
                });
                let mut users: Vec<Term> = match has_role {
                    Some(hr) => graph
                        .scan(TriplePattern::with_po(hr, role))
                        .map(|t| dict.term_unchecked(t.s).clone())
                        .collect(),
                    None => Vec::new(),
                };
                users.sort();
                users.dedup();
                grants.push(RoleGrant {
                    role: dict.term_unchecked(role).clone(),
                    role_name,
                    application: dict.term_unchecked(app).clone(),
                    users,
                });
            }
        }
    }
    grants.sort_by(|a, b| a.role.cmp(&b.role));

    // 4. Explicit governance edges.
    let scan_objects = |p: Option<TermId>| -> Vec<Term> {
        match p {
            Some(p) => {
                let mut v: Vec<Term> = graph
                    .scan(TriplePattern::with_sp(item_id, p))
                    .map(|t| dict.term_unchecked(t.o).clone())
                    .collect();
                v.sort();
                v.dedup();
                v
            }
            None => Vec::new(),
        }
    };
    let owners = scan_objects(has_owner);
    let consumers = scan_objects(has_consumer);

    // 5. Reports using the item.
    let used_by_reports = match uses_item {
        Some(p) => {
            let mut v: Vec<Term> = graph
                .scan(TriplePattern::with_po(p, item_id))
                .map(|t| dict.term_unchecked(t.s).clone())
                .collect();
            v.sort();
            v.dedup();
            v
        }
        None => Vec::new(),
    };

    let mut applications: Vec<Term> = applications
        .into_iter()
        .map(|a| dict.term_unchecked(a).clone())
        .collect();
    applications.sort();

    AccessReport {
        item: item.clone(),
        applications,
        grants,
        owners,
        consumers,
        used_by_reports,
    }
}

/// A data-governance gap: items that *should* have an assigned owner but
/// do not. Section II: "data governance use cases: the assignment of owners
/// and consumers of data to meta-data" — the first thing a governance
/// program audits is where that assignment is missing.
#[derive(Debug, Clone)]
pub struct GovernanceGaps {
    /// Data-mart items without a `dm:hasOwner` edge.
    pub ownerless: Vec<Term>,
    /// Data-mart items inspected.
    pub inspected: usize,
}

impl GovernanceGaps {
    /// Fraction (0–1) of inspected items with an owner.
    pub fn coverage(&self) -> f64 {
        if self.inspected == 0 {
            return 1.0;
        }
        1.0 - self.ownerless.len() as f64 / self.inspected as f64
    }
}

/// Finds data-mart items (`dm:inArea "Data Mart"`) with no owner — the
/// `NOT EXISTS { ?item dm:hasOwner ?u }` of a governance report.
pub fn ownerless_items(graph: &EntailedGraph<'_>, dict: &Dictionary) -> GovernanceGaps {
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let (Some(in_area), Some(mart)) = (
        lookup(vocab::cs::IN_AREA),
        dict.lookup(&crate::model::Area::DataMart.term()),
    ) else {
        return GovernanceGaps { ownerless: Vec::new(), inspected: 0 };
    };
    let has_owner = lookup(&vocab::cs::dm("hasOwner"));
    let mut ownerless = Vec::new();
    let mut inspected = 0usize;
    for t in graph.scan(TriplePattern::with_po(in_area, mart)) {
        inspected += 1;
        let owned = has_owner
            .map(|p| graph.scan(TriplePattern::with_sp(t.s, p)).next().is_some())
            .unwrap_or(false);
        if !owned {
            ownerless.push(dict.term_unchecked(t.s).clone());
        }
    }
    ownerless.sort();
    GovernanceGaps { ownerless, inspected }
}

/// Renders the report as plain text for the audit trail.
pub fn render_access(report: &AccessReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Access audit for {}", report.item.label());
    let _ = writeln!(out, "  applications ({}):", report.applications.len());
    for app in &report.applications {
        let _ = writeln!(out, "    {}", app.label());
    }
    let _ = writeln!(out, "  role grants ({}):", report.grants.len());
    for grant in &report.grants {
        let _ = writeln!(
            out,
            "    {} ({}) on {} → {} user(s)",
            grant.role.label(),
            grant.role_name.as_deref().unwrap_or("—"),
            grant.application.label(),
            grant.users.len()
        );
    }
    if !report.owners.is_empty() || !report.consumers.is_empty() {
        let _ = writeln!(
            out,
            "  governance: {} owner(s), {} consumer(s)",
            report.owners.len(),
            report.consumers.len()
        );
    }
    if !report.used_by_reports.is_empty() {
        let _ = writeln!(out, "  used by {} report(s)", report.used_by_reports.len());
    }
    let _ = writeln!(out, "  distinct users with access: {}", report.all_users().len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Extract;
    use crate::warehouse::MetadataWarehouse;

    fn dm(l: &str) -> Term {
        Term::iri(vocab::cs::dm(l))
    }

    fn dwh(l: &str) -> Term {
        Term::iri(vocab::cs::dwh(l))
    }

    /// An application with a view column, a role, two users, an owner, and
    /// a report using the column.
    fn warehouse() -> MetadataWarehouse {
        let ty = Term::iri(vocab::rdf::TYPE);
        let sub = Term::iri(vocab::rdfs::SUB_CLASS_OF);
        let name = Term::iri(vocab::cs::HAS_NAME);
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new(
            "audit-fixture",
            vec![
                // Hierarchy: App1 view columns are App1 items.
                (dm("Application"), sub.clone(), dm("Item")),
                (dm("Application1_Item"), sub.clone(), dm("Item")),
                (dm("Application1_View_Column"), sub.clone(), dm("Application1_Item")),
                (dm("Application2_Item"), sub.clone(), dm("Item")),
                // Application instances.
                (dwh("app1"), ty.clone(), dm("Application")),
                (dwh("app1"), ty.clone(), dm("Application1_Item")),
                (dwh("app2"), ty.clone(), dm("Application")),
                (dwh("app2"), ty.clone(), dm("Application2_Item")),
                // The audited item.
                (dwh("balance"), ty.clone(), dm("Application1_View_Column")),
                (dwh("balance"), name.clone(), Term::plain("account_balance")),
                // Roles and users.
                (dwh("role_owner"), ty.clone(), dm("Role")),
                (dwh("role_owner"), name.clone(), Term::plain("business owner")),
                (dwh("role_owner"), dm("forApplication"), dwh("app1")),
                (dwh("role_admin"), ty.clone(), dm("Role")),
                (dwh("role_admin"), name.clone(), Term::plain("administrator")),
                (dwh("role_admin"), dm("forApplication"), dwh("app2")),
                (dwh("alice"), dm("hasRole"), dwh("role_owner")),
                (dwh("bob"), dm("hasRole"), dwh("role_owner")),
                (dwh("carol"), dm("hasRole"), dwh("role_admin")),
                // Governance + usage.
                (dwh("balance"), dm("hasOwner"), dwh("dave")),
                (dwh("report1"), dm("usesItem"), dwh("balance")),
            ],
        )])
        .unwrap();
        w.build_semantic_index().unwrap();
        w
    }

    fn audit(w: &MetadataWarehouse, item: &Term) -> AccessReport {
        let view = w.entailed().unwrap();
        who_can_access(&view, w.published().dict(), item)
    }

    #[test]
    fn finds_owning_application_via_hierarchy() {
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        // balance is an Application1_View_Column ⊑ Application1_Item; app1
        // carries the same class — app2 does not.
        assert_eq!(report.applications, vec![dwh("app1")]);
    }

    #[test]
    fn roles_and_users_follow_the_application() {
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        assert_eq!(report.grants.len(), 1);
        let grant = &report.grants[0];
        assert_eq!(grant.role_name.as_deref(), Some("business owner"));
        assert_eq!(grant.users, vec![dwh("alice"), dwh("bob")]);
        // carol holds a role on app2 only — she must not appear.
        assert!(!report.all_users().contains(&dwh("carol")));
    }

    #[test]
    fn governance_and_reports_included() {
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        assert_eq!(report.owners, vec![dwh("dave")]);
        assert!(report.consumers.is_empty());
        assert_eq!(report.used_by_reports, vec![dwh("report1")]);
        // alice, bob (roles) + dave (owner).
        assert_eq!(report.all_users().len(), 3);
    }

    #[test]
    fn generic_superclasses_do_not_leak_applications() {
        // Both apps are (entailed) dm:Items; the item is too. dm:Item must
        // not connect the item to app2.
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        assert!(!report.applications.contains(&dwh("app2")));
    }

    #[test]
    fn unknown_item_is_empty() {
        let w = warehouse();
        let report = audit(&w, &dwh("nonexistent"));
        assert!(report.applications.is_empty());
        assert!(report.all_users().is_empty());
    }

    #[test]
    fn governance_gaps() {
        use mdw_rdf::vocab;
        let ty = Term::iri(vocab::rdf::TYPE);
        let in_area = Term::iri(vocab::cs::IN_AREA);
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new(
            "gap-fixture",
            vec![
                (dwh("owned"), ty.clone(), dm("Column")),
                (dwh("owned"), in_area.clone(), crate::model::Area::DataMart.term()),
                (dwh("owned"), dm("hasOwner"), dwh("alice")),
                (dwh("orphan"), ty.clone(), dm("Column")),
                (dwh("orphan"), in_area.clone(), crate::model::Area::DataMart.term()),
                // An integration item without owner is out of scope.
                (dwh("upstream"), ty.clone(), dm("Column")),
                (dwh("upstream"), in_area, crate::model::Area::Integration.term()),
            ],
        )])
        .unwrap();
        w.build_semantic_index().unwrap();
        let view = w.entailed().unwrap();
        let gaps = ownerless_items(&view, w.published().dict());
        assert_eq!(gaps.inspected, 2);
        assert_eq!(gaps.ownerless, vec![dwh("orphan")]);
        assert!((gaps.coverage() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn governance_gaps_match_not_exists_query() {
        use mdw_sparql::SemMatch;
        let w = {
            let mut w = warehouse();
            // Give app2's decoy an area so the query has scope.
            w.insert_fact(
                &dwh("balance"),
                &Term::iri(mdw_rdf::vocab::cs::IN_AREA),
                &crate::model::Area::DataMart.term(),
            )
            .unwrap();
            w
        };
        let view = w.entailed().unwrap();
        let gaps = ownerless_items(&view, w.published().dict());
        // balance has an owner (dave) → no gaps.
        assert_eq!(gaps.inspected, 1);
        assert!(gaps.ownerless.is_empty());

        // The same question as SPARQL NOT EXISTS.
        let out = w
            .sem_match(
                &SemMatch::new(
                    "{ ?item dm:inArea \"Data Mart\" FILTER(NOT EXISTS { ?item dm:hasOwner ?u }) }",
                )
                .alias("dm", mdw_rdf::vocab::cs::DM)
                .select(&["?item"]),
            )
            .unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn rendering() {
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        let text = render_access(&report);
        assert!(text.contains("Access audit for balance"));
        assert!(text.contains("business owner"));
        assert!(text.contains("distinct users with access: 3"));
    }
}
