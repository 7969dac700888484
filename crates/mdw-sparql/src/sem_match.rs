//! The `SEM_MATCH`-style query facade.
//!
//! The paper's two listings query the warehouse through Oracle's `SEM_MATCH`
//! table function: a SPARQL pattern, `SEM_MODELS('DWH_CURR')`,
//! `SEM_RULEBASES('OWLPRIME')`, and `SEM_ALIASES(SEM_ALIAS('dm', …))`,
//! wrapped in SQL that filters (`regexp_like`) and groups. [`SemMatch`] is
//! that surface as a builder:
//!
//! ```
//! use mdw_rdf::{Store, Term};
//! use mdw_sparql::SemMatch;
//!
//! let mut store = Store::new();
//! store.create_model("DWH_CURR").unwrap();
//! store.insert("DWH_CURR",
//!     &Term::iri("http://ex.org/t1"),
//!     &Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
//!     &Term::iri("http://ex.org/Table")).unwrap();
//!
//! let out = SemMatch::new("{ ?x rdf:type ?c }")
//!     .model("DWH_CURR")
//!     .alias("ex", "http://ex.org/")
//!     .select(&["?x", "?c"])
//!     .execute(&store.freeze(), None)
//!     .unwrap();
//! assert_eq!(out.rows.len(), 1);
//! ```
//!
//! When a rulebase is named, the caller supplies the matching
//! [`Materialization`] (the semantic index built by `mdw-reason`); the query
//! then runs over the entailed view, exactly like a `SEM_MATCH` call that
//! names `SEM_RULEBASES('OWLPRIME')`.

use std::collections::BTreeMap;

use mdw_rdf::frozen::FrozenStore;
use mdw_rdf::vocab;
use mdw_reason::{EntailedGraph, Materialization};

use crate::error::SparqlError;
use crate::exec::{execute_explained, QueryOutput};
use crate::plan::ExplainReport;
use mdw_rdf::budget::QueryBudget;
use mdw_rdf::par::ParallelPolicy;
use crate::parser::parse;

/// Builder for a `SEM_MATCH`-flavoured query.
#[derive(Debug, Clone)]
pub struct SemMatch {
    pattern: String,
    model: Option<String>,
    rulebase: Option<String>,
    aliases: BTreeMap<String, String>,
    select: Vec<String>,
    distinct: bool,
    filters: Vec<String>,
    group_by: Vec<String>,
    order_by: Vec<String>,
    limit: Option<usize>,
}

impl SemMatch {
    /// Starts a query from a SPARQL group pattern (with or without the
    /// surrounding braces). The standard aliases `rdf:`, `rdfs:`, `owl:`,
    /// and `xsd:` are pre-registered, as they are in Oracle.
    pub fn new(pattern: impl Into<String>) -> Self {
        let mut aliases = BTreeMap::new();
        aliases.insert("rdf".to_string(), vocab::rdf::NS.to_string());
        aliases.insert("rdfs".to_string(), vocab::rdfs::NS.to_string());
        aliases.insert("owl".to_string(), vocab::owl::NS.to_string());
        aliases.insert("xsd".to_string(), vocab::xsd::NS.to_string());
        SemMatch {
            pattern: pattern.into(),
            model: None,
            rulebase: None,
            aliases,
            select: Vec::new(),
            distinct: false,
            filters: Vec::new(),
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// `SEM_MODELS('name')` — the model to query.
    pub fn model(mut self, name: impl Into<String>) -> Self {
        self.model = Some(name.into());
        self
    }

    /// `SEM_RULEBASES('name')` — opt into an entailment index.
    pub fn rulebase(mut self, name: impl Into<String>) -> Self {
        self.rulebase = Some(name.into());
        self
    }

    /// Drops any named rulebase, so the query runs over base facts alone —
    /// the warehouse's degraded-fallback path while its entailment breaker
    /// is open.
    pub fn without_rulebase(mut self) -> Self {
        self.rulebase = None;
        self
    }

    /// `SEM_ALIAS(prefix, namespace)`.
    pub fn alias(mut self, prefix: impl Into<String>, ns: impl Into<String>) -> Self {
        self.aliases.insert(prefix.into(), ns.into());
        self
    }

    /// The projection, e.g. `&["?class", "?object"]` or
    /// `&["?class", "(COUNT(?object) AS ?n)"]`.
    pub fn select(mut self, items: &[&str]) -> Self {
        self.select = items.iter().map(|s| s.to_string()).collect();
        self
    }

    /// `SELECT DISTINCT`.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Adds a raw `FILTER` expression — the analog of the SQL `WHERE`
    /// around `SEM_MATCH` (e.g. `regex(?term, "customer", "i")`,
    /// the paper's `regexp_like(term, 'customer', 'i')`).
    pub fn filter(mut self, expr: impl Into<String>) -> Self {
        self.filters.push(expr.into());
        self
    }

    /// `GROUP BY` variables, e.g. `&["?class", "?object"]`.
    pub fn group_by(mut self, vars: &[&str]) -> Self {
        self.group_by = vars.iter().map(|s| s.to_string()).collect();
        self
    }

    /// `ORDER BY` keys (raw, e.g. `"?class"` or `"DESC(?n)"`).
    pub fn order_by(mut self, keys: &[&str]) -> Self {
        self.order_by = keys.iter().map(|s| s.to_string()).collect();
        self
    }

    /// `LIMIT`.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Renders the assembled SPARQL text (useful for logging — the analog of
    /// printing the SQL statement).
    pub fn to_sparql(&self) -> String {
        let mut q = String::new();
        for (prefix, ns) in &self.aliases {
            q.push_str(&format!("PREFIX {prefix}: <{ns}>\n"));
        }
        q.push_str("SELECT ");
        if self.distinct {
            q.push_str("DISTINCT ");
        }
        if self.select.is_empty() {
            q.push('*');
        } else {
            q.push_str(&self.select.join(" "));
        }
        let body = self.pattern.trim();
        let body = body.strip_prefix('{').unwrap_or(body);
        let body = body.strip_suffix('}').unwrap_or(body);
        q.push_str("\nWHERE {\n");
        q.push_str(body.trim());
        for f in &self.filters {
            q.push_str(&format!("\nFILTER({f})"));
        }
        q.push_str("\n}");
        if !self.group_by.is_empty() {
            q.push_str(&format!("\nGROUP BY {}", self.group_by.join(" ")));
        }
        if !self.order_by.is_empty() {
            q.push_str(&format!("\nORDER BY {}", self.order_by.join(" ")));
        }
        if let Some(n) = self.limit {
            q.push_str(&format!("\nLIMIT {n}"));
        }
        q
    }

    /// Executes against a snapshot. If a rulebase was named, `entailments`
    /// must be the materialization of that rulebase over the model; passing
    /// `None` with a named rulebase is an error (the paper's "indexes only
    /// exist if built").
    pub fn execute(
        &self,
        store: &FrozenStore,
        entailments: Option<&Materialization>,
    ) -> Result<QueryOutput, SparqlError> {
        self.execute_with_budget(store, entailments, &QueryBudget::unlimited())
    }

    /// [`SemMatch::execute`] under a resource budget: the traversal stops
    /// at the budget and the partial rows come back tagged
    /// [`Completeness::Truncated`](mdw_rdf::budget::Completeness).
    pub fn execute_with_budget(
        &self,
        store: &FrozenStore,
        entailments: Option<&Materialization>,
        budget: &QueryBudget,
    ) -> Result<QueryOutput, SparqlError> {
        self.execute_with_options(store, entailments, budget, ParallelPolicy::sequential())
    }

    /// [`SemMatch::execute_with_budget`] plus a worker-thread policy for
    /// the executor's parallel leaf scans (results stay bit-identical to
    /// sequential execution).
    pub fn execute_with_options(
        &self,
        store: &FrozenStore,
        entailments: Option<&Materialization>,
        budget: &QueryBudget,
        par: ParallelPolicy,
    ) -> Result<QueryOutput, SparqlError> {
        self.execute_explained(store, entailments, budget, par, true)
            .map(|(out, _)| out)
    }

    /// [`SemMatch::execute_with_options`] plus a planner switch and the
    /// [`ExplainReport`] describing the plan the executor actually ran —
    /// join order chosen, cardinality estimates against observed rows,
    /// and which filter conjuncts were pushed into the scans. With
    /// `use_planner` false the query runs in written pattern order
    /// (the pre-planner behaviour), which is what ablation comparisons
    /// measure against.
    pub fn execute_explained(
        &self,
        store: &FrozenStore,
        entailments: Option<&Materialization>,
        budget: &QueryBudget,
        par: ParallelPolicy,
        use_planner: bool,
    ) -> Result<(QueryOutput, ExplainReport), SparqlError> {
        let model_name = self
            .model
            .as_deref()
            .ok_or_else(|| SparqlError::Semantic("no model specified".to_string()))?;
        let graph = store
            .model(model_name)
            .map_err(|e| SparqlError::Semantic(e.to_string()))?;
        let query = parse(&self.to_sparql())?;
        match (&self.rulebase, entailments) {
            (None, _) => execute_explained(&query, graph, store.dict(), budget, par, use_planner),
            (Some(_), Some(m)) => {
                let view = EntailedGraph::new(graph, m.derived());
                execute_explained(&query, &view, store.dict(), budget, par, use_planner)
            }
            (Some(rb), None) => Err(SparqlError::Semantic(format!(
                "rulebase {rb} requested but no entailment index supplied"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::store::Store;
    use mdw_rdf::term::Term;
    use mdw_reason::Rulebase;

    fn setup() -> (FrozenStore, Materialization) {
        let mut store = Store::new();
        store.create_model("DWH_CURR").unwrap();
        let rb = Rulebase::owlprime(store.dict_mut());
        let dm = |l: &str| Term::iri(vocab::cs::dm(l));
        let triples = vec![
            // hierarchy
            (dm("Application1_View_Column"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            (dm("Attribute"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Application1_Item")),
            // labels
            (dm("Attribute"), Term::iri(vocab::rdfs::LABEL), Term::plain("Attribute")),
            (
                dm("Application1_View_Column"),
                Term::iri(vocab::rdfs::LABEL),
                Term::plain("Column"),
            ),
            // instance
            (
                Term::iri(vocab::cs::dwh("customer_id")),
                Term::iri(vocab::rdf::TYPE),
                dm("Application1_View_Column"),
            ),
            (
                Term::iri(vocab::cs::dwh("customer_id")),
                Term::iri(vocab::cs::HAS_NAME),
                Term::plain("customer_id"),
            ),
        ];
        for (s, p, o) in triples {
            store.insert("DWH_CURR", &s, &p, &o).unwrap();
        }
        let store = store.freeze();
        let m = Materialization::materialize(store.model("DWH_CURR").unwrap(), &rb, store.dict());
        (store, m)
    }

    #[test]
    fn listing1_shape_without_rulebase_misses_inherited_types() {
        let (store, _) = setup();
        let out = SemMatch::new("{ ?object rdf:type dm:Attribute }")
            .model("DWH_CURR")
            .alias("dm", vocab::cs::DM)
            .select(&["?object"])
            .execute(&store, None)
            .unwrap();
        // Without the OWL index, customer_id is not an Attribute.
        assert!(out.rows.is_empty());
    }

    #[test]
    fn listing1_shape_with_rulebase_sees_inherited_types() {
        let (store, m) = setup();
        let out = SemMatch::new(
            "{ ?object rdf:type ?c . ?c rdfs:label ?class . ?object dm:hasName ?term }",
        )
        .model("DWH_CURR")
        .rulebase("OWLPRIME")
        .alias("dm", vocab::cs::DM)
        .select(&["?class", "?object"])
        .filter("regex(?term, \"customer\", \"i\")")
        .group_by(&["?class", "?object"])
        .order_by(&["?class"])
        .execute(&store, Some(&m))
        .unwrap();
        // customer_id appears under both its own class and the inherited
        // Attribute class.
        assert_eq!(out.rows.len(), 2);
        let classes: Vec<_> = out
            .rows
            .iter()
            .map(|r| r[0].as_ref().unwrap().label().to_string())
            .collect();
        assert_eq!(classes, vec!["Attribute", "Column"]);
    }

    #[test]
    fn rulebase_without_entailments_is_error() {
        let (store, _) = setup();
        let err = SemMatch::new("{ ?x rdf:type ?c }")
            .model("DWH_CURR")
            .rulebase("OWLPRIME")
            .select(&["?x"])
            .execute(&store, None)
            .unwrap_err();
        assert!(matches!(err, SparqlError::Semantic(_)));
    }

    #[test]
    fn missing_model_is_error() {
        let (store, _) = setup();
        let err = SemMatch::new("{ ?x rdf:type ?c }")
            .select(&["?x"])
            .execute(&store, None)
            .unwrap_err();
        assert!(matches!(err, SparqlError::Semantic(_)));
        let err = SemMatch::new("{ ?x rdf:type ?c }")
            .model("NOPE")
            .select(&["?x"])
            .execute(&store, None)
            .unwrap_err();
        assert!(matches!(err, SparqlError::Semantic(_)));
    }

    #[test]
    fn to_sparql_renders_all_clauses() {
        let q = SemMatch::new("{ ?x rdf:type ?c }")
            .model("DWH_CURR")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"])
            .distinct()
            .filter("regex(?x, \"a\")")
            .group_by(&["?x"])
            .order_by(&["?x"])
            .limit(5)
            .to_sparql();
        assert!(q.contains("PREFIX dm:"));
        assert!(q.contains("SELECT DISTINCT ?x"));
        assert!(q.contains("FILTER(regex(?x, \"a\"))"));
        assert!(q.contains("GROUP BY ?x"));
        assert!(q.contains("ORDER BY ?x"));
        assert!(q.contains("LIMIT 5"));
    }

    #[test]
    fn braces_optional_in_pattern() {
        let (store, _) = setup();
        let with = SemMatch::new("{ ?x rdf:type ?c }")
            .model("DWH_CURR")
            .select(&["?x"])
            .execute(&store, None)
            .unwrap();
        let without = SemMatch::new("?x rdf:type ?c")
            .model("DWH_CURR")
            .select(&["?x"])
            .execute(&store, None)
            .unwrap();
        assert_eq!(with.rows.len(), without.rows.len());
    }
}
