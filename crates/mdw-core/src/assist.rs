//! The report-developer assistant — the paper's next use case.
//!
//! Section IV: "an important use case that is currently under development
//! and that extends the search facility described below is to provide more
//! powerful tools to developers in order to program new reports." And
//! Section II: "Business users who wish to create a new report can query
//! the meta-data warehouse in order to find out whether the required
//! information is stored in a data warehouse with the appropriate
//! freshness, granularity and data quality."
//!
//! [`find_sources`] answers exactly that: given a *business concept* (a
//! class from the hierarchy), find every information item that represents
//! the concept — or any of its (entailed) subconcepts — and rank the
//! candidates by how report-ready they are:
//!
//! * data-mart items first (cleansed + aggregated, what reports read),
//! * then integration-area items (cleansed, less aggregated),
//! * then inbound/staging items (raw),
//! * conceptual-level items outrank physical ones at the same area,
//! * items already consumed by reports get a reuse bonus ("sharing the
//!   knowledge of consistently integrated and cleansed data … stimulates
//!   data reuse", Section VII).

use std::collections::BTreeSet;

use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::term::Term;
use mdw_rdf::triple::TriplePattern;
use mdw_rdf::vocab;
use mdw_reason::EntailedGraph;

use crate::model::{AbstractionLevel, Area};

/// One candidate data source for a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceCandidate {
    /// The information item.
    pub item: Term,
    /// Its `dm:hasName` value.
    pub name: Option<String>,
    /// Which concept it represents (the requested one or a subconcept).
    pub concept: Term,
    /// The DWH area the item lives in, if recorded.
    pub area: Option<String>,
    /// The schema it belongs to, if recorded.
    pub schema: Option<Term>,
    /// Number of reports already using it (the reuse signal).
    pub used_by_reports: usize,
    /// The ranking score (higher = more report-ready).
    pub score: u32,
}

/// The assistant's answer.
#[derive(Debug, Clone)]
pub struct SourceCandidates {
    /// The requested concept.
    pub concept: Term,
    /// The concept plus all entailed subconcepts that were searched.
    pub expanded_concepts: Vec<Term>,
    /// Candidates, best first.
    pub candidates: Vec<SourceCandidate>,
}

fn area_score(area: Option<&str>) -> u32 {
    match area {
        Some(a) if a == Area::DataMart.as_str() => 300,
        Some(a) if a == Area::Integration.as_str() => 200,
        Some(a) if a == Area::InboundInterface.as_str() => 100,
        Some(_) => 50,
        // Application-side items (no DWH area) are last resorts.
        None => 10,
    }
}

/// Finds and ranks data sources for a business concept.
pub fn find_sources(
    graph: &EntailedGraph<'_>,
    dict: &Dictionary,
    concept: &Term,
) -> SourceCandidates {
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let empty = SourceCandidates {
        concept: concept.clone(),
        expanded_concepts: Vec::new(),
        candidates: Vec::new(),
    };
    let (Some(concept_id), Some(represents)) = (
        dict.lookup(concept),
        lookup(&vocab::cs::dm("representsConcept")),
    ) else {
        return empty;
    };
    let sub_class = lookup(vocab::rdfs::SUB_CLASS_OF);
    let has_name = lookup(vocab::cs::HAS_NAME);
    let in_area = lookup(vocab::cs::IN_AREA);
    let in_schema = lookup(vocab::cs::IN_SCHEMA);
    let at_level = lookup(vocab::cs::AT_LEVEL);
    let uses_item = lookup(&vocab::cs::dm("usesItem"));
    let conceptual = dict.lookup(&AbstractionLevel::Conceptual.term());

    // The concept plus every entailed subconcept ("a search for Party
    // includes looking for Individuals").
    let mut concepts: BTreeSet<TermId> = BTreeSet::new();
    concepts.insert(concept_id);
    if let Some(sub) = sub_class {
        for t in graph.scan(TriplePattern::with_po(sub, concept_id)) {
            concepts.insert(t.s);
        }
    }

    let mut candidates = Vec::new();
    for &c in &concepts {
        for t in graph.scan(TriplePattern::with_po(represents, c)) {
            let item = t.s;
            let name = has_name.and_then(|p| {
                graph
                    .scan(TriplePattern::with_sp(item, p))
                    .next()
                    .and_then(|t| dict.term(t.o))
                    .and_then(|term| term.as_literal().map(|l| l.lexical.to_string()))
            });
            let area = in_area.and_then(|p| {
                graph
                    .scan(TriplePattern::with_sp(item, p))
                    .next()
                    .and_then(|t| dict.term(t.o))
                    .and_then(|term| term.as_literal().map(|l| l.lexical.to_string()))
            });
            let schema = in_schema.and_then(|p| {
                graph
                    .scan(TriplePattern::with_sp(item, p))
                    .next()
                    .map(|t| dict.term_unchecked(t.o).clone())
            });
            let used_by_reports = uses_item
                .map(|p| graph.scan(TriplePattern::with_po(p, item)).count())
                .unwrap_or(0);
            let is_conceptual = match (at_level, conceptual) {
                (Some(p), Some(v)) => {
                    graph.contains(mdw_rdf::triple::Triple::new(item, p, v))
                }
                _ => false,
            };
            let mut score = area_score(area.as_deref());
            if is_conceptual {
                score += 30;
            }
            score += (used_by_reports.min(10) as u32) * 5;
            candidates.push(SourceCandidate {
                item: dict.term_unchecked(item).clone(),
                name,
                concept: dict.term_unchecked(c).clone(),
                area,
                schema,
                used_by_reports,
                score,
            });
        }
    }
    candidates.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.item.cmp(&b.item)));
    candidates.dedup_by(|a, b| a.item == b.item);

    SourceCandidates {
        concept: concept.clone(),
        expanded_concepts: concepts
            .into_iter()
            .map(|c| dict.term_unchecked(c).clone())
            .collect(),
        candidates,
    }
}

/// Renders the assistant's answer for the developer.
pub fn render_sources(result: &SourceCandidates) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Data sources for concept {} ({} subconcept(s) searched):",
        result.concept.label(),
        result.expanded_concepts.len().saturating_sub(1)
    );
    for c in result.candidates.iter().take(10) {
        let _ = writeln!(
            out,
            "  [{:>3}] {}  name={:?}  area={}  reports={}",
            c.score,
            c.item.label(),
            c.name.as_deref().unwrap_or("—"),
            c.area.as_deref().unwrap_or("—"),
            c.used_by_reports
        );
    }
    if result.candidates.is_empty() {
        let _ = writeln!(out, "  (no items represent this concept — the data is not in the DWH)");
    }
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

    fn warehouse() -> MetadataWarehouse {
        let ty = Term::iri(vocab::rdf::TYPE);
        let sub = Term::iri(vocab::rdfs::SUB_CLASS_OF);
        let name = Term::iri(vocab::cs::HAS_NAME);
        let area = Term::iri(vocab::cs::IN_AREA);
        let level = Term::iri(vocab::cs::AT_LEVEL);
        let rep = dm("representsConcept");
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new(
            "assist-fixture",
            vec![
                // Concept hierarchy: Individual ⊑ Party.
                (dm("Individual"), sub.clone(), dm("Party")),
                // A mart item representing Individual (best candidate).
                (dwh("mart_item"), ty.clone(), dm("Column")),
                (dwh("mart_item"), name.clone(), Term::plain("individual_key")),
                (dwh("mart_item"), area.clone(), crate::model::Area::DataMart.term()),
                (dwh("mart_item"), level, crate::model::AbstractionLevel::Conceptual.term()),
                (dwh("mart_item"), rep.clone(), dm("Individual")),
                (dwh("report1"), dm("usesItem"), dwh("mart_item")),
                // A staging item representing Party directly (raw).
                (dwh("staging_item"), ty.clone(), dm("Column")),
                (dwh("staging_item"), name.clone(), Term::plain("party_raw")),
                (dwh("staging_item"), area, crate::model::Area::InboundInterface.term()),
                (dwh("staging_item"), rep.clone(), dm("Party")),
                // An application column representing Party (no DWH area).
                (dwh("app_col"), ty, dm("Column")),
                (dwh("app_col"), name, Term::plain("party_src")),
                (dwh("app_col"), rep, dm("Party")),
            ],
        )])
        .unwrap();
        w.build_semantic_index().unwrap();
        w
    }

    #[test]
    fn mart_items_rank_first() {
        let w = warehouse();
        let view = w.entailed().unwrap();
        let result = find_sources(&view, w.published().dict(), &dm("Party"));
        assert_eq!(result.candidates.len(), 3);
        // The mart item representing the SUBconcept ranks first — found
        // through the hierarchy, ranked by area + level + reuse.
        assert_eq!(result.candidates[0].item, dwh("mart_item"));
        assert_eq!(result.candidates[1].item, dwh("staging_item"));
        assert_eq!(result.candidates[2].item, dwh("app_col"));
        assert!(result.candidates[0].score > result.candidates[1].score);
        assert_eq!(result.candidates[0].used_by_reports, 1);
    }

    #[test]
    fn subconcepts_are_searched() {
        let w = warehouse();
        let view = w.entailed().unwrap();
        let result = find_sources(&view, w.published().dict(), &dm("Party"));
        assert!(result.expanded_concepts.contains(&dm("Individual")));
        // Asking for the subconcept directly finds only its item.
        let narrow = find_sources(&view, w.published().dict(), &dm("Individual"));
        assert_eq!(narrow.candidates.len(), 1);
        assert_eq!(narrow.candidates[0].item, dwh("mart_item"));
    }

    #[test]
    fn unknown_concept_is_empty_with_message() {
        let w = warehouse();
        let view = w.entailed().unwrap();
        let result = find_sources(&view, w.published().dict(), &dm("Derivative"));
        assert!(result.candidates.is_empty());
        let text = render_sources(&result);
        assert!(text.contains("not in the DWH"));
    }

    #[test]
    fn rendering_lists_ranked_candidates() {
        let w = warehouse();
        let view = w.entailed().unwrap();
        let result = find_sources(&view, w.published().dict(), &dm("Party"));
        let text = render_sources(&result);
        assert!(text.contains("Data sources for concept Party"));
        assert!(text.contains("mart_item"));
        assert!(text.contains("Data Mart"));
    }
}
