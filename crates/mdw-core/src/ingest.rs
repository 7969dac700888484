//! The ingestion pipeline of Figure 4:
//! source extract → RDF triples → staging tables → validated bulk load.
//!
//! "Since most of Credit Suisse's meta-data are available either as XML
//! files or in a format that can easily be converted into XML, the very
//! first step … is to transform it into RDF … This is how those RDF triples
//! that contain the meta-data facts are prepared for the bulk load of all
//! RDF triples into the Oracle database."
//!
//! An [`Extract`] is one converted source export (an application scanner,
//! the Protégé ontology file, the DBpedia synonym collection — they all
//! enter through the *same* staging area). [`ingest`] stages every extract
//! and bulk-loads the staging area into a model of an [`LsmStore`] — in
//! bounded group-committed batches, through the store's one write path —
//! producing an [`IngestReport`] with per-stage counts and timings — the
//! trace the Figure 4 reproduction prints.
//!
//! Both loaders report provenance through a `committed(source, triples)`
//! callback that fires once a batch is durable, so a caller tracking which
//! source asserted what (the warehouse's
//! [`SourceRegistry`](crate::sync::SourceRegistry)) never records a
//! triple that a failed write left out of the graph.

use std::time::{Duration, Instant};

use mdw_rdf::failpoint;
use mdw_rdf::lsm::LsmStore;
use mdw_rdf::staging::{LoadReport, StagingArea};
use mdw_rdf::term::Term;
use mdw_rdf::triple::Triple;
use mdw_rdf::turtle;

use crate::error::MdwError;
use crate::resilience::{run_with_retry, Clock, RetryPolicy};

/// One source export, already converted to RDF triples.
#[derive(Debug, Clone)]
pub struct Extract {
    /// Which system produced the export (provenance tag in staging).
    pub source: String,
    /// The converted triples.
    pub triples: Vec<(Term, Term, Term)>,
}

impl Extract {
    /// Creates an extract from in-memory triples.
    pub fn new(source: impl Into<String>, triples: Vec<(Term, Term, Term)>) -> Self {
        Extract { source: source.into(), triples }
    }

    /// Parses an extract from a Turtle document (the ontology-file path of
    /// Figure 4).
    pub fn from_turtle(source: impl Into<String>, text: &str) -> Result<Self, MdwError> {
        let doc = turtle::parse(text)?;
        Ok(Extract { source: source.into(), triples: doc.triples })
    }

    /// Number of triples in the extract.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the extract is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// The trace of one ingestion run.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Per-extract (source, triple count) in ingestion order.
    pub extracts: Vec<(String, usize)>,
    /// Total staged triples.
    pub staged: usize,
    /// The bulk-load outcome (loaded / duplicates / rejections).
    pub load: LoadReport,
    /// Time spent staging.
    pub stage_time: Duration,
    /// Time spent bulk-loading.
    pub load_time: Duration,
}

impl IngestReport {
    /// True if every staged triple loaded (or was a duplicate).
    pub fn is_clean(&self) -> bool {
        self.load.is_clean()
    }
}

/// Stages all extracts and bulk-loads them into `model` of `store` (see
/// [`StagingArea::bulk_load`]); `committed` hears of every durable batch.
pub fn ingest(
    store: &LsmStore,
    model: &str,
    extracts: Vec<Extract>,
    committed: impl FnMut(&str, &[Triple]),
) -> Result<IngestReport, MdwError> {
    // A missing model is a caller bug.
    store.snapshot().model(model)?;
    let mut staging = StagingArea::new();
    let stage_start = Instant::now();
    let mut per_extract = Vec::with_capacity(extracts.len());
    for extract in extracts {
        per_extract.push((extract.source.clone(), extract.triples.len()));
        staging.stage_batch(&extract.source, extract.triples);
    }
    let stage_time = stage_start.elapsed();
    let staged = staging.len();

    let load_start = Instant::now();
    let load = staging.bulk_load(store, model, committed)?;
    let load_time = load_start.elapsed();

    Ok(IngestReport { extracts: per_extract, staged, load, stage_time, load_time })
}

/// How one extract fared in a resilient ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractStatus {
    /// Loaded on the first attempt.
    Loaded,
    /// Loaded after one or more transient failures.
    RetriedThenLoaded {
        /// Attempts consumed (≥ 2).
        attempts: u32,
    },
    /// Set aside: the graph holds none of this extract's triples.
    Quarantined {
        /// Why the extract was quarantined.
        reason: String,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
}

impl ExtractStatus {
    /// True if the extract's triples made it into the graph.
    pub fn is_loaded(&self) -> bool {
        !matches!(self, ExtractStatus::Quarantined { .. })
    }
}

/// Per-extract outcome of a resilient ingest.
#[derive(Debug, Clone)]
pub struct ExtractOutcome {
    /// Which system produced the extract.
    pub source: String,
    /// Triples the extract carried.
    pub triples: usize,
    /// What happened to it.
    pub status: ExtractStatus,
    /// Triples newly inserted (0 when quarantined).
    pub loaded: usize,
    /// Triples already present (0 when quarantined).
    pub duplicates: usize,
    /// Triples rejected by per-triple validation while the extract as a
    /// whole still loaded.
    pub rejected: usize,
}

/// The trace of one fault-tolerant ingestion run.
#[derive(Debug, Clone, Default)]
pub struct ResilientIngestReport {
    /// One outcome per extract, in delivery order.
    pub outcomes: Vec<ExtractOutcome>,
}

impl ResilientIngestReport {
    /// Total triples newly inserted.
    pub fn loaded(&self) -> usize {
        self.outcomes.iter().map(|o| o.loaded).sum()
    }

    /// Sources that ended up quarantined.
    pub fn quarantined_sources(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| !o.status.is_loaded())
            .map(|o| o.source.as_str())
            .collect()
    }

    /// True if every extract loaded and nothing was rejected.
    pub fn is_clean(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| o.status.is_loaded() && o.rejected == 0)
    }
}

/// Stages and loads each extract *independently*, retrying transient
/// failures with backoff and quarantining extracts that cannot load — one
/// bad delivery no longer poisons the whole release ingest.
///
/// Classification: transient errors ([`MdwError::is_transient`]) are
/// retried up to `policy.max_attempts` with `clock`-injected backoff;
/// permanent errors quarantine the extract immediately, as does an extract
/// whose every triple fails validation (a systematically broken export —
/// retrying cannot help).
///
/// Failpoints consulted per attempt: `ingest::extract::<source>` first,
/// then the generic `ingest::extract`, plus whatever the staging and
/// persistence layers have armed.
pub fn ingest_resilient(
    store: &LsmStore,
    model: &str,
    extracts: Vec<Extract>,
    policy: &RetryPolicy,
    clock: &dyn Clock,
    mut committed: impl FnMut(&str, &[Triple]),
) -> Result<ResilientIngestReport, MdwError> {
    // A missing model is a caller bug, not a per-extract fault.
    store.snapshot().model(model)?;
    let mut report = ResilientIngestReport::default();
    for extract in extracts {
        let source = extract.source.clone();
        let triples = extract.triples.len();
        let specific = format!("ingest::extract::{source}");
        let attempt_once = |_attempt: u32| -> Result<LoadReport, MdwError> {
            failpoint::check(&specific)?;
            failpoint::check("ingest::extract")?;
            let mut staging = StagingArea::new();
            staging.stage_batch(&source, extract.triples.clone());
            Ok(staging.bulk_load(store, model, &mut committed)?)
        };
        let outcome = match run_with_retry(policy, clock, attempt_once) {
            Ok(retried) => {
                let load = retried.value;
                let fully_rejected = triples > 0 && load.rejections.len() == triples;
                let status = if fully_rejected {
                    ExtractStatus::Quarantined {
                        reason: format!(
                            "validation rejected all {triples} triples (first: {})",
                            load.rejections[0].reason
                        ),
                        attempts: retried.attempts,
                    }
                } else if retried.attempts > 1 {
                    ExtractStatus::RetriedThenLoaded { attempts: retried.attempts }
                } else {
                    ExtractStatus::Loaded
                };
                ExtractOutcome {
                    source,
                    triples,
                    status,
                    loaded: load.loaded,
                    duplicates: load.duplicates,
                    rejected: if fully_rejected { 0 } else { load.rejections.len() },
                }
            }
            Err((error, attempts)) => ExtractOutcome {
                source,
                triples,
                status: ExtractStatus::Quarantined { reason: error.to_string(), attempts },
                loaded: 0,
                duplicates: 0,
                rejected: 0,
            },
        };
        report.outcomes.push(outcome);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::LsmConfig;
    use mdw_rdf::vocab;

    /// An in-memory store holding an empty `model` (an empty batch
    /// creates it).
    fn store_with_model(model: &str) -> LsmStore {
        let store = LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() });
        store.write_batch(model, &[] as &[JournalOp]).unwrap();
        store
    }

    #[test]
    fn ingest_multiple_extracts() {
        let store = store_with_model("DWH_CURR");
        let facts = Extract::new(
            "app-scanner",
            vec![(
                Term::iri("http://ex.org/t1"),
                Term::iri(vocab::rdf::TYPE),
                Term::iri("http://ex.org/Table"),
            )],
        );
        let ontology = Extract::new(
            "protege",
            vec![(
                Term::iri("http://ex.org/Table"),
                Term::iri(vocab::rdfs::SUB_CLASS_OF),
                Term::iri("http://ex.org/Item"),
            )],
        );
        let report = ingest(&store, "DWH_CURR", vec![facts, ontology], |_, _| {}).unwrap();
        assert_eq!(report.staged, 2);
        assert_eq!(report.load.loaded, 2);
        assert!(report.is_clean());
        assert_eq!(report.extracts.len(), 2);
        assert_eq!(store.snapshot().model("DWH_CURR").unwrap().len(), 2);
    }

    #[test]
    fn ingest_from_turtle() {
        let store = store_with_model("m");
        let extract = Extract::from_turtle(
            "ontology-file",
            "@prefix dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#> .\n\
             dm:Individual rdfs:subClassOf dm:Party .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
        );
        // prefix declared after use → parse error
        assert!(extract.is_err());

        let extract = Extract::from_turtle(
            "ontology-file",
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             @prefix dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#> .\n\
             dm:Individual rdfs:subClassOf dm:Party .",
        )
        .unwrap();
        assert_eq!(extract.len(), 1);
        let report = ingest(&store, "m", vec![extract], |_, _| {}).unwrap();
        assert_eq!(report.load.loaded, 1);
    }

    #[test]
    fn rejections_surface_in_report() {
        let store = store_with_model("m");
        let bad = Extract::new(
            "broken-export",
            vec![(Term::plain("literal-subject"), Term::iri("p"), Term::iri("o"))],
        );
        let report = ingest(&store, "m", vec![bad], |_, _| {}).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.load.rejections.len(), 1);
        assert_eq!(report.load.rejections[0].triple.source, "broken-export");
    }

    #[test]
    fn missing_model_is_error() {
        let store = LsmStore::in_memory(LsmConfig::default());
        let err = ingest(&store, "missing", vec![], |_, _| {}).unwrap_err();
        assert!(matches!(err, MdwError::Rdf(_)));
    }

    mod resilient {
        use super::*;
        use crate::resilience::{failpoint, FailSpec, ManualTime};

        fn good_extract(source: &str, node: &str) -> Extract {
            Extract::new(
                source,
                vec![(
                    Term::iri(format!("http://ex.org/{node}")),
                    Term::iri(vocab::rdf::TYPE),
                    Term::iri("http://ex.org/Table"),
                )],
            )
        }

        #[test]
        fn flaky_source_succeeds_after_three_transient_failures() {
            failpoint::reset();
            let store = store_with_model("m");
            // The first three delivery attempts fail, the fourth works.
            failpoint::arm("ingest::extract::flaky", FailSpec::Times(3));
            let clock = ManualTime::new();
            let policy = RetryPolicy::default(); // 4 attempts
            let report = ingest_resilient(
                &store,
                "m",
                vec![good_extract("flaky", "t1")],
                &policy,
                &clock,
                |_, _| {},
            )
            .unwrap();
            assert_eq!(report.outcomes.len(), 1);
            assert_eq!(
                report.outcomes[0].status,
                ExtractStatus::RetriedThenLoaded { attempts: 4 }
            );
            assert_eq!(report.loaded(), 1);
            // Backoff was requested but never actually slept.
            assert_eq!(clock.sleeps().len(), 3);
            assert!(clock.sleeps()[1] > clock.sleeps()[0]);
            failpoint::reset();
        }

        #[test]
        fn exhausted_retries_quarantine_the_extract() {
            failpoint::reset();
            let store = store_with_model("m");
            failpoint::arm("ingest::extract::dead", FailSpec::Always);
            let clock = ManualTime::new();
            let policy = RetryPolicy::default().with_max_attempts(3);
            let report = ingest_resilient(
                &store,
                "m",
                vec![good_extract("dead", "t1"), good_extract("healthy", "t2")],
                &policy,
                &clock,
                |_, _| {},
            )
            .unwrap();
            // The dead source is quarantined; the healthy one still loads.
            assert_eq!(report.quarantined_sources(), vec!["dead"]);
            match &report.outcomes[0].status {
                ExtractStatus::Quarantined { attempts, reason } => {
                    assert_eq!(*attempts, 3);
                    assert!(reason.contains("ingest::extract::dead"), "{reason}");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
            assert_eq!(report.outcomes[1].status, ExtractStatus::Loaded);
            assert_eq!(store.snapshot().model("m").unwrap().len(), 1);
            failpoint::reset();
        }

        #[test]
        fn fully_rejected_extract_is_quarantined_without_retry() {
            failpoint::reset();
            let store = store_with_model("m");
            let bad = Extract::new(
                "broken-export",
                vec![
                    (Term::plain("lit1"), Term::iri("p"), Term::iri("o")),
                    (Term::plain("lit2"), Term::iri("p"), Term::iri("o")),
                ],
            );
            let clock = ManualTime::new();
            let report = ingest_resilient(
                &store,
                "m",
                vec![bad],
                &RetryPolicy::default(),
                &clock,
                |_, _| {},
            )
            .unwrap();
            match &report.outcomes[0].status {
                ExtractStatus::Quarantined { attempts, reason } => {
                    // Validation failure is permanent — one attempt only.
                    assert_eq!(*attempts, 1);
                    assert!(reason.contains("rejected all 2"), "{reason}");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
            assert!(clock.sleeps().is_empty());
            assert_eq!(store.snapshot().model("m").unwrap().len(), 0);
        }

        #[test]
        fn partial_rejection_still_loads_the_extract() {
            failpoint::reset();
            let store = store_with_model("m");
            let mixed = Extract::new(
                "mixed",
                vec![
                    (
                        Term::iri("http://ex.org/ok"),
                        Term::iri(vocab::rdf::TYPE),
                        Term::iri("http://ex.org/Table"),
                    ),
                    (Term::plain("lit"), Term::iri("p"), Term::iri("o")),
                ],
            );
            let report = ingest_resilient(
                &store,
                "m",
                vec![mixed],
                &RetryPolicy::no_retry(),
                &ManualTime::new(),
                |_, _| {},
            )
            .unwrap();
            assert_eq!(report.outcomes[0].status, ExtractStatus::Loaded);
            assert_eq!(report.outcomes[0].loaded, 1);
            assert_eq!(report.outcomes[0].rejected, 1);
            assert!(!report.is_clean());
        }

        #[test]
        fn generic_failpoint_hits_every_extract() {
            failpoint::reset();
            let store = store_with_model("m");
            failpoint::arm("ingest::extract", FailSpec::Always);
            let report = ingest_resilient(
                &store,
                "m",
                vec![good_extract("a", "t1"), good_extract("b", "t2")],
                &RetryPolicy::no_retry(),
                &ManualTime::new(),
                |_, _| {},
            )
            .unwrap();
            assert_eq!(report.quarantined_sources(), vec!["a", "b"]);
            failpoint::reset();
        }
    }
}
