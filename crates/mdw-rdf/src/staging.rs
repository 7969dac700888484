//! The staging area and validating bulk loader (paper Figure 4).
//!
//! Credit Suisse's pipeline converts source exports (mostly XML) into RDF
//! triples, accumulates them in *staging tables*, and bulk-loads staged
//! triples into the RDF model tables. Both the facts (from applications)
//! and the hierarchies (exported from Protégé) pass through the *same*
//! staging tables — the meta-data schema is the glue between the two.
//!
//! [`StagingArea`] is that staging table: an unvalidated accumulation buffer
//! tagged with the source each triple came from. [`StagingArea::bulk_load`]
//! validates each staged triple (RDF well-formedness) and writes the valid
//! ones into a target model of an [`LsmStore`] in bounded batches,
//! producing a [`LoadReport`] of what was loaded and what was rejected and
//! why.

use std::collections::HashSet;

use crate::error::RdfError;
use crate::journal::JournalOp;
use crate::lsm::LsmStore;
use crate::term::Term;
use crate::triple::Triple;

/// Most inserts one bulk-load batch carries: the default memtable size,
/// so a load's memory stays bounded and each batch seals into one run.
pub const BULK_BATCH_OPS: usize = 32_768;

/// A staged triple together with its provenance tag (which export produced
/// it — e.g. `"app-extract"` or `"protege-ontology"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedTriple {
    /// Subject term.
    pub s: Term,
    /// Predicate term.
    pub p: Term,
    /// Object term.
    pub o: Term,
    /// Which source export staged this triple.
    pub source: String,
}

/// A rejected staged triple with the validation failure.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The staged triple that failed validation.
    pub triple: StagedTriple,
    /// Why it was rejected.
    pub reason: String,
}

/// The result of a bulk load.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Triples inserted into the model (new ones only).
    pub loaded: usize,
    /// Triples that were already present in the model.
    pub duplicates: usize,
    /// Triples rejected by validation.
    pub rejections: Vec<Rejection>,
}

impl LoadReport {
    /// Total staged triples processed.
    pub fn total(&self) -> usize {
        self.loaded + self.duplicates + self.rejections.len()
    }

    /// True if nothing was rejected.
    pub fn is_clean(&self) -> bool {
        self.rejections.is_empty()
    }
}

/// The staging buffer of the Figure 4 pipeline.
#[derive(Debug, Default, Clone)]
pub struct StagingArea {
    staged: Vec<StagedTriple>,
}

impl StagingArea {
    /// Creates an empty staging area.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one triple from a named source export.
    pub fn stage(&mut self, source: &str, s: Term, p: Term, o: Term) {
        self.staged.push(StagedTriple {
            s,
            p,
            o,
            source: source.to_string(),
        });
    }

    /// Stages a batch of `(s, p, o)` triples from one source.
    pub fn stage_batch(
        &mut self,
        source: &str,
        triples: impl IntoIterator<Item = (Term, Term, Term)>,
    ) {
        for (s, p, o) in triples {
            self.stage(source, s, p, o);
        }
    }

    /// Number of staged triples.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// The staged triples (inspection / tests).
    pub fn staged(&self) -> &[StagedTriple] {
        &self.staged
    }

    /// Validates a staged triple against the RDF well-formedness rules the
    /// loader enforces.
    fn validate(t: &StagedTriple) -> Result<(), String> {
        if !t.s.is_subject_capable() {
            return Err(format!("literal subject: {}", t.s));
        }
        if !t.p.is_iri() {
            return Err(format!("non-IRI predicate: {}", t.p));
        }
        if let Some(iri) = t.s.as_iri() {
            if iri.is_empty() {
                return Err("empty subject IRI".to_string());
            }
        }
        if let Some(iri) = t.p.as_iri() {
            if iri.is_empty() {
                return Err("empty predicate IRI".to_string());
            }
        }
        if let Some(iri) = t.o.as_iri() {
            if iri.is_empty() {
                return Err("empty object IRI".to_string());
            }
        }
        Ok(())
    }

    /// Bulk-loads all staged triples into `model` of `store`, draining the
    /// staging area. Valid triples are interned in one dictionary pass,
    /// checked against the current snapshot and each other (repeats count
    /// as duplicates), and the new ones are written in batches of at most
    /// [`BULK_BATCH_OPS`] inserts; invalid ones are collected in the
    /// report. A backpressure shed is not a failure here: the loader folds
    /// the stacked runs itself and retries the batch
    /// ([`LsmStore::write_batch_or_fold`]).
    ///
    /// After each batch commits, `committed` is called once per run of
    /// same-source triples it covered (duplicates included), so a caller
    /// tracking provenance records exactly what is durable — also when a
    /// later batch fails and the load returns an error.
    pub fn bulk_load(
        &mut self,
        store: &LsmStore,
        model: &str,
        mut committed: impl FnMut(&str, &[Triple]),
    ) -> Result<LoadReport, RdfError> {
        // Fail before draining if a fault drill has armed the bulk-load
        // failpoint (staged triples stay staged, so a retry sees the same
        // batch).
        crate::failpoint::check("staging::bulk_load")?;
        let mut report = LoadReport::default();
        let mut valid = Vec::with_capacity(self.staged.len());
        for staged in self.staged.drain(..) {
            match Self::validate(&staged) {
                Ok(()) => valid.push(staged),
                Err(reason) => report.rejections.push(Rejection { triple: staged, reason }),
            }
        }
        let ids: Vec<Triple> = store.with_dict(|dict| {
            valid
                .iter()
                .map(|t| Triple::new(dict.intern(&t.s), dict.intern(&t.p), dict.intern(&t.o)))
                .collect()
        });
        let snapshot = store.snapshot();
        let present = snapshot.model(model).ok();
        let mut seen = HashSet::with_capacity(ids.len());
        let mut ops = Vec::new();
        let mut sources: Vec<String> = Vec::new();
        let mut start = 0;
        let total = valid.len();
        for (i, (staged, &id)) in valid.into_iter().zip(&ids).enumerate() {
            if present.is_some_and(|g| g.contains(id)) || !seen.insert(id) {
                report.duplicates += 1;
            } else {
                report.loaded += 1;
                ops.push(JournalOp::Insert(staged.s, staged.p, staged.o));
            }
            sources.push(staged.source);
            if ops.len() == BULK_BATCH_OPS || i + 1 == total {
                if !ops.is_empty() {
                    store.write_batch_or_fold(model, &ops)?;
                }
                let batch = &ids[start..=i];
                let mut run = 0;
                for j in 1..=batch.len() {
                    if j == batch.len() || sources[j] != sources[run] {
                        committed(&sources[run], &batch[run..j]);
                        run = j;
                    }
                }
                ops.clear();
                sources.clear();
                start = i + 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::LsmConfig;
    use crate::vocab;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    fn store() -> LsmStore {
        LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() })
    }

    fn model_len(store: &LsmStore, model: &str) -> usize {
        store.snapshot().model(model).map_or(0, |g| g.len())
    }

    #[test]
    fn stage_and_load() {
        let store = store();
        let mut staging = StagingArea::new();
        staging.stage(
            "app-extract",
            iri("http://ex.org/john"),
            vocab::rdf_type(),
            iri("http://ex.org/Customer"),
        );
        staging.stage(
            "app-extract",
            iri("http://ex.org/john"),
            vocab::has_name(),
            Term::plain("John Doe"),
        );
        let mut seen = Vec::new();
        let report = staging
            .bulk_load(&store, "DWH_CURR", |source, ts| seen.push((source.to_string(), ts.len())))
            .unwrap();
        assert_eq!(report.loaded, 2);
        assert!(report.is_clean());
        assert!(staging.is_empty());
        assert_eq!(model_len(&store, "DWH_CURR"), 2);
        assert_eq!(seen, vec![("app-extract".to_string(), 2)]);
    }

    #[test]
    fn duplicates_counted_not_rejected() {
        let store = store();
        let mut staging = StagingArea::new();
        for _ in 0..2 {
            staging.stage("src", iri("a"), iri("p"), iri("b"));
        }
        let report = staging.bulk_load(&store, "m", |_, _| {}).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.total(), 2);
        // A second load of the same triple finds it in the snapshot.
        staging.stage("other", iri("a"), iri("p"), iri("b"));
        let again = staging.bulk_load(&store, "m", |_, _| {}).unwrap();
        assert_eq!((again.loaded, again.duplicates), (0, 1));
        assert_eq!(store.metrics().committed_batches, 1, "nothing new, nothing written");
    }

    #[test]
    fn invalid_triples_rejected_with_reason() {
        let store = store();
        let mut staging = StagingArea::new();
        staging.stage("src", Term::plain("lit"), iri("p"), iri("b"));
        staging.stage("src", iri("a"), Term::plain("p"), iri("b"));
        staging.stage("src", iri(""), iri("p"), iri("b"));
        staging.stage("src", iri("a"), iri("p"), iri("b")); // valid
        let report = staging.bulk_load(&store, "m", |_, _| {}).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.rejections.len(), 3);
        assert!(report.rejections[0].reason.contains("literal subject"));
        assert!(report.rejections[1].reason.contains("non-IRI predicate"));
        assert!(report.rejections[2].reason.contains("empty subject IRI"));
    }

    #[test]
    fn failed_load_keeps_staging() {
        let store = store();
        let mut staging = StagingArea::new();
        staging.stage("src", iri("a"), iri("p"), iri("b"));
        crate::failpoint::arm("staging::bulk_load", crate::failpoint::FailSpec::Once);
        assert!(staging.bulk_load(&store, "m", |_, _| {}).is_err());
        assert_eq!(staging.len(), 1); // not drained on failure
    }

    #[test]
    fn large_loads_split_into_bounded_batches_per_source() {
        let store = store();
        let mut staging = StagingArea::new();
        let n = BULK_BATCH_OPS + 10;
        for i in 0..n {
            let source = if i < 5 { "first" } else { "second" };
            staging.stage(source, iri(&format!("s{i}")), iri("p"), iri("o"));
        }
        let mut seen = Vec::new();
        let report = staging
            .bulk_load(&store, "m", |source, ts| seen.push((source.to_string(), ts.len())))
            .unwrap();
        assert_eq!(report.loaded, n);
        assert_eq!(store.metrics().committed_batches, 2);
        assert_eq!(
            seen,
            vec![
                ("first".to_string(), 5),
                ("second".to_string(), BULK_BATCH_OPS - 5),
                ("second".to_string(), 10),
            ]
        );
        assert_eq!(model_len(&store, "m"), n);
    }

    #[test]
    fn backpressure_shed_never_fails_a_bulk_load() {
        // Stall as soon as one run is stacked, with no background
        // compactor and no wait: every batch after the first is shed.
        let store = LsmStore::in_memory(LsmConfig {
            memtable_limit: 4,
            stall_runs: 1,
            stall_deadline: std::time::Duration::ZERO,
            auto_compact: false,
            ..LsmConfig::default()
        });
        let mut staging = StagingArea::new();
        for i in 0..(2 * BULK_BATCH_OPS + 1) {
            staging.stage("src", iri(&format!("s{i}")), iri("p"), iri("o"));
        }
        let report = staging.bulk_load(&store, "m", |_, _| {}).unwrap();
        assert_eq!(report.loaded, 2 * BULK_BATCH_OPS + 1);
        assert!(store.metrics().sheds >= 1, "the gate never shed");
        assert_eq!(model_len(&store, "m"), 2 * BULK_BATCH_OPS + 1);
    }

    #[test]
    fn bulk_load_returns_an_error_when_sealing_and_folding_both_fail() {
        // A durable store whose seals always fail grows its memtable up to
        // the stall bound; the shed's checkpoint fails too, and the load
        // must report that instead of retrying forever.
        let dir = std::env::temp_dir().join(format!("mdw-staging-fold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = LsmConfig {
            memtable_limit: 4,
            stall_mem_ops: 8,
            stall_deadline: std::time::Duration::ZERO,
            auto_compact: false,
            ..LsmConfig::default()
        };
        let (store, _) = LsmStore::open(&dir, cfg).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            crate::failpoint::arm("run::seal", crate::failpoint::FailSpec::Always);
            crate::failpoint::arm("snapshot::model", crate::failpoint::FailSpec::Always);
            let mut staging = StagingArea::new();
            let result = (0..16).try_for_each(|i| {
                staging.stage("src", iri(&format!("s{i}")), iri("p"), iri("o"));
                staging.bulk_load(&store, "m", |_, _| {}).map(|_| ())
            });
            let _ = tx.send(result);
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("bulk_load hung on a failing seal path");
        assert!(
            matches!(&result, Err(RdfError::Injected { failpoint }) if failpoint == "snapshot::model"),
            "got {result:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_batch() {
        let mut staging = StagingArea::new();
        staging.stage_batch(
            "ontology",
            vec![
                (iri("A"), vocab::rdfs_sub_class_of(), iri("B")),
                (iri("B"), vocab::rdfs_sub_class_of(), iri("C")),
            ],
        );
        assert_eq!(staging.len(), 2);
        assert_eq!(staging.staged()[0].source, "ontology");
    }
}
