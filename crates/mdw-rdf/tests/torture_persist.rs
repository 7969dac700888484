//! Torture tests for the durability layer: truncate on-disk artifacts at
//! every byte boundary and assert that [`LsmStore::open`] recovers exactly
//! the last committed state — never silently wrong data.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use mdw_rdf::frozen::FrozenStore;
use mdw_rdf::journal::{self, Journal, JournalOp};
use mdw_rdf::lsm::{LsmConfig, LsmOpenReport, LsmStore};
use mdw_rdf::persist;
use mdw_rdf::store::Store;
use mdw_rdf::term::Term;
use mdw_rdf::triple::Triple;
use mdw_rdf::RdfError;

use proptest::prelude::*;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mdw-torture-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn iri(ns: &str, n: u64) -> Term {
    Term::iri(format!("http://ex.org/{ns}/{n}"))
}

fn cfg() -> LsmConfig {
    LsmConfig { auto_compact: false, ..LsmConfig::default() }
}

fn open(dir: &std::path::Path) -> Result<(LsmStore, LsmOpenReport), RdfError> {
    LsmStore::open(dir, cfg())
}

/// All triples of all models of a published snapshot, rendered for
/// comparison.
fn snapshot_lines(snap: &FrozenStore) -> BTreeSet<String> {
    let mut lines = BTreeSet::new();
    for (name, graph) in snap.models() {
        for t in graph.iter() {
            let (s, p, o) = snap.decode(t).unwrap();
            lines.insert(format!("{name}: {s} {p} {o}"));
        }
    }
    lines
}

/// The state a fresh open of `dir` recovers, plus what the open did.
fn recovered(dir: &std::path::Path) -> (BTreeSet<String>, LsmOpenReport) {
    let (store, report) = open(dir).unwrap_or_else(|e| panic!("open failed: {e}"));
    (snapshot_lines(&store.snapshot()), report)
}

/// Writes the base store's triples through a durable LSM store in `dir`
/// and checkpoints them into a solid snapshot.
fn checkpointed_base(dir: &std::path::Path) -> persist::SaveReport {
    let (store, _) = open(dir).unwrap();
    let ops: Vec<JournalOp> = (0..3)
        .map(|i| JournalOp::Insert(iri("base", i), iri("p", 0), Term::plain(format!("value {i}"))))
        .collect();
    store.write_batch("DWH_CURR", &ops).unwrap();
    store.checkpoint().unwrap()
}

/// All triples of all models of the reference store, rendered for
/// comparison.
fn state_lines(store: &Store) -> BTreeSet<String> {
    let mut lines = BTreeSet::new();
    for name in store.model_names() {
        let graph = store.model(name).unwrap();
        for t in graph.iter() {
            let (s, p, o) = store.decode(t).unwrap();
            lines.insert(format!("{name}: {s} {p} {o}"));
        }
    }
    lines
}

fn apply_ops(store: &mut Store, model: &str, ops: &[JournalOp]) {
    for op in ops {
        match op {
            JournalOp::Insert(s, p, o) => {
                if !store.has_model(model) {
                    store.create_model(model).unwrap();
                }
                store.insert(model, s, p, o).unwrap();
            }
            JournalOp::Remove(s, p, o) => {
                let ids = (store.encode(s), store.encode(p), store.encode(o));
                if let (Some(s), Some(p), Some(o)) = ids {
                    if store.has_model(model) {
                        store
                            .model_mut(model)
                            .unwrap()
                            .remove(Triple::new(s, p, o));
                    }
                }
            }
        }
    }
}

fn base_store() -> Store {
    let mut store = Store::new();
    store.create_model("DWH_CURR").unwrap();
    for i in 0..3 {
        store
            .insert(
                "DWH_CURR",
                &iri("base", i),
                &iri("p", 0),
                &Term::plain(format!("value {i}")),
            )
            .unwrap();
    }
    store
}

/// Truncate the journal at EVERY byte position inside the record stream:
/// recovery must return exactly the state reflecting the batches whose
/// commit markers survived the cut, and must heal the file.
#[test]
fn journal_truncated_at_every_byte_recovers_committed_prefix() {
    let dir = temp_dir("journal-cut");
    checkpointed_base(&dir);

    // Three batches; remember the file length after each commit.
    let batches: Vec<Vec<JournalOp>> = vec![
        vec![JournalOp::Insert(iri("j", 1), iri("p", 0), Term::plain("one"))],
        vec![
            JournalOp::Remove(iri("base", 0), iri("p", 0), Term::plain("value 0")),
            JournalOp::Insert(iri("j", 2), iri("p", 0), Term::plain("two\nwith newline")),
        ],
        vec![JournalOp::Insert(iri("j", 3), iri("p", 0), Term::plain("three"))],
    ];
    let journal_path = Journal::path_in(&dir);
    let mut commit_offsets = Vec::new();
    {
        let (store, _) = open(&dir).unwrap();
        let header_len = fs::metadata(&journal_path).unwrap().len() as usize;
        commit_offsets.push(header_len);
        for ops in &batches {
            store.write_batch("DWH_CURR", ops).unwrap();
            commit_offsets.push(fs::metadata(&journal_path).unwrap().len() as usize);
        }
    }
    let full = fs::read(&journal_path).unwrap();
    assert_eq!(full.len(), *commit_offsets.last().unwrap());

    // Expected state after k committed batches.
    let expected: Vec<BTreeSet<String>> = (0..=batches.len())
        .map(|k| {
            let mut s = base_store();
            for ops in &batches[..k] {
                apply_ops(&mut s, "DWH_CURR", ops);
            }
            state_lines(&s)
        })
        .collect();

    for cut in commit_offsets[0]..=full.len() {
        fs::write(&journal_path, &full[..cut]).unwrap();
        let committed = commit_offsets.iter().filter(|&&off| off <= cut).count() - 1;
        let (state, report) = recovered(&dir);
        assert_eq!(
            state,
            expected[committed],
            "cut at byte {cut}: wrong state for {committed} committed batches"
        );
        assert_eq!(report.replayed_batches, committed, "cut at byte {cut}");
        assert_eq!(
            report.truncated_bytes as usize,
            cut - commit_offsets[committed],
            "cut at byte {cut}"
        );
        // Recovery healed the file: it now ends at the last commit marker.
        assert_eq!(
            fs::metadata(&journal_path).unwrap().len() as usize,
            commit_offsets[committed],
            "cut at byte {cut}: tail not truncated"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Truncate each committed model file at every byte boundary: the load
/// must DETECT the damage (checksum/count mismatch) rather than return a
/// silently shortened graph.
#[test]
fn model_file_truncation_is_always_detected() {
    let dir = temp_dir("nt-cut");
    checkpointed_base(&dir);
    for path in persist::model_files(&dir).unwrap() {
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let err = open(&dir).map(drop).unwrap_err();
            assert!(
                matches!(err, RdfError::Corrupt { .. } | RdfError::Parse { .. }),
                "cut at {cut}: unexpected error kind {err}"
            );
            let report = persist::fsck(&dir).unwrap();
            assert!(!report.clean(), "cut at {cut}: fsck missed the damage");
        }
        fs::write(&path, &full).unwrap();
        assert!(persist::fsck(&dir).unwrap().clean());
        assert_eq!(recovered(&dir).0, state_lines(&base_store()));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A crash mid-snapshot leaves partially written next-generation files
/// behind. Whatever their content, the committed manifest still points at
/// the previous generation and the old state loads unharmed.
#[test]
fn partial_next_generation_files_do_not_affect_committed_state() {
    let dir = temp_dir("partial-gen");
    let report = checkpointed_base(&dir);
    let committed = recovered(&dir).0;
    assert_eq!(committed, state_lines(&base_store()));

    // Fake the debris of a crashed snapshot: a next-generation model file
    // and a manifest temp file, both torn at various points.
    let next_gen = report.generation + 1;
    let debris_model = dir.join(format!("model_{next_gen}_0.nt"));
    let debris_manifest = dir.join("manifest.tmp");
    let model_bytes = b"<http://ex.org/half> <http://ex.org/p> \"torn";
    let manifest_bytes = format!("#mdw-snapshot v2 gen={next_gen} journal_s");
    for cut in 0..model_bytes.len() {
        fs::write(&debris_model, &model_bytes[..cut]).unwrap();
        fs::write(&debris_manifest, &manifest_bytes.as_bytes()[..cut.min(manifest_bytes.len())])
            .unwrap();
        assert_eq!(recovered(&dir).0, committed, "cut at {cut}");
    }
    // The next successful checkpoint reaps the debris.
    let (store, _) = open(&dir).unwrap();
    let r2 = store.checkpoint().unwrap();
    assert!(r2.generation > report.generation);
    assert!(!debris_manifest.exists());
    fs::remove_dir_all(&dir).unwrap();
}

fn op_strategy() -> impl Strategy<Value = JournalOp> {
    (any::<bool>(), 0u64..6, 0u64..3, 0u64..6).prop_map(|(insert, s, p, o)| {
        if insert {
            JournalOp::Insert(iri("s", s), iri("p", p), iri("o", o))
        } else {
            JournalOp::Remove(iri("s", s), iri("p", p), iri("o", o))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of committed batches replays to exactly the state of
    /// the reference model, regardless of how batches were sized.
    #[test]
    fn journal_replay_matches_in_memory_state(
        batches in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 0..5),
            0..6,
        ),
    ) {
        let dir = temp_dir("prop-replay");
        let mut live = base_store();
        checkpointed_base(&dir);
        {
            let (store, _) = open(&dir).unwrap();
            for ops in &batches {
                apply_ops(&mut live, "DWH_CURR", ops);
                store.write_batch("DWH_CURR", ops).unwrap();
            }
            prop_assert_eq!(snapshot_lines(&store.snapshot()), state_lines(&live));
        }
        let (state, report) = recovered(&dir);
        prop_assert_eq!(&state, &state_lines(&live));
        prop_assert_eq!(report.replayed_batches, batches.len());
        // Checkpoint and open again: still identical, nothing replayed.
        open(&dir).unwrap().0.checkpoint().unwrap();
        let (again, report2) = recovered(&dir);
        prop_assert_eq!(&again, &state_lines(&live));
        prop_assert_eq!(report2.replayed_batches, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Round-trip through scan: what `append` writes, `scan_file` reads
    /// back verbatim.
    #[test]
    fn journal_scan_round_trips_ops(
        ops in proptest::collection::vec(op_strategy(), 0..8),
    ) {
        let dir = temp_dir("prop-scan");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append("m", &ops).unwrap();
        }
        let scan = journal::scan_file(&Journal::path_in(&dir)).unwrap();
        prop_assert_eq!(scan.batches.len(), 1);
        prop_assert_eq!(&scan.batches[0].ops, &ops);
        prop_assert_eq!(scan.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
