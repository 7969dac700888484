//! Crash-recovery drills for the durable warehouse on its LSM write path:
//! kill the store at every failpoint — journal, run seal, compaction,
//! snapshot — and assert that zero acknowledged (committed) triples are
//! lost, that quarantine is reported faithfully, and that resync is
//! idempotent on double delivery.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use mdw_core::ingest::{Extract, ExtractStatus};
use mdw_core::resilience::{failpoint, FailSpec, ManualTime, RetryPolicy};
use mdw_core::warehouse::MetadataWarehouse;
use mdw_rdf::lsm::LsmConfig;
use mdw_rdf::term::Term;

use proptest::prelude::*;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mdw-crash-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn iri(ns: &str, n: u64) -> Term {
    Term::iri(format!("http://ex.org/{ns}/{n}"))
}

fn extract(source: &str, ns: &str, count: u64) -> Extract {
    Extract::new(
        source,
        (0..count)
            .map(|i| (iri(ns, i), iri("p", 0), Term::plain(format!("{ns} {i}"))))
            .collect(),
    )
}

/// The current model's triples, rendered for comparison.
fn model_lines(w: &MetadataWarehouse) -> BTreeSet<String> {
    let graph = w.published().model(w.model_name()).unwrap();
    graph
        .iter()
        .map(|t| {
            let (s, p, o) = w.published().decode(t).unwrap();
            format!("{s} {p} {o}")
        })
        .collect()
}

/// Every failpoint the durability and ingest paths consult, all reached on
/// the ingesting thread (so thread-local armings reach them): the journal
/// points while a batch commits, the `run::seal*` points when a batch fills
/// the memtable (see [`fresh_triples`]), and the compaction, runs-manifest
/// and snapshot points in the checkpoint that ends every bulk ingest.
const FAILPOINTS: &[&str] = &[
    "journal::append",
    "journal::append::partial",
    "journal::append::uncommitted",
    "journal::sync",
    "journal::rotate",
    "journal::reset",
    "snapshot::model",
    "snapshot::manifest",
    "staging::bulk_load",
    "ingest::extract",
    "run::seal",
    "run::seal::partial",
    "run::seal::manifest",
    "run::manifest",
    "compact::merge",
    "compact::manifest",
];

/// How many triples the drill's faulty extract carries at `fp`: enough to
/// fill a memtable — so the commit seals a run — for the seal points, a
/// handful otherwise.
fn fresh_triples(fp: &str) -> u64 {
    if fp.starts_with("run::seal") {
        LsmConfig::default().memtable_limit as u64
    } else {
        3
    }
}

/// Failpoints only the checkpoint path (snapshot + journal rotation)
/// reaches; the drill attempts a checkpoint instead of an ingest for
/// these.
fn is_checkpoint_failpoint(fp: &str) -> bool {
    matches!(
        fp,
        "snapshot::model" | "snapshot::manifest" | "journal::rotate" | "journal::reset"
    )
}

/// The scripted crash drill: commit some extracts, arm one failpoint,
/// attempt one more operation, "kill" the process (drop the warehouse
/// without any shutdown), reopen, and check the committed state survived.
fn crash_drill(fp_index: usize, committed_extracts: u64, checkpoint_first: bool) {
    let fp = FAILPOINTS[fp_index % FAILPOINTS.len()];
    let dir = temp_dir("drill");
    failpoint::reset();

    let committed;
    {
        let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
        for i in 0..committed_extracts {
            w.ingest(vec![extract(&format!("src{i}"), &format!("n{i}"), 2 + i)])
                .unwrap();
        }
        if checkpoint_first {
            w.checkpoint().unwrap();
        }
        committed = model_lines(&w);

        // Arm the failpoint and attempt one more mutation. Whether the
        // attempt errors, quarantines, or succeeds, the invariant below
        // must hold.
        failpoint::arm(fp, FailSpec::Once);
        let attempt = if is_checkpoint_failpoint(fp) {
            w.checkpoint().map(|_| true)
        } else if fp == "ingest::extract" {
            w.ingest_resilient(
                vec![extract("faulty", "fresh", 3)],
                &RetryPolicy::no_retry(),
                &ManualTime::new(),
            )
            .map(|report| {
                // Exactly this fate must be reported: quarantined on the
                // one armed injection, nothing silently dropped.
                assert_eq!(report.quarantined_sources(), vec!["faulty"]);
                match &report.outcomes[0].status {
                    ExtractStatus::Quarantined { reason, .. } => {
                        assert!(reason.contains("ingest::extract"), "{reason}");
                    }
                    other => panic!("expected quarantine, got {other:?}"),
                }
                false // nothing acknowledged
            })
        } else {
            w.ingest(vec![extract("faulty", "fresh", fresh_triples(fp))]).map(|_| true)
        };
        let acknowledged = attempt.unwrap_or(false);
        // The armed point was really on the attempted path: it fired and
        // disarmed itself.
        assert!(!failpoint::armed().iter().any(|n| n == fp), "failpoint {fp} never reached");
        // Crash NOW: drop without checkpoint or any cleanup.
        drop(w);

        let (reopened, _) = MetadataWarehouse::open(&dir).unwrap();
        let after = model_lines(&reopened);
        if acknowledged {
            // The operation was acknowledged → its triples are committed
            // too and must all be present.
            let mut expected = committed.clone();
            if is_checkpoint_failpoint(fp) {
                // checkpoint failure injected; no new triples involved.
                assert_eq!(&after, &expected, "failpoint {fp}");
            } else {
                for i in 0..fresh_triples(fp) {
                    let (s, p, o) =
                        (iri("fresh", i), iri("p", 0), Term::plain(format!("fresh {i}")));
                    expected.insert(format!("{s} {p} {o}"));
                }
                assert_eq!(&after, &expected, "failpoint {fp}");
            }
        } else {
            // Not acknowledged → every previously committed triple must
            // still be there (the unacknowledged batch may or may not
            // have survived, but committed data is inviolable).
            for line in &committed {
                assert!(after.contains(line), "failpoint {fp}: committed triple lost: {line}");
            }
        }
    }
    failpoint::reset();
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill the store at a random failpoint after a random amount of
    /// committed work: zero committed triples are ever lost.
    #[test]
    fn no_committed_triple_is_lost_at_any_failpoint(
        fp_index in 0usize..FAILPOINTS.len(),
        committed_extracts in 0u64..4,
        checkpoint_first in any::<bool>(),
    ) {
        crash_drill(fp_index, committed_extracts, checkpoint_first);
    }
}

/// Deterministic sweep: every failpoint is exercised at least once in
/// both checkpointed and journal-only configurations (the proptest above
/// samples; this guarantees coverage).
#[test]
fn every_failpoint_is_survivable() {
    for (i, _) in FAILPOINTS.iter().enumerate() {
        for checkpoint_first in [false, true] {
            crash_drill(i, 2, checkpoint_first);
        }
    }
}

/// The acceptance drill from the issue: a source whose delivery fails
/// three times, then succeeds — the resilient ingest must land it via
/// retry/backoff without any wall-clock sleeping.
#[test]
fn three_failure_flaky_source_succeeds_via_retry() {
    failpoint::reset();
    let dir = temp_dir("flaky");
    let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
    failpoint::arm("ingest::extract::flaky-app", FailSpec::Times(3));
    let clock = ManualTime::new();
    let started = std::time::Instant::now();
    let report = w
        .ingest_resilient(
            vec![extract("flaky-app", "f", 4)],
            &RetryPolicy::default(), // 4 attempts
            &clock,
        )
        .unwrap();
    assert_eq!(
        report.outcomes[0].status,
        ExtractStatus::RetriedThenLoaded { attempts: 4 }
    );
    assert_eq!(report.loaded(), 4);
    // Backoff was recorded, not slept: three exponentially growing delays,
    // and the whole drill finished far faster than the nominal backoff.
    assert_eq!(clock.sleeps().len(), 3);
    assert!(clock.sleeps()[2] > clock.sleeps()[0]);
    assert!(started.elapsed() < clock.total_slept() + std::time::Duration::from_secs(1));

    // And the retried triples are durable: reopen finds them.
    drop(w);
    let (reopened, _) = MetadataWarehouse::open(&dir).unwrap();
    assert_eq!(reopened.stats().unwrap().edges, 4);
    failpoint::reset();
    let _ = fs::remove_dir_all(&dir);
}

fn resync_extract_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..8, 0u64..8), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resync is idempotent on double delivery: re-delivering the same
    /// extract is a no-op for both the graph and the report.
    #[test]
    fn resync_double_delivery_is_idempotent(
        first in resync_extract_strategy(),
        second in resync_extract_strategy(),
    ) {
        let mut w = MetadataWarehouse::new();
        let to_extract = |pairs: &[(u64, u64)]| {
            Extract::new(
                "scanner",
                pairs
                    .iter()
                    .map(|&(s, o)| (iri("s", s), iri("p", 0), iri("o", o)))
                    .collect(),
            )
        };
        // Deliver the first set, then replace it with the second.
        w.resync(to_extract(&first)).unwrap();
        w.resync(to_extract(&second)).unwrap();
        let state = model_lines(&w);

        // Double delivery of the second set: nothing changes.
        let report = w.resync(to_extract(&second)).unwrap();
        prop_assert_eq!(report.added, 0);
        prop_assert_eq!(report.removed, 0);
        prop_assert_eq!(model_lines(&w), state);
    }
}
