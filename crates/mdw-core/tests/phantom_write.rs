//! A write the store did not acknowledge must never become visible.
//!
//! A durable warehouse's journal append is made to fail once during an
//! `ingest` and once during a `resync`. Each failed write must stay
//! invisible at three points: right after the failure, after the next
//! successful write, and after the warehouse is reopened. The semantic
//! index must agree with the graph throughout: it neither carries facts
//! derived from the failed write nor loses the ones it had.

use std::path::PathBuf;

use mdw_core::ingest::Extract;
use mdw_core::resilience::{failpoint, FailSpec};
use mdw_core::search::SearchRequest;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_rdf::term::Term;
use mdw_rdf::vocab;

fn dm(local: &str) -> Term {
    Term::iri(vocab::cs::dm(local))
}

fn dwh(local: &str) -> Term {
    Term::iri(vocab::cs::dwh(local))
}

/// A column named `name` — two triples.
fn column(name: &str) -> Vec<(Term, Term, Term)> {
    vec![
        (dwh(name), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
        (dwh(name), Term::iri(vocab::cs::HAS_NAME), Term::plain(name)),
    ]
}

fn ontology() -> Extract {
    Extract::new(
        "protege",
        vec![
            (dm("Application1_View_Column"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            (dm("Attribute"), Term::iri(vocab::rdfs::LABEL), Term::plain("Attribute")),
            (dm("Application1_View_Column"), Term::iri(vocab::rdfs::LABEL), Term::plain("Column")),
        ],
    )
}

/// Instances a keyword search finds, with the index (re)built first —
/// so the answer reflects the graph, inferred classes included.
fn found(w: &mut MetadataWarehouse, keyword: &str) -> usize {
    if !w.has_semantic_index() {
        w.build_semantic_index().unwrap();
    }
    w.search(&SearchRequest::new(keyword)).unwrap().instance_count()
}

/// Whether the `Attribute` group — reachable only through the inferred
/// superclass — lists `keyword`'s column.
fn inferred(w: &mut MetadataWarehouse, keyword: &str) -> bool {
    found(w, keyword);
    w.search(&SearchRequest::new(keyword)).unwrap().group("Attribute").is_some()
}

/// What every read must show, given which columns are committed.
fn assert_state(
    w: &mut MetadataWarehouse,
    at: &str,
    edges: usize,
    present: &[&str],
    absent: &[&str],
) {
    assert_eq!(w.stats().unwrap().edges, edges, "{at}: edge count");
    for name in present {
        assert_eq!(found(w, name), 1, "{at}: committed column {name} missing");
        assert!(inferred(w, name), "{at}: {name} lost its inferred class");
    }
    for name in absent {
        assert_eq!(found(w, name), 0, "{at}: unacknowledged column {name} visible");
    }
}

#[test]
fn failed_writes_stay_invisible_now_later_and_after_reopen() {
    failpoint::reset();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mdw-phantom-write-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = 3 + 2; // ontology + alpha

    {
        let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
        w.ingest(vec![ontology(), Extract::new("scanner", column("alpha"))]).unwrap();
        w.build_semantic_index().unwrap();
        let derived = w.derived_count();

        // A failing ingest: not acknowledged, not visible.
        failpoint::arm("journal::append", FailSpec::Once);
        assert!(w.ingest(vec![Extract::new("late-scanner", column("bravo"))]).is_err());
        assert!(w.has_semantic_index(), "a failed ingest changed nothing");
        assert_eq!(w.derived_count(), derived);
        assert_state(&mut w, "after failed ingest", base, &["alpha"], &["bravo"]);

        // The next successful write publishes only itself.
        w.ingest(vec![Extract::new("other-scanner", column("charlie"))]).unwrap();
        assert_state(&mut w, "after next ingest", base + 2, &["alpha", "charlie"], &["bravo"]);

        // A failing resync that would drop alpha and add delta.
        let derived = w.derived_count();
        failpoint::arm("journal::append", FailSpec::Once);
        assert!(w.resync(Extract::new("scanner", column("delta"))).is_err());
        assert!(w.has_semantic_index(), "a failed resync keeps the index");
        assert_eq!(w.derived_count(), derived);
        assert_state(
            &mut w,
            "after failed resync",
            base + 2,
            &["alpha", "charlie"],
            &["bravo", "delta"],
        );

        // The next successful write: still no trace of the failed resync.
        w.insert_fact(&dwh("echo"), &Term::iri(vocab::cs::HAS_NAME), &Term::plain("echo"))
            .unwrap();
        assert_state(
            &mut w,
            "after next write",
            base + 3,
            &["alpha", "charlie"],
            &["bravo", "delta"],
        );
        // Provenance did not record the failed resync either: re-delivering
        // the scanner's committed extract changes nothing.
        let report = w.resync(Extract::new("scanner", column("alpha"))).unwrap();
        assert_eq!((report.added, report.removed), (0, 0));
        failpoint::reset();
    }

    let (mut reopened, _) = MetadataWarehouse::open(&dir).unwrap();
    assert_state(
        &mut reopened,
        "after reopen",
        base + 3,
        &["alpha", "charlie"],
        &["bravo", "delta"],
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
