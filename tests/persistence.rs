//! Persistence round trip across the whole stack: corpus → durable
//! warehouse → checkpoint → reopen → the same answers as a warehouse that
//! never touched the disk.

use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::search::SearchRequest;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{generate, CorpusConfig};

#[test]
fn saved_warehouse_answers_identically_after_reload() {
    let corpus = generate(&CorpusConfig::small());
    let chain_start = corpus.chain_start.clone();
    let mut original = MetadataWarehouse::new();
    original.ingest(corpus.clone().into_extracts()).unwrap();
    original.build_semantic_index().unwrap();

    let dir = std::env::temp_dir().join(format!("mdw-e2e-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut durable, _) = MetadataWarehouse::open(&dir).unwrap();
        durable.ingest(corpus.into_extracts()).unwrap();
        durable.snapshot("2009.1").unwrap();
        let report = durable.checkpoint().unwrap();
        // The historization model is persisted alongside the current one.
        assert_eq!(report.models.len(), 2);
    }

    let (mut reloaded, recovery) = MetadataWarehouse::open(&dir).unwrap();
    assert_eq!(recovery.replayed_batches, 0, "the checkpoint folded the journal");
    // The historized version's model survives; the registry starts empty.
    let version = reloaded.published().model("HIST_2009.1").unwrap();
    assert_eq!(version.len(), original.stats().unwrap().edges);
    assert!(reloaded.history().is_empty());
    reloaded.build_semantic_index().unwrap();

    // Same statistics.
    assert_eq!(
        original.stats().unwrap().edges,
        reloaded.stats().unwrap().edges
    );
    assert_eq!(original.derived_count(), reloaded.derived_count());

    // Same search answer, group for group.
    let a = original.search(&SearchRequest::new("customer")).unwrap();
    let b = reloaded.search(&SearchRequest::new("customer")).unwrap();
    assert_eq!(a.instance_count(), b.instance_count());
    let labels = |r: &metadata_warehouse::core::search::SearchResults| {
        r.groups.iter().map(|g| (g.label.clone(), g.count())).collect::<Vec<_>>()
    };
    assert_eq!(labels(&a), labels(&b));

    // Same lineage answer.
    let la = original
        .lineage(&LineageRequest::downstream(chain_start.clone()))
        .unwrap();
    let lb = reloaded
        .lineage(&LineageRequest::downstream(chain_start))
        .unwrap();
    let eps = |l: &metadata_warehouse::core::lineage::LineageResult| {
        l.endpoints.iter().map(|e| (e.node.clone(), e.distance)).collect::<Vec<_>>()
    };
    assert_eq!(eps(&la), eps(&lb));

    std::fs::remove_dir_all(&dir).unwrap();
}
