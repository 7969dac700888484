//! Ablation: the three covering index permutations vs. a naive full scan.
//!
//! DESIGN.md calls the SPO/POS/OSP permutations out as the core storage
//! design choice (mirroring Oracle's RDF model-table indexes). This bench
//! quantifies the decision: the same triple patterns answered through the
//! routed permutation vs. scanning all triples and filtering — the
//! difference is what the paper's "additional indexes for semantic web
//! reasoning" buy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mdw_bench::setup::load_scale;
use mdw_corpus::Scale;
use mdw_rdf::term::Term;
use mdw_rdf::triple::TriplePattern;
use mdw_rdf::vocab;

fn bench_index_vs_fullscan(c: &mut Criterion) {
    let loaded = load_scale(Scale::Medium);
    let store = loaded.warehouse.published();
    let graph = store.model(loaded.warehouse.model_name()).unwrap();
    let dict = store.dict();

    let ty = dict.lookup(&Term::iri(vocab::rdf::TYPE)).unwrap();
    let has_name = dict.lookup(&Term::iri(vocab::cs::HAS_NAME)).unwrap();
    let mapped = dict.lookup(&Term::iri(vocab::cs::IS_MAPPED_TO)).unwrap();
    let item = dict
        .lookup(&loaded.corpus.chain_start)
        .expect("chain start interned");
    let column = dict.lookup(&Term::iri(vocab::cs::dm("Column"))).unwrap();

    let patterns: Vec<(&str, TriplePattern)> = vec![
        ("P_bound/hasName", TriplePattern::with_p(has_name)),
        ("SP_bound/item_types", TriplePattern::with_sp(item, ty)),
        ("PO_bound/type_Column", TriplePattern::with_po(ty, column)),
        ("S_bound/item_out_edges", TriplePattern::with_s(item)),
        ("O_bound/into_item", TriplePattern::with_o(item)),
        ("P_bound/isMappedTo", TriplePattern::with_p(mapped)),
    ];

    let mut group = c.benchmark_group("ablation_index");
    for (name, pat) in patterns {
        group.bench_with_input(BenchmarkId::new("indexed", name), &pat, |b, &pat| {
            b.iter(|| graph.scan(pat).count())
        });
        group.bench_with_input(BenchmarkId::new("fullscan", name), &pat, |b, &pat| {
            b.iter(|| graph.iter().filter(|t| pat.matches(*t)).count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_vs_fullscan);
criterion_main!(benches);
