//! F4 — semantic-index benchmarks: full OWLPRIME materialization (the
//! "OWL index" build of Figure 4) and the incremental extension used when a
//! single fact arrives between releases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mdw_corpus::{generate, CorpusConfig, Scale};
use mdw_rdf::term::Term;
use mdw_rdf::triple::Triple;
use mdw_rdf::vocab;
use mdw_rdf::Store;
use mdw_reason::{Materialization, Rulebase};

fn loaded_store(scale: Scale) -> (Store, Rulebase) {
    let corpus = generate(&CorpusConfig::preset(scale));
    let mut store = Store::new();
    store.create_model("m").unwrap();
    let rb = Rulebase::owlprime(store.dict_mut());
    for extract in corpus.into_extracts() {
        for (s, p, o) in &extract.triples {
            store.insert("m", s, p, o).unwrap();
        }
    }
    (store, rb)
}

fn bench_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_materialize");
    group.sample_size(10);
    for scale in [Scale::Small, Scale::Medium] {
        let (store, rb) = loaded_store(scale);
        let edges = store.model("m").unwrap().len();
        group.throughput(Throughput::Elements(edges as u64));
        group.bench_with_input(
            BenchmarkId::new("owlprime", format!("{scale:?}/{edges}e")),
            &(&store, &rb),
            |b, (store, rb)| {
                b.iter(|| {
                    let m = Materialization::materialize(
                        &store.model("m").unwrap().freeze(),
                        rb,
                        store.dict(),
                    );
                    m.derived().len()
                })
            },
        );
    }
    group.finish();
}

fn bench_rdfs_vs_owlprime(c: &mut Criterion) {
    // Ablation: the RDFS core vs. the full OWLPRIME subset.
    let mut group = c.benchmark_group("inference_rulebase_ablation");
    group.sample_size(10);
    let corpus = generate(&CorpusConfig::medium());
    let mut store = Store::new();
    store.create_model("m").unwrap();
    let rdfs = Rulebase::rdfs(store.dict_mut());
    let owl = Rulebase::owlprime(store.dict_mut());
    for extract in corpus.into_extracts() {
        for (s, p, o) in &extract.triples {
            store.insert("m", s, p, o).unwrap();
        }
    }
    for (name, rb) in [("rdfs", &rdfs), ("owlprime", &owl)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                Materialization::materialize(&store.model("m").unwrap().freeze(), rb, store.dict())
                    .derived()
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_incremental_extend(c: &mut Criterion) {
    // One new typed column arriving after the index is built — the hot path
    // of insert_fact between releases.
    let (mut store, rb) = loaded_store(Scale::Medium);
    let m0 = Materialization::materialize(&store.model("m").unwrap().freeze(), &rb, store.dict());
    let new_subject = Term::iri(vocab::cs::dwh("bench/new_col"));
    let ty = Term::iri(vocab::rdf::TYPE);
    let class = Term::iri(vocab::cs::dm("Column"));
    store.insert("m", &new_subject, &ty, &class).unwrap();
    let t = Triple::new(
        store.encode(&new_subject).unwrap(),
        store.encode(&ty).unwrap(),
        store.encode(&class).unwrap(),
    );
    c.bench_function("inference_incremental/one_fact", |b| {
        b.iter(|| {
            let mut m = m0.clone();
            m.extend(&store.model("m").unwrap().freeze(), &rb, store.dict(), &[t]);
            m.stats().derived
        })
    });
}

criterion_group!(benches, bench_materialize, bench_rdfs_vs_owlprime, bench_incremental_extend);
criterion_main!(benches);
