//! Robustness benchmark: resilient-ingest throughput under injected
//! extract failures.
//!
//! Measures how much fault tolerance costs: the same corpus is ingested
//! through `ingest_resilient` with 0%, 1% and 10% of extract deliveries
//! failing transiently (deterministic `FailSpec::Probability` injection),
//! so failed deliveries are retried with (test-clock) backoff rather than
//! slept through. The 0% row is the overhead baseline against plain
//! `ingest`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mdw_core::resilience::{failpoint, FailSpec, RetryPolicy, ManualTime};
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{generate, CorpusConfig};

fn bench_resilient_ingest(c: &mut Criterion) {
    let corpus = generate(&CorpusConfig::small());
    let extracts = corpus.into_extracts();
    let triples: usize = extracts.iter().map(|e| e.len()).sum();

    let mut group = c.benchmark_group("robustness");
    group.sample_size(10);
    group.throughput(Throughput::Elements(triples as u64));

    for failure_pct in [0u8, 1, 10] {
        group.bench_with_input(
            BenchmarkId::new("resilient_ingest", format!("{failure_pct}pct_faults/{triples}t")),
            &extracts,
            |b, extracts| {
                let policy = RetryPolicy::default();
                b.iter(|| {
                    failpoint::reset();
                    if failure_pct > 0 {
                        failpoint::arm(
                            "ingest::extract",
                            FailSpec::Probability { pct: failure_pct, seed: 0x5eed },
                        );
                    }
                    let clock = ManualTime::new();
                    let mut w = MetadataWarehouse::new();
                    let report = w
                        .ingest_resilient(extracts.clone(), &policy, &clock)
                        .expect("resilient ingest");
                    failpoint::reset();
                    report.loaded()
                })
            },
        );
    }
    group.finish();
}

fn bench_plain_ingest_baseline(c: &mut Criterion) {
    // Same corpus through the non-resilient path, for the overhead delta.
    let corpus = generate(&CorpusConfig::small());
    let extracts = corpus.into_extracts();
    let triples: usize = extracts.iter().map(|e| e.len()).sum();

    let mut group = c.benchmark_group("robustness");
    group.sample_size(10);
    group.throughput(Throughput::Elements(triples as u64));
    group.bench_with_input(
        BenchmarkId::new("plain_ingest", format!("baseline/{triples}t")),
        &extracts,
        |b, extracts| {
            b.iter(|| {
                let mut w = MetadataWarehouse::new();
                let report = w.ingest(extracts.clone()).expect("ingest");
                report.load.loaded
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_resilient_ingest, bench_plain_ingest_baseline);
criterion_main!(benches);
