//! Set-up shared by every workload: generate the corpus, ingest it, build
//! the semantic index, and take the first freeze and the first entailed
//! view, each timed as its own phase (and traced as a span around the
//! public call). Also the run metadata every result carries.

use std::time::Instant;

use mdw_core::MetadataWarehouse;
use mdw_corpus::{generate, Corpus, CorpusConfig};

use crate::trace::{Tracer, NONE};

/// Request id under which set-up spans are recorded.
pub const SETUP_REQUEST: u64 = 0;

/// Phase times of one set-up. `warmup_ms` is the workload's first request
/// on each route, which users of a fresh server pay once.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    pub generate_s: f64,
    pub ingest_s: f64,
    pub materialize_s: f64,
    pub freeze_ms: f64,
    pub entailed_ms: f64,
    pub warmup_ms: f64,
}

impl Phases {
    /// `setup_s`: everything until the first request can be served.
    pub fn total_s(&self) -> f64 {
        self.generate_s
            + self.ingest_s
            + self.materialize_s
            + (self.freeze_ms + self.entailed_ms + self.warmup_ms) / 1e3
    }
}

/// A warehouse ready to serve, with the corpus it was loaded from.
pub struct Loaded {
    pub warehouse: MetadataWarehouse,
    pub corpus: Corpus,
    pub phases: Phases,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Generates, ingests, indexes and freezes. The corpus copy the benchmark
/// keeps for building requests is made outside the timed phases.
pub fn load(config: &CorpusConfig, tracer: &Tracer) -> Loaded {
    let mut phases = Phases::default();
    let root = tracer.open("setup", SETUP_REQUEST, NONE);

    let t = Instant::now();
    let corpus = tracer.time("mdw-corpus.generate", SETUP_REQUEST, root, || {
        generate(config)
    });
    phases.generate_s = secs(t);

    let extracts = corpus.clone().into_extracts();
    let mut warehouse = MetadataWarehouse::new();
    let t = Instant::now();
    let span = tracer.open("mdw-core.ingest", SETUP_REQUEST, root);
    let report = warehouse
        .ingest(extracts)
        .expect("the generated corpus ingests");
    tracer.close(span, &[("staged", report.staged as f64)]);
    phases.ingest_s = secs(t);

    let t = Instant::now();
    let span = tracer.open("mdw-reason.materialize", SETUP_REQUEST, root);
    let stats = warehouse
        .build_semantic_index()
        .expect("the semantic index builds");
    tracer.close(span, &[("derived", stats.derived as f64)]);
    phases.materialize_s = secs(t);

    let t = Instant::now();
    tracer.time("mdw-rdf.freeze", SETUP_REQUEST, root, || {
        drop(warehouse.context())
    });
    phases.freeze_ms = secs(t) * 1e3;

    let t = Instant::now();
    tracer.time("mdw-rdf.entailed", SETUP_REQUEST, root, || {
        warehouse.entailed().expect("index built above");
    });
    phases.entailed_ms = secs(t) * 1e3;

    tracer.close(root, &[]);
    Loaded {
        warehouse,
        corpus,
        phases,
    }
}

/// Resident set size of this process, in MiB.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark runs on: `MDW_GIT_REV` if set, else read from
/// `.git` when the checkout is a repository, else `unknown`.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("MDW_GIT_REV") {
        return rev;
    }
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A small deterministic generator (splitmix64) for request inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct indices of `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_distinct() {
        let a = Rng::new(5).distinct(10, 4);
        assert_eq!(a, Rng::new(5).distinct(10, 4));
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }
}
