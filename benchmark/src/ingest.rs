//! `release_ingest`: the release cycle's write side, in process through
//! `MetadataWarehouse`'s public API. A stream of additive deliveries —
//! relocated corpus slices of about 10.5k triples at Table-I scale, each
//! its own source — is resynced one after another; each is timed from the
//! `resync` call until a probe search finds the batch's marker and a probe
//! lineage walk reaches the end of the batch's mapping chain. Steady-state
//! reads of the base corpus run between batches. A replacing delivery
//! retracts the first batch's marker and chain head; the caller rebuilds
//! the semantic index (the warehouse drops it on any removal) and the
//! probes must no longer see the retracted facts.

use std::time::{Duration, Instant};

use mdw_core::lineage::{self, LineageRequest};
use mdw_core::{Extract, MetadataWarehouse, SearchRequest};
use mdw_corpus::names::BUSINESS_WORDS;
use mdw_corpus::{generate, Corpus, CorpusConfig};
use mdw_rdf::{vocab, Term};

use crate::setup::Rng;
use crate::trace::{SpanId, Tracer, NONE};

/// One release delivery.
pub struct Batch {
    pub source: String,
    pub triples: Vec<(Term, Term, Term)>,
    marker: Term,
    marker_name: String,
    chain_start: Term,
    chain_end: Term,
}

impl Batch {
    /// Delivery `index` of a run: a relocated slice of the corpus shape at
    /// 1/100 of its entity counts, plus one marker item the probe search
    /// looks for.
    pub fn new(base: &CorpusConfig, seed: u64, index: usize) -> Batch {
        let config = base
            .clone()
            .shrunk_by(100)
            .with_seed(seed.wrapping_mul(1_000_003).wrapping_add(index as u64));
        let slice = generate(&config).relocate(&format!("release{index}"));
        let marker = Term::iri(vocab::cs::dwh(&format!("release{index}/marker")));
        let marker_name = format!("relmark{index:05}x");
        let mut triples = slice.facts.triples;
        let dm = |l: &str| Term::iri(vocab::cs::dm(l));
        triples.push((marker.clone(), Term::iri(vocab::rdf::TYPE), dm("Column")));
        triples.push((marker.clone(), Term::iri(vocab::rdf::TYPE), dm("DWH_Item")));
        triples.push((
            marker.clone(),
            Term::iri(vocab::cs::HAS_NAME),
            Term::plain(marker_name.clone()),
        ));
        Batch {
            source: format!("release/{index}"),
            triples,
            marker,
            marker_name,
            chain_start: slice.chain_start,
            chain_end: slice.chain_end,
        }
    }

    /// The replacing re-delivery of this batch: the same source without
    /// the marker item and without the chain head's outgoing mappings.
    pub fn retraction(&self) -> Vec<(Term, Term, Term)> {
        let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
        self.triples
            .iter()
            .filter(|(s, p, _)| *s != self.marker && !(*s == self.chain_start && *p == mapped))
            .cloned()
            .collect()
    }
}

/// The probe after every delivery: a search for the batch's marker name
/// and a downstream walk from its chain head. Returns (instances the
/// search found, whether the marker is among them, whether the walk
/// reached the chain end). In a traced run the walk goes through
/// `lineage::trace` so it lands in that function's span.
fn probe(
    w: &MetadataWarehouse,
    batch: &Batch,
    tracer: &Tracer,
    request: u64,
    parent: SpanId,
) -> Result<(usize, bool, bool), String> {
    let span = tracer.open("mdw-core.search", request, parent);
    let found = w
        .search(&SearchRequest::new(batch.marker_name.as_str()))
        .map_err(|e| e.to_string())?;
    tracer.close(span, &[("hits", found.instance_count() as f64)]);
    if !found.completeness.is_complete() {
        return Err("probe search truncated".to_string());
    }
    let has_marker = found
        .groups
        .iter()
        .flat_map(|g| &g.hits)
        .any(|h| h.instance == batch.marker);
    let request_obj = LineageRequest::downstream(batch.chain_start.clone());
    let walked = if tracer.enabled() {
        let view = w.entailed().map_err(|e| e.to_string())?;
        let ctx = w.context();
        let span = tracer.open("mdw-core.lineage_trace", request, parent);
        let r = lineage::trace(&view, &ctx, &request_obj);
        tracer.close(
            span,
            &[
                ("paths_explored", r.paths_explored as f64),
                ("endpoints", r.endpoints.len() as f64),
            ],
        );
        r
    } else {
        w.lineage(&request_obj).map_err(|e| e.to_string())?
    };
    if !walked.completeness.is_complete() {
        return Err("probe lineage truncated".to_string());
    }
    Ok((
        found.instance_count(),
        has_marker,
        walked.endpoint(&batch.chain_end).is_some(),
    ))
}

/// After a delivery: rebuild the index if the warehouse dropped it, and in
/// a traced run take the first freeze and the first entailed view as their
/// own spans (untraced, the probe pays them inside its first call).
fn publish(
    w: &mut MetadataWarehouse,
    tracer: &Tracer,
    request: u64,
    parent: SpanId,
) -> Result<(), String> {
    if !w.has_semantic_index() {
        let span = tracer.open("mdw-reason.materialize", request, parent);
        let stats = w.build_semantic_index().map_err(|e| e.to_string())?;
        tracer.close(span, &[("derived", stats.derived as f64)]);
    }
    if tracer.enabled() {
        tracer.time("mdw-rdf.freeze", request, parent, || drop(w.context()));
        let view = tracer.time("mdw-rdf.entailed", request, parent, || {
            w.entailed().map(drop)
        });
        view.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// What one delivery showed: ms from `resync` until the probes returned,
/// the sync report, and what the probes saw.
struct Applied {
    ms: f64,
    added: usize,
    removed: usize,
    instances: usize,
    has_marker: bool,
    reached: bool,
}

/// Resyncs `batch.source` with `triples`, publishes, and probes, under a
/// root span and a `resync` span of the given names.
fn apply(
    w: &mut MetadataWarehouse,
    batch: &Batch,
    triples: Vec<(Term, Term, Term)>,
    (root_name, resync_name): (&'static str, &'static str),
    tracer: &Tracer,
    request: u64,
) -> Result<Applied, String> {
    let extract = Extract::new(batch.source.clone(), triples);
    let start = Instant::now();
    let root = tracer.open(root_name, request, NONE);
    let outcome = (|| {
        let span = tracer.open(resync_name, request, root);
        let report = w.resync(extract);
        let counts = report.as_ref().map_or(Vec::new(), |r| {
            vec![("added", r.added as f64), ("removed", r.removed as f64)]
        });
        tracer.close(span, &counts);
        let report = report.map_err(|e| e.to_string())?;
        publish(w, tracer, request, root)?;
        let (instances, has_marker, reached) = probe(w, batch, tracer, request, root)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(Applied {
            ms,
            added: report.added,
            removed: report.removed,
            instances,
            has_marker,
            reached,
        })
    })();
    tracer.close(root, &[]);
    outcome
}

/// Delivers `batch` additively; returns ms until the probes see it.
pub fn deliver(
    w: &mut MetadataWarehouse,
    batch: &Batch,
    tracer: &Tracer,
    request: u64,
) -> Result<f64, String> {
    let a = apply(
        w,
        batch,
        batch.triples.clone(),
        ("request.add", "mdw-core.resync_add"),
        tracer,
        request,
    )?;
    if a.added == 0 || a.removed != 0 || a.instances != 1 || !a.has_marker || !a.reached {
        return Err(format!(
            "{}: added {}, removed {}, probe found {} instances (marker among them: {}), chain end reached: {}",
            batch.source, a.added, a.removed, a.instances, a.has_marker, a.reached
        ));
    }
    Ok(a.ms)
}

/// Re-delivers `batch` with its retraction; returns ms until the probes
/// stop seeing the retracted facts, index rebuild included.
pub fn replace(
    w: &mut MetadataWarehouse,
    batch: &Batch,
    tracer: &Tracer,
    request: u64,
) -> Result<f64, String> {
    let a = apply(
        w,
        batch,
        batch.retraction(),
        ("request.replace", "mdw-core.resync_replace"),
        tracer,
        request,
    )?;
    if a.removed == 0 || a.instances != 0 || a.reached {
        return Err(format!(
            "{}: removed {}, probe still found {} instances, chain end reached: {}",
            batch.source, a.removed, a.instances, a.reached
        ));
    }
    Ok(a.ms)
}

/// Base-corpus reads that run between deliveries: a broad search and a
/// downstream walk from an inbound chain item.
pub struct SteadyReads {
    terms: Vec<String>,
    items: Vec<Term>,
    /// Each walk's endpoint count. Additive deliveries live in their own
    /// namespace, so they never change it.
    endpoints: Vec<usize>,
}

impl SteadyReads {
    pub fn new(corpus: &Corpus, seed: u64) -> SteadyReads {
        let mut rng = Rng::new(seed ^ 0x1e57);
        let terms = rng
            .distinct(BUSINESS_WORDS.len(), 4)
            .into_iter()
            .map(|i| BUSINESS_WORDS[i].to_string())
            .collect();
        let items = (0..4)
            .map(|_| {
                Term::iri(vocab::cs::dwh(&format!(
                    "dwh_stage0_item{}",
                    rng.below(corpus.config.items_per_stage)
                )))
            })
            .collect();
        SteadyReads {
            terms,
            items,
            endpoints: Vec::new(),
        }
    }

    /// The first read, unchecked: set-up's warm-up of both services.
    pub fn warm_up(&self, w: &MetadataWarehouse) -> Result<(), String> {
        w.search(&SearchRequest::new(self.terms[0].as_str()))
            .map_err(|e| e.to_string())?;
        w.lineage(&LineageRequest::downstream(self.items[0].clone()))
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Computes each walk's reference endpoint count.
    pub fn set_references(&mut self, w: &MetadataWarehouse) -> Result<(), String> {
        self.endpoints.clear();
        for item in &self.items {
            let r = w
                .lineage(&LineageRequest::downstream(item.clone()))
                .map_err(|e| e.to_string())?;
            if !r.completeness.is_complete() {
                return Err("steady-read reference truncated".to_string());
            }
            self.endpoints.push(r.endpoints.len());
        }
        Ok(())
    }

    /// Runs read `n`; returns its ms.
    pub fn run(&self, w: &MetadataWarehouse, n: usize) -> Result<f64, String> {
        let start = Instant::now();
        let found = w
            .search(&SearchRequest::new(
                self.terms[n % self.terms.len()].as_str(),
            ))
            .map_err(|e| e.to_string())?;
        let k = n % self.items.len();
        let walked = w
            .lineage(&LineageRequest::downstream(self.items[k].clone()))
            .map_err(|e| e.to_string())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if !found.completeness.is_complete() || found.instance_count() == 0 {
            return Err(format!("steady search {n} incomplete or empty"));
        }
        if !walked.completeness.is_complete() || walked.endpoints.len() != self.endpoints[k] {
            return Err(format!(
                "steady lineage {n}: {} endpoints, reference {}",
                walked.endpoints.len(),
                self.endpoints[k]
            ));
        }
        Ok(ms)
    }
}

/// What a delivery window produced.
#[derive(Default)]
pub struct Stream {
    /// Additive delivery latencies in ms (infinite when failed).
    pub visible: Vec<f64>,
    pub steady: Vec<f64>,
    pub batches_per_s: f64,
    pub errors: Vec<String>,
    /// The first delivery, which the replacing delivery retracts from.
    pub first: Option<Batch>,
    pub steady_attempted: u64,
}

/// Delivers batches `first..` for `length`, each followed by one steady
/// read, one at a time (a single writer in a closed loop).
pub fn stream(
    w: &mut MetadataWarehouse,
    base: &CorpusConfig,
    seed: u64,
    first: usize,
    reads: &SteadyReads,
    length: Duration,
    tracer: &Tracer,
) -> Stream {
    let mut out = Stream::default();
    let start = Instant::now();
    let mut last = start;
    let mut index = first;
    while start.elapsed() < length {
        let batch = Batch::new(base, seed, index);
        match deliver(w, &batch, tracer, index as u64 + 1) {
            Ok(ms) => out.visible.push(ms),
            Err(e) => {
                out.visible.push(f64::INFINITY);
                out.errors.push(e);
            }
        }
        out.steady_attempted += 1;
        match reads.run(w, index) {
            Ok(ms) => out.steady.push(ms),
            Err(e) => out.errors.push(e),
        }
        last = Instant::now();
        out.first.get_or_insert(batch);
        index += 1;
    }
    let ok = out.visible.iter().filter(|v| v.is_finite()).count() as f64;
    let busy = (last - start).as_secs_f64();
    out.batches_per_s = if busy > 0.0 { ok / busy } else { 0.0 };
    out
}
