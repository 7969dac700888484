//! The read workloads, `analyst_reads` and `keyword_answer`: closed-loop
//! clients on keep-alive connections against an in-process `mdw-serve`
//! server. Every response is checked against a reference computed in
//! process during set-up. In a traced run each request is replayed in
//! process through the crates' public functions, each call inside a span,
//! so the wire cost and each layer's share can be told apart.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mdw_core::answer::{plan_candidates, AnswerRequest};
use mdw_core::lineage::{self, LineageRequest};
use mdw_core::{MetadataWarehouse, QueryBudget, SearchRequest};
use mdw_corpus::names::{BUSINESS_WORDS, CRYPTIC_PREFIXES};
use mdw_corpus::{eval_cases, CaseKind, Corpus};
use mdw_rdf::{vocab, Term};
use mdw_serve::client::WireResponse;
use mdw_serve::{serve, ServerConfig, ServerHandle};
use mdw_sparql::SemMatch;

use crate::json::Json;
use crate::setup::Rng;
use crate::trace::{SpanId, Tracer, NONE};
use crate::wire::{encode, Conn};

/// A read route of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Search,
    Lineage,
    Sparql,
    Answer,
}

impl Route {
    pub const ALL: [Route; 4] = [Route::Search, Route::Lineage, Route::Sparql, Route::Answer];

    pub fn name(self) -> &'static str {
        match self {
            Route::Search => "search",
            Route::Lineage => "lineage",
            Route::Sparql => "sparql",
            Route::Answer => "answer",
        }
    }

    /// Span of one wire round trip on this route.
    pub fn wire_span(self) -> &'static str {
        match self {
            Route::Search => "mdw-serve.search",
            Route::Lineage => "mdw-serve.lineage",
            Route::Sparql => "mdw-serve.sparql",
            Route::Answer => "mdw-serve.answer",
        }
    }

    /// Root span of one request: the wire round trip and its in-process
    /// replay are its children.
    pub fn request_span(self) -> &'static str {
        match self {
            Route::Search => "request.search",
            Route::Lineage => "request.lineage",
            Route::Sparql => "request.sparql",
            Route::Answer => "request.answer",
        }
    }
}

/// One distinct request.
#[derive(Debug, Clone)]
pub enum Query {
    Search(String),
    Lineage { item: String, up: bool },
    Sparql(String),
    Answer(String),
}

impl Query {
    pub fn route(&self) -> Route {
        match self {
            Query::Search(_) => Route::Search,
            Query::Lineage { .. } => Route::Lineage,
            Query::Sparql(_) => Route::Sparql,
            Query::Answer(_) => Route::Answer,
        }
    }

    fn method(&self) -> &'static str {
        match self {
            Query::Answer(_) => "POST",
            _ => "GET",
        }
    }

    fn target(&self) -> String {
        match self {
            Query::Search(term) => format!("/search?q={}", encode(term)),
            Query::Lineage { item, up } => {
                format!(
                    "/lineage?item={}&dir={}",
                    encode(item),
                    if *up { "up" } else { "down" }
                )
            }
            Query::Sparql(pattern) => format!("/sparql?query={}", encode(pattern)),
            Query::Answer(keywords) => format!("/answer?q={}", encode(keywords)),
        }
    }

    /// The exchange on `conn`: request written to last byte read.
    pub fn send(&self, conn: &mut Conn) -> Result<crate::wire::Exchange, String> {
        conn.exchange(self.method(), &self.target())
    }
}

/// What a correct response shows, computed in process.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub rows: usize,
    pub plan: Option<String>,
    pub candidates: Option<Vec<(String, u64, usize)>>,
}

fn lineage_request(item: &str, up: bool) -> LineageRequest {
    let start = Term::iri(vocab::cs::dwh(item));
    if up {
        LineageRequest::upstream(start)
    } else {
        LineageRequest::downstream(start)
    }
}

/// The query the server's `/sparql` route builds from a pattern.
fn sem_match(pattern: &str) -> SemMatch {
    SemMatch::new(pattern)
        .alias("dm", vocab::cs::DM)
        .alias("dt", vocab::cs::DT)
        .alias("dwh", vocab::cs::DWH)
        .rulebase("OWLPRIME")
}

/// The reference result of `query`, through the warehouse's public API.
/// A reference that is itself cut short is an error: the workload must
/// only hold requests that complete.
pub fn reference(w: &MetadataWarehouse, query: &Query) -> Result<Expected, String> {
    let err = |e: mdw_core::MdwError| format!("{query:?}: {e}");
    let (rows, complete, plan, candidates) = match query {
        Query::Search(term) => {
            let r = w.search(&SearchRequest::new(term.as_str())).map_err(err)?;
            (
                r.groups.iter().map(|g| g.hits.len()).sum(),
                r.completeness.is_complete(),
                None,
                None,
            )
        }
        Query::Lineage { item, up } => {
            let r = w.lineage(&lineage_request(item, *up)).map_err(err)?;
            (r.endpoints.len(), r.completeness.is_complete(), None, None)
        }
        Query::Sparql(pattern) => {
            let (out, report) = w
                .sem_match_explained(&sem_match(pattern), &QueryBudget::unlimited(), true)
                .map_err(err)?;
            (
                out.rows.len(),
                out.completeness.is_complete(),
                Some(report.summary()),
                None,
            )
        }
        Query::Answer(keywords) => {
            let r = w
                .answer(&AnswerRequest::new(keywords.as_str()))
                .map_err(err)?;
            let candidates = r
                .executed
                .iter()
                .map(|e| (e.sparql.clone(), e.rank, e.rows))
                .collect();
            (
                r.answers.len(),
                r.completeness.is_complete(),
                None,
                Some(candidates),
            )
        }
    };
    if !complete {
        return Err(format!("{query:?}: the in-process reference is truncated"));
    }
    Ok(Expected {
        rows,
        plan,
        candidates,
    })
}

/// Checks one response against its reference: a strict-client complete
/// frame, status 200, a `complete` summary, and row count and summary
/// equal to the reference. Returns the body bytes the summary reports.
pub fn check(resp: &WireResponse, expected: &Expected) -> Result<f64, String> {
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    if !resp.complete_frame {
        return Err("frame not complete".to_string());
    }
    let lines = resp.lines();
    let summary_line = resp.summary_line().ok_or("no summary trailer")?;
    let doc = Json::parse(summary_line)?;
    let summary = doc.get("summary").ok_or("no summary object")?;
    let field = |k: &str| summary.get(k).ok_or_else(|| format!("summary lacks {k}"));
    if field("complete")?.as_bool() != Some(true) || field("truncated")? != &Json::Null {
        return Err(format!("answer not complete: {summary_line}"));
    }
    if field("degraded")?.as_bool() != Some(false) {
        return Err("answer degraded".to_string());
    }
    let rows = field("rows")?.as_f64().ok_or("rows not a number")? as usize;
    if rows != expected.rows || lines.len() - 1 != expected.rows {
        return Err(format!(
            "{} rows framed, summary says {rows}, reference has {}",
            lines.len() - 1,
            expected.rows
        ));
    }
    if let Some(plan) = &expected.plan {
        if field("plan")?.as_str() != Some(plan.as_str()) {
            return Err(format!("plan differs from the reference {plan:?}"));
        }
    }
    if let Some(candidates) = &expected.candidates {
        let got: Option<Vec<(String, u64, usize)>> = field("candidates")?
            .as_array()
            .ok_or("candidates not an array")?
            .iter()
            .map(|c| {
                Some((
                    c.get("sparql")?.as_str()?.to_string(),
                    c.get("rank")?.as_f64()? as u64,
                    c.get("rows")?.as_f64()? as usize,
                ))
            })
            .collect();
        if got.as_ref() != Some(candidates) {
            return Err("executed candidates differ from the reference".to_string());
        }
    }
    field("bytes")?
        .as_f64()
        .ok_or_else(|| "bytes not a number".to_string())
}

/// The distinct requests of a workload and the order a client walks them.
pub struct Plan {
    pub queries: Vec<Query>,
    pub sequence: Vec<usize>,
}

impl Plan {
    /// Builds the walk from a slot pattern over per-slot pools, drawing
    /// each pool round-robin, for `rounds` repetitions of the pattern.
    fn from_pools(pools: Vec<Vec<Query>>, pattern: &[usize], rounds: usize) -> Plan {
        let mut queries = Vec::new();
        let mut ids: Vec<Vec<usize>> = Vec::new();
        for pool in pools {
            ids.push((queries.len()..queries.len() + pool.len()).collect());
            queries.extend(pool);
        }
        let mut next = vec![0usize; ids.len()];
        let mut sequence = Vec::new();
        for _ in 0..rounds {
            for &slot in pattern {
                if ids[slot].is_empty() {
                    continue;
                }
                sequence.push(ids[slot][next[slot] % ids[slot].len()]);
                next[slot] += 1;
            }
        }
        Plan { queries, sequence }
    }

    /// The first request of each route, in walk order.
    pub fn first_per_route(&self) -> Vec<usize> {
        let mut firsts: Vec<usize> = Vec::new();
        for &q in &self.sequence {
            if firsts
                .iter()
                .all(|&f| self.queries[f].route() != self.queries[q].route())
            {
                firsts.push(q);
            }
        }
        firsts
    }
}

/// `analyst_reads`: broad searches (every business word, about 12k rows
/// each at Table-I scale), narrow searches (a few to a few hundred rows),
/// lineage from chain items of every stage in both directions, and SPARQL
/// on the shapes of the paper's Listings 1 and 2. Of every ten requests
/// three are broad searches, two narrow searches, four lineage walks and
/// one SPARQL query, so the median falls inside the lineage walks and the
/// 90th percentile inside the broad searches, away from the edges between
/// request kinds.
pub fn analyst_plan(corpus: &Corpus, seed: u64) -> Plan {
    let c = &corpus.config;
    let mut rng = Rng::new(seed ^ 0xa11a);
    let broad: Vec<Query> = rng
        .distinct(BUSINESS_WORDS.len(), BUSINESS_WORDS.len())
        .into_iter()
        .map(|i| Query::Search(BUSINESS_WORDS[i].to_string()))
        .collect();
    let mut narrow = Vec::new();
    for _ in 0..2 {
        narrow.push(Query::Search(
            CRYPTIC_PREFIXES[rng.below(CRYPTIC_PREFIXES.len())].to_string(),
        ));
        narrow.push(Query::Search(format!(
            "DB_{:03}",
            rng.below(c.applications)
        )));
        narrow.push(Query::Search(format!("user_{:04}", rng.below(c.users))));
        narrow.push(Query::Search(format!(
            "IFC_{:03}_OUT",
            rng.below(c.applications)
        )));
    }
    let mut lineage = Vec::new();
    for _ in 0..2 {
        for stage in 0..c.dwh_stages {
            for up in [false, true] {
                let item = format!("dwh_stage{stage}_item{}", rng.below(c.items_per_stage));
                lineage.push(Query::Lineage { item, up });
            }
        }
    }
    let mut sparql = Vec::new();
    for _ in 0..4 {
        let app = rng.below(c.applications);
        let word = BUSINESS_WORDS[rng.below(BUSINESS_WORDS.len())];
        sparql.push(Query::Sparql(format!(
            "{{ ?object rdf:type ?c . ?c rdfs:label ?class . ?c rdfs:subClassOf dm:Application{app}_Item . \
             ?object dm:hasName ?term . FILTER(regex(?term, \"{word}\", \"i\")) }}"
        )));
        let app = rng.below(c.applications);
        sparql.push(Query::Sparql(format!(
            "{{ ?source_id dt:isMappedTo ?target_id . ?target_id rdf:type dm:Application{app}_Item . \
             ?target_id dm:hasName ?target_name }}"
        )));
    }
    let pattern = [0, 2, 1, 2, 0, 2, 3, 2, 0, 1];
    Plan::from_pools(vec![broad, narrow, lineage, sparql], &pattern, 12)
}

/// `keyword_answer`: keyword strings of the graded evaluation cases over
/// this corpus — four concept cases and one synonym-only case, single
/// keywords whose planning costs are alike, so a run's dozen answers give
/// a steady median. Type-listing cases are left out because some list
/// whole classes (tens of thousands of rows), which would make the wire,
/// not planning, the cost; multi-hop cases plan about twice as long, and
/// mixing them in makes the median jump between the two costs.
pub fn keyword_plan(corpus: &Corpus, seed: u64) -> Plan {
    let cases = eval_cases(corpus);
    let mut rng = Rng::new(seed ^ 0x50da);
    let mut pool = |kind: CaseKind, k: usize| -> Vec<Query> {
        let of_kind: Vec<&str> = cases
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.keywords.as_str())
            .collect();
        rng.distinct(of_kind.len(), k)
            .into_iter()
            .map(|i| Query::Answer(of_kind[i].to_string()))
            .collect()
    };
    let pools = vec![pool(CaseKind::Concept, 4), pool(CaseKind::SynonymOnly, 1)];
    let pattern = [0, 0, 1, 0, 0];
    Plan::from_pools(pools, &pattern, 1)
}

/// The server as the benchmark runs it: one worker per core, and limits
/// wide enough that no checked request is cut by a server default (the
/// broad searches exceed the default 10k-row cap).
pub fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        default_deadline: Duration::from_secs(60),
        max_deadline: Duration::from_secs(60),
        idle_timeout: Duration::from_secs(120),
        max_rows: 10_000_000,
        max_response_bytes: 1 << 30,
        ..ServerConfig::default()
    }
}

/// A served warehouse.
pub struct Served {
    pub warehouse: Arc<MetadataWarehouse>,
    pub server: ServerHandle,
}

impl Served {
    pub fn start(warehouse: MetadataWarehouse, workers: usize) -> Result<Served, String> {
        let warehouse = warehouse.into_shared();
        let server = serve(Arc::clone(&warehouse), server_config(workers))
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Served { warehouse, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the server and hands the warehouse back for writes.
    pub fn stop(self) -> Result<MetadataWarehouse, String> {
        let Served {
            warehouse,
            mut server,
        } = self;
        server.shutdown();
        drop(server);
        Arc::try_unwrap(warehouse)
            .map_err(|_| "the warehouse is still shared after shutdown".to_string())
    }
}

/// Sends the first request of every route once, on a fresh connection:
/// the warm-up that set-up pays. Returns the responses for checking once
/// the references exist.
pub fn warm_up(addr: SocketAddr, plan: &Plan) -> Result<Vec<(usize, WireResponse)>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    plan.first_per_route()
        .into_iter()
        .map(|q| Ok((q, plan.queries[q].send(&mut conn)?.response)))
        .collect()
}

/// References for every query, computed on `threads` threads.
pub fn references(
    w: &MetadataWarehouse,
    queries: &[Query],
    threads: usize,
) -> Result<Vec<Expected>, String> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|q| reference(w, q))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("reference thread panicked")?);
        }
        Ok(all)
    })
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub route: Route,
    /// Latency in ms; infinite when the request failed.
    pub ms: f64,
    pub ok: bool,
}

/// What a closed-loop window produced.
#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    /// Completed requests per second, summed over connections.
    pub ops_per_s: f64,
    pub errors: Vec<String>,
}

impl Window {
    pub fn latencies(&self, route: Option<Route>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| route.is_none_or(|r| s.route == r))
            .map(|s| s.ms)
            .collect()
    }
}

/// Runs `conns` closed-loop clients for `length`, each walking the plan's
/// sequence from its own offset. With tracing on, each request is also
/// replayed in process inside spans under the request's root span.
pub fn drive(
    served: &Served,
    plan: &Plan,
    refs: &[Expected],
    conns: usize,
    length: Duration,
    tracer: &Tracer,
    request_base: u64,
) -> Window {
    let barrier = Barrier::new(conns);
    let addr = served.addr();
    let w: &MetadataWarehouse = &served.warehouse;
    let per_conn: Vec<(Vec<Sample>, f64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut errors = Vec::new();
                    let connect = || Conn::connect(addr).map_err(|e| format!("connect: {e}"));
                    let mut conn = connect();
                    barrier.wait();
                    let start = Instant::now();
                    let mut last = start;
                    let mut at = c * plan.sequence.len() / conns;
                    let mut n = 0u64;
                    while start.elapsed() < length {
                        let q = plan.sequence[at % plan.sequence.len()];
                        at += 1;
                        n += 1;
                        let query = &plan.queries[q];
                        let request = request_base + ((c as u64) << 24) + n;
                        let route = query.route();
                        let outcome = match conn.as_mut() {
                            Ok(conn) => timed_request(conn, w, query, &refs[q], tracer, request),
                            Err(e) => Err(e.clone()),
                        };
                        match outcome {
                            Ok(ms) => {
                                last = Instant::now();
                                samples.push(Sample {
                                    route,
                                    ms,
                                    ok: true,
                                });
                            }
                            Err(e) => {
                                errors.push(format!("{query:?}: {e}"));
                                samples.push(Sample {
                                    route,
                                    ms: f64::INFINITY,
                                    ok: false,
                                });
                                // A broken exchange leaves the stream unusable.
                                conn = connect();
                            }
                        }
                    }
                    let ok = samples.iter().filter(|s| s.ok).count() as f64;
                    let busy = (last - start).as_secs_f64();
                    (samples, if busy > 0.0 { ok / busy } else { 0.0 }, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window::default();
    for (samples, rate, errors) in per_conn {
        window.samples.extend(samples);
        window.ops_per_s += rate;
        window.errors.extend(errors);
    }
    window
}

/// One checked request: the wire exchange inside its span (under the
/// request's root span) and, when tracing, the in-process replay, whose
/// time subtracted from the wire latency is the serving overhead. Returns
/// the wire latency in ms.
fn timed_request(
    conn: &mut Conn,
    w: &MetadataWarehouse,
    query: &Query,
    expected: &Expected,
    tracer: &Tracer,
    request: u64,
) -> Result<f64, String> {
    let route = query.route();
    let root = tracer.open(route.request_span(), request, NONE);
    let wire = tracer.open(route.wire_span(), request, root);
    let checked = query.send(conn).and_then(|ex| {
        Ok((
            ex.latency.as_secs_f64() * 1e3,
            check(&ex.response, expected)?,
        ))
    });
    let Ok((ms, bytes)) = checked else {
        tracer.close(wire, &[]);
        tracer.close(root, &[]);
        return checked.map(|(ms, _)| ms);
    };
    tracer.close(wire, &[("bytes", bytes)]);
    let mut counts = Vec::new();
    if tracer.enabled() {
        counts.push(("overhead_ms", ms - replay(w, query, tracer, request, root)));
    }
    tracer.close(root, &counts);
    Ok(ms)
}

/// Replays `query` in process through the crates' public functions, each
/// call in its own span. Returns the in-process time in ms.
pub fn replay(
    w: &MetadataWarehouse,
    query: &Query,
    tracer: &Tracer,
    request: u64,
    parent: SpanId,
) -> f64 {
    let t = Instant::now();
    match query {
        Query::Search(term) => {
            let span = tracer.open("mdw-core.search", request, parent);
            let r = w
                .search(&SearchRequest::new(term.as_str()))
                .expect("replayed search");
            tracer.close(span, &[("hits", r.instance_count() as f64)]);
        }
        Query::Lineage { item, up } => {
            let view = w.entailed().expect("index built");
            let ctx = w.context();
            let span = tracer.open("mdw-core.lineage_trace", request, parent);
            let r = lineage::trace(&view, &ctx, &lineage_request(item, *up));
            tracer.close(
                span,
                &[
                    ("paths_explored", r.paths_explored as f64),
                    ("endpoints", r.endpoints.len() as f64),
                ],
            );
        }
        Query::Sparql(pattern) => {
            sparql_span(w, &sem_match(pattern), tracer, request, parent);
        }
        Query::Answer(keywords) => {
            let request_obj = AnswerRequest::new(keywords.as_str());
            let view = w.entailed().expect("index built");
            let ctx = w.context();
            let stats = ctx.planner_stats(w.model_name()).expect("model exists");
            let span = tracer.open("mdw-core.answer_plan", request, parent);
            let plan = plan_candidates(&view, &ctx, w.synonyms(), &stats, &request_obj);
            tracer.close(span, &[("candidates", plan.candidates.len() as f64)]);
            // The execution loop of `MetadataWarehouse::answer`: top-k,
            // stopping once a wider candidate has produced rows.
            let exec = tracer.open("mdw-core.answer_exec", request, parent);
            let (mut executed, mut useful) = (0usize, 0usize);
            let mut answered: Option<usize> = None;
            for c in plan.candidates.iter().take(request_obj.top_k) {
                if answered.is_some_and(|n| c.covered_tokens < n) {
                    break;
                }
                let rows = sparql_span(w, &c.query, tracer, request, exec);
                executed += 1;
                if rows > 0 {
                    useful += 1;
                    answered.get_or_insert(c.covered_tokens);
                }
            }
            tracer.close(
                exec,
                &[("executed", executed as f64), ("useful", useful as f64)],
            );
        }
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// One `sem_match_explained` call in a span; returns the output rows.
fn sparql_span(
    w: &MetadataWarehouse,
    query: &SemMatch,
    tracer: &Tracer,
    request: u64,
    parent: SpanId,
) -> usize {
    let span = tracer.open("mdw-sparql.exec", request, parent);
    let (out, report) = w
        .sem_match_explained(query, &QueryBudget::unlimited(), true)
        .expect("replayed query");
    let examined: u64 = report
        .bgps
        .iter()
        .flat_map(|b| b.entries.iter())
        .map(|e| e.actual_rows)
        .sum();
    tracer.close(
        span,
        &[
            ("rows_examined", examined as f64),
            ("rows", out.rows.len() as f64),
        ],
    );
    out.rows.len()
}

/// One request of every route, checked and replayed: the traced run's
/// sweep, so each route's layer figures exist on every workload.
pub fn sweep_queries(corpus: &Corpus, seed: u64) -> Vec<Query> {
    let reads = analyst_plan(corpus, seed);
    let answers = keyword_plan(corpus, seed);
    let mut queries: Vec<Query> = reads
        .first_per_route()
        .into_iter()
        .map(|q| reads.queries[q].clone())
        .collect();
    queries.extend(
        answers
            .first_per_route()
            .into_iter()
            .map(|q| answers.queries[q].clone()),
    );
    queries
}

/// Sends each sweep query once over the wire, checks it against a fresh
/// reference, and replays it. Returns (attempted, failure messages).
pub fn sweep(
    served: &Served,
    queries: &[Query],
    tracer: &Tracer,
    request_base: u64,
) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let mut conn = match Conn::connect(served.addr()) {
        Ok(c) => c,
        Err(e) => return (queries.len() as u64, vec![format!("connect: {e}")]),
    };
    for (i, query) in queries.iter().enumerate() {
        let outcome = reference(&served.warehouse, query).and_then(|expected| {
            timed_request(
                &mut conn,
                &served.warehouse,
                query,
                &expected,
                tracer,
                request_base + i as u64,
            )
        });
        if let Err(e) = outcome {
            errors.push(format!("sweep {query:?}: {e}"));
        }
    }
    (queries.len() as u64, errors)
}
