//! The warehouse facade: one object tying together the store, the rulebase,
//! the semantic index, the synonym table, the historization registry, and
//! the two services.
//!
//! Lifecycle (mirrors Figure 4):
//!
//! 1. [`MetadataWarehouse::new`] creates the current model (`DWH_CURR`) with
//!    the OWLPRIME rulebase,
//! 2. [`MetadataWarehouse::ingest`] runs extracts through staging and bulk
//!    load,
//! 3. [`MetadataWarehouse::build_semantic_index`] materializes the
//!    entailment index ("the indexes read all relationships … and apply them
//!    on the basic facts"),
//! 4. [`MetadataWarehouse::search`] / [`MetadataWarehouse::lineage`] serve
//!    the two use cases over the entailed view,
//! 5. [`MetadataWarehouse::snapshot`] historizes the current graph at each
//!    release.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mdw_rdf::budget::{Completeness, QueryBudget, TimeSource, TruncationReason};
use mdw_rdf::frozen::{FrozenGraph, FrozenStore};
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmOpenReport, LsmStore};
use mdw_rdf::par::ParallelPolicy;
use mdw_rdf::persist::SaveReport;
use mdw_rdf::term::Term;
use mdw_rdf::triple::Triple;
use mdw_rdf::{GraphStats, QueryContext};
use mdw_reason::{EntailedGraph, Materialization, MaterializeStats, Rulebase};
use mdw_sparql::{ExplainReport, QueryOutput, SemMatch};

use crate::admission::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::assist::{self, SourceCandidates};
use crate::error::MdwError;
use crate::governance::{self, AccessReport, GovernanceGaps};
use crate::history::{History, VersionDiff, VersionRecord};
use crate::ingest::{
    ingest, ingest_resilient, Extract, ExtractStatus, IngestReport, ResilientIngestReport,
};
use crate::lineage::{self, FlowRow, Hop, ImpactSummary, LineageRequest, LineageResult};
use crate::model::{census, Census};
use crate::search::{self, SearchRequest, SearchResults};
use crate::resilience::{Clock, RetryPolicy};
use crate::sync::{SourceRegistry, SyncReport};
use crate::synonyms::SynonymTable;

/// The default current-model name, as queried in the paper's listings
/// (`SEM_MODELS('DWH_CURR')`).
pub const DEFAULT_MODEL: &str = "DWH_CURR";

/// Cumulative query-planner activity across every `SEM_MATCH` query this
/// warehouse has served. Interior-mutable (queries take `&self`), relaxed
/// ordering — these are monitoring counters, not synchronization.
#[derive(Debug, Default)]
struct PlannerCounters {
    planned: AtomicU64,
    unplanned: AtomicU64,
    reordered: AtomicU64,
    filters_pushed: AtomicU64,
}

impl PlannerCounters {
    fn record(&self, report: &ExplainReport) {
        if report.planner_used {
            self.planned.fetch_add(1, Ordering::Relaxed);
            if report.reordered() {
                self.reordered.fetch_add(1, Ordering::Relaxed);
            }
            self.filters_pushed
                .fetch_add(report.filters_pushed as u64, Ordering::Relaxed);
        } else {
            self.unplanned.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> PlannerStats {
        PlannerStats {
            planned: self.planned.load(Ordering::Relaxed),
            unplanned: self.unplanned.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            filters_pushed: self.filters_pushed.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time snapshot of the warehouse's planner counters
/// ([`MetadataWarehouse::planner_stats`]) — surfaced operationally by
/// `mdw-serve`'s `/admin/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Queries executed through the cost-based planner.
    pub planned: u64,
    /// Queries executed in written pattern order (planner disabled).
    pub unplanned: u64,
    /// Planned queries whose chosen join order differed from the written
    /// order.
    pub reordered: u64,
    /// Total filter conjuncts pushed into basic-graph-pattern scans.
    pub filters_pushed: u64,
}

/// Cumulative keyword-answering activity ([`MetadataWarehouse::answer`]).
/// Interior-mutable for the same reason as [`PlannerCounters`].
#[derive(Debug, Default)]
struct AnswerCounters {
    answered: AtomicU64,
    candidates_planned: AtomicU64,
    candidates_executed: AtomicU64,
    truncated: AtomicU64,
}

impl AnswerCounters {
    fn record(&self, result: &crate::answer::AnswerResult) {
        self.answered.fetch_add(1, Ordering::Relaxed);
        self.candidates_planned
            .fetch_add(result.candidates.len() as u64, Ordering::Relaxed);
        self.candidates_executed
            .fetch_add(result.executed.len() as u64, Ordering::Relaxed);
        if !result.completeness.is_complete() {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> AnswerStats {
        AnswerStats {
            answered: self.answered.load(Ordering::Relaxed),
            candidates_planned: self.candidates_planned.load(Ordering::Relaxed),
            candidates_executed: self.candidates_executed.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time snapshot of the warehouse's keyword-answering counters
/// ([`MetadataWarehouse::answer_stats`]) — surfaced operationally by
/// `mdw-serve`'s `/admin/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnswerStats {
    /// Keyword-answering requests served.
    pub answered: u64,
    /// SPARQL candidates planned across all requests.
    pub candidates_planned: u64,
    /// Candidates actually executed (top-k, budget permitting).
    pub candidates_executed: u64,
    /// Requests whose shared budget tripped before completion.
    pub truncated: u64,
}

/// The meta-data warehouse.
///
/// Every write — ingest, resync, single facts, synonym edges,
/// historization — goes through one [`LsmStore`] (in memory for
/// [`Self::new`], durable for [`Self::open`]), and every read pins the
/// generation that store published: the warehouse repins after each of
/// its writes, so a read never sees a batch the store did not acknowledge.
#[derive(Debug)]
pub struct MetadataWarehouse {
    lsm: LsmStore,
    /// The generation reads pin: the store's snapshot as of this
    /// warehouse's last write.
    current: Arc<FrozenStore>,
    model: String,
    rulebase: Rulebase,
    materialization: Option<Materialization>,
    synonyms: SynonymTable,
    history: History,
    sources: SourceRegistry,
    breaker: Option<CircuitBreaker>,
    /// Worker-thread policy attached to every [`QueryContext`] this
    /// warehouse hands out; sequential unless configured.
    parallelism: ParallelPolicy,
    /// Cumulative planner activity over served `SEM_MATCH` queries.
    planner: PlannerCounters,
    /// Cumulative keyword-answering activity.
    answer_counters: AnswerCounters,
}

impl Default for MetadataWarehouse {
    fn default() -> Self {
        Self::new()
    }
}

impl MetadataWarehouse {
    /// Creates an in-memory warehouse with the default model name, the
    /// OWLPRIME rulebase, and the banking synonym table.
    pub fn new() -> Self {
        Self::with_model(DEFAULT_MODEL)
    }

    /// Creates an in-memory warehouse with a custom current-model name.
    ///
    /// Its store's background compactor folds every sealed run right away
    /// (`max_runs: 0`): a volatile fold is an in-memory merge, and it keeps
    /// reads between incremental writes scanning the base plus at most one
    /// run and the memtable. A durable warehouse keeps the default depth,
    /// because each durable fold rewrites the base snapshot on disk.
    pub fn with_model(model: &str) -> Self {
        let config = LsmConfig { max_runs: 0, ..LsmConfig::default() };
        Self::over(LsmStore::in_memory(config), model)
            .expect("a volatile store cannot fail to create a model")
    }

    /// Opens (or creates) a durable warehouse in `dir` with the default
    /// model: [`LsmStore::open`] recovers the last acknowledged state
    /// (base snapshot, sealed runs, journal replay; a torn journal tail is
    /// truncated, orphan runs are quarantined), and every later write is
    /// journaled before it is acknowledged. Historized `HIST_<tag>` models
    /// survive on disk; the version registry ([`Self::history`]) starts
    /// empty.
    pub fn open(dir: &Path) -> Result<(Self, LsmOpenReport), MdwError> {
        Self::open_with_model(dir, DEFAULT_MODEL)
    }

    /// [`Self::open`] with a custom current-model name.
    pub fn open_with_model(dir: &Path, model: &str) -> Result<(Self, LsmOpenReport), MdwError> {
        let (lsm, report) = LsmStore::open(dir, LsmConfig::default())?;
        Ok((Self::over(lsm, model)?, report))
    }

    /// An in-memory warehouse over the state [`Self::open`] would recover
    /// from `dir`, read by [`LsmStore::load`]: no file is created,
    /// truncated, or quarantined, and later writes stay in memory. The
    /// current model is the default one if the store holds it, else its
    /// first model by name; a store without models is refused.
    pub fn load(dir: &Path) -> Result<Self, MdwError> {
        let config = LsmConfig { max_runs: 0, ..LsmConfig::default() };
        let (lsm, _) = LsmStore::load(dir, config)?;
        let snapshot = lsm.snapshot();
        let model = if snapshot.has_model(DEFAULT_MODEL) {
            DEFAULT_MODEL.to_string()
        } else {
            let first = snapshot.model_names().first().map(|s| s.to_string());
            first.ok_or_else(|| MdwError::NotFound(format!("no model in {}", dir.display())))?
        };
        Self::over(lsm, &model)
    }

    /// A warehouse over `lsm`, creating `model` (with an empty batch) if
    /// the store does not hold it yet.
    fn over(lsm: LsmStore, model: &str) -> Result<Self, MdwError> {
        let rulebase = lsm.with_dict(Rulebase::owlprime);
        if lsm.snapshot().model(model).is_err() {
            lsm.write_batch(model, &[])?;
        }
        Ok(MetadataWarehouse {
            current: lsm.snapshot(),
            lsm,
            model: model.to_string(),
            rulebase,
            materialization: None,
            synonyms: SynonymTable::banking(),
            history: History::new(),
            sources: SourceRegistry::new(),
            breaker: None,
            parallelism: ParallelPolicy::sequential(),
            planner: PlannerCounters::default(),
            answer_counters: AnswerCounters::default(),
        })
    }

    /// Whether writes are journaled to disk.
    pub fn is_durable(&self) -> bool {
        self.lsm.dir().is_some()
    }

    /// The store directory, when durable.
    pub fn store_dir(&self) -> Option<&Path> {
        self.lsm.dir()
    }

    /// Folds every stacked run and the memtable into one solid base per
    /// model. A durable warehouse commits the fold as a new on-disk
    /// snapshot and trims the journal (see [`LsmStore::checkpoint`]).
    pub fn checkpoint(&mut self) -> Result<SaveReport, MdwError> {
        let report = self.lsm.checkpoint();
        self.repin();
        Ok(report?)
    }

    /// Pins the store's current generation for every later read. Called
    /// after each write, whether it succeeded or not: the store publishes
    /// only acknowledged batches, so the pin never shows a failed write.
    fn repin(&mut self) {
        self.current = self.lsm.snapshot();
    }

    /// The current model of the pinned generation.
    fn graph(&self) -> Result<&FrozenGraph, MdwError> {
        Ok(self.current.model(&self.model)?)
    }

    /// The generation every read currently pins.
    pub fn published(&self) -> &Arc<FrozenStore> {
        &self.current
    }

    /// A [`QueryContext`] pinning the current snapshot generation with an
    /// unlimited budget. The context (and any clone) keeps reading that
    /// generation even while later writes publish new ones.
    pub fn context(&self) -> QueryContext {
        QueryContext::new(Arc::clone(&self.current)).with_parallelism(self.parallelism)
    }

    /// Sets the worker-thread policy used by every subsequent query
    /// (search scoring, lineage frontier expansion, SPARQL leaf scans).
    /// Parallel execution only changes wall-clock time — results are
    /// bit-identical to sequential execution for every policy.
    pub fn set_parallelism(&mut self, policy: ParallelPolicy) {
        self.parallelism = policy;
    }

    /// The current worker-thread policy.
    pub fn parallelism(&self) -> ParallelPolicy {
        self.parallelism
    }

    /// The current-model name.
    pub fn model_name(&self) -> &str {
        &self.model
    }

    /// The synonym table (mutable, to load site-specific vocabularies).
    pub fn synonyms_mut(&mut self) -> &mut SynonymTable {
        &mut self.synonyms
    }

    /// The synonym table.
    pub fn synonyms(&self) -> &SynonymTable {
        &self.synonyms
    }

    /// Ingests extracts through the staging/bulk-load pipeline (additive:
    /// triples accumulate per source — use [`Self::resync`] for replacing
    /// deliveries). Triples are written in bounded batches; when the load
    /// is done its runs are folded into the base, so reads scan solid
    /// columns. Any existing semantic index is invalidated (new facts may
    /// entail new triples).
    ///
    /// A load that fails part-way keeps the batches already acknowledged
    /// (and their provenance): they are durable and visible, nothing else
    /// is.
    pub fn ingest(&mut self, extracts: Vec<Extract>) -> Result<IngestReport, MdwError> {
        let (sources, mut wrote) = (&mut self.sources, false);
        let result = ingest(&self.lsm, &self.model, extracts, |source, triples| {
            wrote = true;
            sources.record_additive(source, triples.iter().copied());
        });
        let changed = match &result {
            Ok(report) => report.load.loaded > 0,
            Err(_) => wrote,
        };
        self.after_bulk_load(changed);
        result
    }

    /// Fault-tolerant variant of [`Self::ingest`]: each extract is staged
    /// and loaded independently, transient failures are retried under
    /// `policy` (backoff slept on `clock`), and extracts that cannot load
    /// are quarantined instead of failing the whole release. Provenance is
    /// recorded only for batches that committed.
    pub fn ingest_resilient(
        &mut self,
        extracts: Vec<Extract>,
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> Result<ResilientIngestReport, MdwError> {
        let (sources, mut wrote) = (&mut self.sources, false);
        let committed = |source: &str, triples: &[Triple]| {
            wrote = true;
            sources.record_additive(source, triples.iter().copied());
        };
        let result = ingest_resilient(&self.lsm, &self.model, extracts, policy, clock, committed);
        let changed = match &result {
            // A failed attempt may have committed batches before it failed;
            // its extract's count (of the retry, or 0 when quarantined)
            // does not show them.
            Ok(report) => {
                report.loaded() > 0
                    || (wrote && report.outcomes.iter().any(|o| o.status != ExtractStatus::Loaded))
            }
            Err(_) => wrote,
        };
        self.after_bulk_load(changed);
        result
    }

    /// The common tail of the bulk loaders: when the load inserted
    /// something (or failed after committing a batch), drop the semantic
    /// index, since new facts may entail new triples, and checkpoint the
    /// load; then repin. A load of nothing but duplicates keeps both the
    /// index and the published generation.
    fn after_bulk_load(&mut self, changed: bool) {
        if changed {
            self.materialization = None;
            // The batches are already durable and visible; the checkpoint
            // only makes the read path scan one solid base. One that fails
            // (say, a full disk while writing the base snapshot) leaves
            // the layers stacked for the background compactor.
            let _ = self.lsm.checkpoint();
        }
        self.repin();
    }

    /// Re-delivers one source's extract with *replace* semantics: triples
    /// this source previously asserted but no longer delivers are removed
    /// from the graph (unless another source still asserts them). This is
    /// the per-release synchronization the paper's coverage growth implies.
    /// The whole change is one group-committed batch: it becomes visible,
    /// and the registry records it, only once it is acknowledged.
    ///
    /// Removals invalidate the semantic index (no truth maintenance for
    /// retracted facts); pure additions extend it incrementally. Stacked
    /// runs are left to the background compactor.
    pub fn resync(&mut self, extract: Extract) -> Result<SyncReport, MdwError> {
        for (s, p, o) in &extract.triples {
            if !s.is_subject_capable() || !p.is_iri() {
                return Err(MdwError::InvalidRequest(format!(
                    "invalid triple in resync extract: {s} {p} {o}"
                )));
            }
        }
        let new_set: BTreeSet<Triple> = self.lsm.with_dict(|dict| {
            extract
                .triples
                .iter()
                .map(|(s, p, o)| Triple::new(dict.intern(s), dict.intern(p), dict.intern(o)))
                .collect()
        });
        let (added, removed, report) = self.sources.diff(&extract.source, &new_set);
        // `with_dict` published every interned term, so the store's
        // snapshot decodes both sides of the change.
        let snapshot = self.lsm.snapshot();
        let graph = snapshot.model(&self.model)?;
        let fresh: Vec<Triple> = added.into_iter().filter(|&t| !graph.contains(t)).collect();
        let mut ops = Vec::with_capacity(fresh.len() + removed.len());
        for &t in &fresh {
            let (s, p, o) = snapshot.decode(t)?;
            ops.push(JournalOp::Insert(s.clone(), p.clone(), o.clone()));
        }
        for &t in &removed {
            let (s, p, o) = snapshot.decode(t)?;
            ops.push(JournalOp::Remove(s.clone(), p.clone(), o.clone()));
        }
        if !ops.is_empty() {
            let written = self.lsm.write_batch_or_fold(&self.model, &ops);
            self.repin();
            written?;
        }
        self.sources.set(&extract.source, new_set);
        if removed.is_empty() {
            self.extend_index(&fresh)?;
        } else {
            self.materialization = None;
        }
        Ok(report)
    }

    /// Extends a built semantic index with facts just made visible (the
    /// delta-maintenance path); a no-op while no index is built.
    fn extend_index(&mut self, new_facts: &[Triple]) -> Result<(), MdwError> {
        if new_facts.is_empty() {
            return Ok(());
        }
        if let Some(m) = self.materialization.as_mut() {
            let graph = self.current.model(&self.model)?;
            m.extend(graph, &self.rulebase, self.current.dict(), new_facts);
        }
        Ok(())
    }

    /// The sources that have delivered extracts so far.
    pub fn sources(&self) -> Vec<&str> {
        self.sources.sources()
    }

    /// Inserts one fact. If the semantic index is built, it is extended
    /// incrementally (the delta-maintenance path); otherwise the fact just
    /// lands in the base model. `false` if the fact was already present.
    pub fn insert_fact(&mut self, s: &Term, p: &Term, o: &Term) -> Result<bool, MdwError> {
        let present = |snap: &FrozenStore| -> Option<Triple> {
            Some(Triple::new(snap.encode(s)?, snap.encode(p)?, snap.encode(o)?))
        };
        if let Some(t) = present(&self.current) {
            if self.graph()?.contains(t) {
                return Ok(false);
            }
        }
        let op = JournalOp::Insert(s.clone(), p.clone(), o.clone());
        let written = self.lsm.write_batch_or_fold(&self.model, &[op]);
        self.repin();
        written?;
        let t = present(&self.current).expect("a committed fact decodes");
        self.extend_index(&[t])?;
        Ok(true)
    }

    /// Loads the synonym table's value-to-value edges into the graph —
    /// the DBpedia-import step of Section III.B. Returns how many edges
    /// were new.
    pub fn load_synonym_edges(&mut self) -> Result<usize, MdwError> {
        let graph = self.graph()?;
        let ops: Vec<JournalOp> = self
            .synonyms
            .to_triples()
            .into_iter()
            .map(|(s, p, o)| {
                // Synonym edges connect literals; RDF forbids literal
                // subjects, so values are wrapped as value nodes in the
                // dwh namespace.
                let s = Term::iri(mdw_rdf::vocab::cs::dwh(&format!("term/{}", s.label())));
                let o = Term::iri(mdw_rdf::vocab::cs::dwh(&format!("term/{}", o.label())));
                (s, p, o)
            })
            .filter(|(s, p, o)| {
                let ids = (self.current.encode(s), self.current.encode(p), self.current.encode(o));
                !matches!(ids, (Some(s), Some(p), Some(o)) if graph.contains(Triple::new(s, p, o)))
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|(s, p, o)| JournalOp::Insert(s, p, o))
            .collect();
        if ops.is_empty() {
            return Ok(0);
        }
        let written = self.lsm.write_batch_or_fold(&self.model, &ops);
        self.repin();
        written?;
        self.materialization = None;
        Ok(ops.len())
    }

    /// Builds (or rebuilds) the semantic index — the paper's OWL index
    /// build. Returns the materialization statistics.
    pub fn build_semantic_index(&mut self) -> Result<MaterializeStats, MdwError> {
        let m = Materialization::materialize(self.graph()?, &self.rulebase, self.current.dict());
        let stats = m.stats().clone();
        self.materialization = Some(m);
        Ok(stats)
    }

    /// Whether the semantic index is currently built.
    pub fn has_semantic_index(&self) -> bool {
        self.materialization.is_some()
    }

    /// The entailed view (base ∪ semantic index) over the current frozen
    /// snapshot. Errors if the index is not built — derived triples "only
    /// exist through the indexes".
    pub fn entailed(&self) -> Result<EntailedGraph<'_>, MdwError> {
        let m = self.materialization.as_ref().ok_or(MdwError::IndexNotBuilt)?;
        Ok(EntailedGraph::new(self.graph()?, m.derived()))
    }

    /// Freezes this warehouse into a shared service handle. The warehouse
    /// is `Sync` (queries take `&self`; snapshots are immutable), so a
    /// serving layer can fan one handle out across connection threads; the
    /// mutating setup surface (`load`, `build_*`, `enable_*`) is sealed off
    /// because `Arc` only hands out shared references.
    pub fn into_shared(self) -> Arc<Self> {
        fn assert_service_handle<T: Send + Sync + 'static>() {}
        assert_service_handle::<MetadataWarehouse>();
        Arc::new(self)
    }

    /// Puts a circuit breaker over the entailment path: when reasoner-backed
    /// queries repeatedly blow their budgets the breaker opens and queries
    /// are served from the base graph alone — flagged degraded — until a
    /// half-open probe succeeds.
    pub fn enable_breaker(&mut self, config: BreakerConfig, time: Arc<dyn TimeSource>) {
        self.breaker = Some(CircuitBreaker::new(config, time));
    }

    /// The breaker's current state, when one is installed.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state())
    }

    fn empty_index() -> &'static FrozenGraph {
        static EMPTY: OnceLock<FrozenGraph> = OnceLock::new();
        EMPTY.get_or_init(FrozenGraph::default)
    }

    /// The view a query runs against, plus whether it is degraded: the
    /// entailed graph normally, the base graph alone (no inference) while
    /// the breaker is open. Either way the base is the pinned frozen
    /// snapshot, so a query never observes a half-applied mutation.
    fn query_view(&self) -> Result<(EntailedGraph<'_>, bool), MdwError> {
        if let Some(b) = &self.breaker {
            if !b.allow() {
                return Ok((EntailedGraph::new(self.graph()?, Self::empty_index()), true));
            }
        }
        Ok((self.entailed()?, false))
    }

    /// Feeds a completed query's verdict to the breaker: a budget blow-up
    /// on the entailed path (deadline or step cap) counts as a failure,
    /// anything else as a success. Degraded (fallback) answers never probe
    /// the entailed path, so they are not recorded.
    fn record_entailment_outcome(&self, degraded: bool, completeness: &Completeness) {
        if degraded {
            return;
        }
        if let Some(b) = &self.breaker {
            match completeness {
                Completeness::Truncated {
                    reason: TruncationReason::DeadlineExceeded | TruncationReason::StepLimit,
                } => b.record_failure(),
                _ => b.record_success(),
            }
        }
    }

    /// Runs the Section IV.A search. Honors the request's
    /// [`QueryBudget`](mdw_rdf::budget::QueryBudget) and the entailment
    /// breaker.
    pub fn search(&self, request: &SearchRequest) -> Result<SearchResults, MdwError> {
        let (view, degraded) = self.query_view()?;
        let ctx = self.context().with_budget(request.budget.clone());
        let mut results = search::search(&view, &ctx, &self.synonyms, request);
        results.degraded = degraded;
        self.record_entailment_outcome(degraded, &results.completeness);
        Ok(results)
    }

    /// Runs the Section IV.B lineage traversal. Honors the request's
    /// [`QueryBudget`](mdw_rdf::budget::QueryBudget) and the entailment
    /// breaker.
    pub fn lineage(&self, request: &LineageRequest) -> Result<LineageResult, MdwError> {
        let (view, degraded) = self.query_view()?;
        let ctx = self.context().with_budget(request.budget.clone());
        let mut result = lineage::trace(&view, &ctx, request);
        result.degraded = degraded;
        self.record_entailment_outcome(degraded, &result.completeness);
        Ok(result)
    }

    /// Schema-level flow aggregation (Figure 7, coarse granularity).
    pub fn schema_flow(&self) -> Result<Vec<FlowRow>, MdwError> {
        let view = self.entailed()?;
        Ok(lineage::schema_flow(&view, &self.context()))
    }

    /// Attribute-level drill-down of one schema pair (Figure 7).
    pub fn drill_down(&self, source: &Term, target: &Term) -> Result<Vec<Hop>, MdwError> {
        let view = self.entailed()?;
        Ok(lineage::drill_down(&view, &self.context(), source, target))
    }

    /// Aggregates a lineage result by schema — the impact summary of
    /// Section IV.B's change-management motivation.
    pub fn impact_summary(&self, result: &LineageResult) -> Result<ImpactSummary, MdwError> {
        let view = self.entailed()?;
        Ok(lineage::impact_summary(&view, &self.context(), result))
    }

    /// The audit question of Section IV.B: which applications, roles, and
    /// users have access to an information item.
    pub fn who_can_access(&self, item: &Term) -> Result<AccessReport, MdwError> {
        let view = self.entailed()?;
        Ok(governance::who_can_access(&view, self.current.dict(), item))
    }

    /// Data-governance gap analysis: data-mart items without an owner.
    pub fn governance_gaps(&self) -> Result<GovernanceGaps, MdwError> {
        let view = self.entailed()?;
        Ok(governance::ownerless_items(&view, self.current.dict()))
    }

    /// The report-developer assistant (the paper's "under development" use
    /// case): ranked data sources for a business concept.
    pub fn find_sources(&self, concept: &Term) -> Result<SourceCandidates, MdwError> {
        let view = self.entailed()?;
        Ok(assist::find_sources(&view, self.current.dict(), concept))
    }

    /// Executes a `SEM_MATCH`-style query against this warehouse. When the
    /// query names a rulebase, the built semantic index is supplied
    /// automatically.
    pub fn sem_match(&self, query: &SemMatch) -> Result<QueryOutput, MdwError> {
        self.sem_match_with_budget(query, &QueryBudget::unlimited())
    }

    /// [`Self::sem_match`] under a [`QueryBudget`]: the executor checks the
    /// budget at bounded intervals and returns a partial result tagged
    /// `Truncated` instead of running away. Honors the entailment
    /// breaker — while the breaker is open the query runs
    /// without the semantic index and the output is flagged degraded.
    pub fn sem_match_with_budget(
        &self,
        query: &SemMatch,
        budget: &QueryBudget,
    ) -> Result<QueryOutput, MdwError> {
        self.sem_match_explained(query, budget, true).map(|(out, _)| out)
    }

    /// [`Self::sem_match_with_budget`] plus a planner switch and the
    /// [`ExplainReport`] for the plan the executor ran: chosen join order,
    /// estimated against observed cardinalities, and pushed filter
    /// conjuncts. With `use_planner` false the query runs in written
    /// pattern order — the baseline an ablation compares against. Either
    /// way the outcome feeds the warehouse's cumulative
    /// [`planner_stats`](Self::planner_stats) counters.
    pub fn sem_match_explained(
        &self,
        query: &SemMatch,
        budget: &QueryBudget,
        use_planner: bool,
    ) -> Result<(QueryOutput, ExplainReport), MdwError> {
        let degraded = self.breaker.as_ref().is_some_and(|b| !b.allow());
        let entailments = if degraded { None } else { self.materialization.as_ref() };
        let mut query = query.clone().model(&self.model);
        if degraded {
            // Base-graph answers: the rulebase is unavailable, not an error.
            query = query.without_rulebase();
        }
        let (mut out, report) = query.execute_explained(
            &self.current,
            entailments,
            budget,
            self.parallelism,
            use_planner,
        )?;
        out.degraded = degraded;
        if entailments.is_some() {
            self.record_entailment_outcome(degraded, &out.completeness);
        }
        self.planner.record(&report);
        Ok((out, report))
    }

    /// Cumulative planner counters over every `SEM_MATCH` query served so
    /// far (planned vs unplanned executions, reorderings, pushed filters).
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner.snapshot()
    }

    /// SODA-style keyword answering (see [`crate::answer`]): tokenizes the
    /// request, matches tokens against schema labels and synonyms, walks
    /// bounded join paths between the matched schema nodes, ranks the
    /// resulting SPARQL candidates by match score × path length ×
    /// cardinality estimate, and executes the top-k through the regular
    /// planner/budget stack. Planning and every candidate execution charge
    /// the request's single [`QueryBudget`], so truncation verdicts are
    /// truthful prefixes of the unbudgeted run.
    pub fn answer(&self, request: &crate::answer::AnswerRequest) -> Result<crate::answer::AnswerResult, MdwError> {
        let (view, degraded) = self.query_view()?;
        let ctx = self.context().with_budget(request.budget.clone());
        let stats = ctx.planner_stats(&self.model)?;
        let plan = crate::answer::plan_candidates(&view, &ctx, &self.synonyms, &stats, request);
        let mut truncated = plan.truncated;
        let mut executed = Vec::new();
        let mut answered_coverage: Option<usize> = None;
        for c in plan.candidates.iter().take(request.top_k) {
            // Once the shared budget trips, later candidates could only
            // return empty truncated outputs — skipping them keeps the
            // answer a truthful prefix and costs nothing.
            if truncated.is_some() {
                break;
            }
            // Coverage dominance: once a candidate covering `n` keywords
            // has produced answers, candidates covering fewer keywords are
            // weaker interpretations of the same question — pooling them
            // would only dilute the answer. Candidates are sorted by
            // coverage first, so the cut is a clean break.
            if answered_coverage.is_some_and(|n| c.covered_tokens < n) {
                break;
            }
            let (out, report) = self.sem_match_explained(&c.query, &request.budget, true)?;
            if let Some(reason) = out.completeness.reason() {
                truncated = Some(reason);
            }
            if !out.rows.is_empty() && answered_coverage.is_none() {
                answered_coverage = Some(c.covered_tokens);
            }
            executed.push(crate::answer::ExecutedCandidate {
                sparql: c.sparql.clone(),
                rank: c.rank,
                rows: out.rows.len(),
                output: out,
                report,
            });
        }
        let answers = crate::answer::pool_answers(&executed);
        let result = crate::answer::AnswerResult {
            tokens: plan.tokens,
            matches: plan.matches,
            unmatched_tokens: plan.unmatched_tokens,
            candidates: plan.candidates,
            executed,
            answers,
            completeness: match truncated {
                Some(reason) => Completeness::Truncated { reason },
                None => Completeness::Complete,
            },
            degraded,
        };
        self.answer_counters.record(&result);
        Ok(result)
    }

    /// Cumulative keyword-answering counters over every [`Self::answer`]
    /// request served so far.
    pub fn answer_stats(&self) -> AnswerStats {
        self.answer_counters.snapshot()
    }

    /// The Table I census of the current model.
    pub fn census(&self) -> Result<Census, MdwError> {
        Ok(census(self.graph()?, self.current.dict()))
    }

    /// Statistics of the current model (the paper's node/edge scale).
    pub fn stats(&self) -> Result<GraphStats, MdwError> {
        Ok(self.graph()?.stats())
    }

    /// Number of derived triples in the semantic index (0 if not built).
    pub fn derived_count(&self) -> usize {
        self.materialization.as_ref().map_or(0, |m| m.stats().derived)
    }

    /// Takes a full historization snapshot of the current model: a
    /// checkpoint that also installs the folded model under `HIST_<tag>`
    /// (see [`History::snapshot`]). On a durable warehouse the version is
    /// in the committed on-disk snapshot when this returns.
    pub fn snapshot(&mut self, tag: &str) -> Result<VersionRecord, MdwError> {
        let record = self.history.snapshot(&self.lsm, &self.model, tag).cloned();
        self.repin();
        record
    }

    /// The historization registry.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Diffs two historized versions.
    pub fn diff(&self, from: &str, to: &str) -> Result<VersionDiff, MdwError> {
        self.history.diff(&self.current, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::vocab;

    fn dm(l: &str) -> Term {
        Term::iri(vocab::cs::dm(l))
    }

    fn dwh(l: &str) -> Term {
        Term::iri(vocab::cs::dwh(l))
    }

    fn loaded_warehouse() -> MetadataWarehouse {
        let mut w = MetadataWarehouse::new();
        w.ingest(fixture_extracts()).unwrap();
        w.build_semantic_index().unwrap();
        w
    }

    fn fixture_extracts() -> Vec<Extract> {
        let ontology = Extract::new(
            "protege",
            vec![
                (dm("Application1_View_Column"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
                (dm("Attribute"), Term::iri(vocab::rdfs::LABEL), Term::plain("Attribute")),
                (dm("Application1_View_Column"), Term::iri(vocab::rdfs::LABEL), Term::plain("Column")),
            ],
        );
        let facts = Extract::new(
            "scanner",
            vec![
                (dwh("customer_id"), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
                (dwh("customer_id"), Term::iri(vocab::cs::HAS_NAME), Term::plain("customer_id")),
                (dwh("client_information_id"), Term::iri(vocab::cs::IS_MAPPED_TO), dwh("partner_id")),
                (dwh("partner_id"), Term::iri(vocab::cs::IS_MAPPED_TO), dwh("customer_id")),
            ],
        );
        vec![ontology, facts]
    }

    #[test]
    fn reingesting_unchanged_extracts_keeps_index_and_generation() {
        let mut w = loaded_warehouse();
        let generation = w.published().generation();
        let report = w.ingest(fixture_extracts()).unwrap();
        assert_eq!(report.load.loaded, 0);
        assert_eq!(report.load.duplicates, report.staged);
        assert!(w.has_semantic_index());
        assert_eq!(w.published().generation(), generation);
        assert!(w.search(&SearchRequest::new("customer")).is_ok());

        let clock = mdw_rdf::budget::ManualTime::new();
        let report =
            w.ingest_resilient(fixture_extracts(), &RetryPolicy::default(), &clock).unwrap();
        assert_eq!(report.loaded(), 0);
        assert!(w.has_semantic_index());
        assert_eq!(w.published().generation(), generation);
    }

    #[test]
    fn quarantine_after_a_committed_batch_still_drops_the_index() {
        use mdw_rdf::failpoint::{self, FailSpec};
        let dir = temp_dir("partial-quarantine");
        let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
        w.ingest(fixture_extracts()).unwrap();
        w.build_semantic_index().unwrap();
        let before = w.stats().unwrap().edges;
        let column = dm("Application1_View_Column");
        let triples = (0..=mdw_rdf::staging::BULK_BATCH_OPS)
            .map(|i| (dwh(&format!("col{i}")), Term::iri(vocab::rdf::TYPE), column.clone()))
            .collect();
        // Two batches; at 50 % with seed 1 the first append passes and
        // the second fails, so the one attempt commits half the extract.
        failpoint::arm("journal::append", FailSpec::Probability { pct: 50, seed: 1 });
        let policy = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        let clock = mdw_rdf::budget::ManualTime::new();
        let report =
            w.ingest_resilient(vec![Extract::new("scanner", triples)], &policy, &clock).unwrap();
        failpoint::reset();
        assert_eq!(report.loaded(), 0, "a quarantined extract counts nothing");
        assert_eq!(w.stats().unwrap().edges, before + mdw_rdf::staging::BULK_BATCH_OPS);
        assert!(!w.has_semantic_index());
        drop(w);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_reingest_of_duplicates_rewrites_no_file() {
        let dir = temp_dir("reingest");
        let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
        w.ingest(fixture_extracts()).unwrap();
        let listing = || {
            let mut files: Vec<(String, u64)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| (e.file_name().into_string().unwrap(), e.metadata().unwrap().len()))
                .collect();
            files.sort();
            files
        };
        let before = listing();
        w.ingest(fixture_extracts()).unwrap();
        assert_eq!(listing(), before);
        drop(w);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_lifecycle() {
        let w = loaded_warehouse();
        assert!(w.has_semantic_index());
        assert!(w.derived_count() > 0);

        let results = w.search(&SearchRequest::new("customer")).unwrap();
        assert!(results.group("Attribute").is_some());
        assert!(results.group("Column").is_some());

        let lin = w
            .lineage(&LineageRequest::downstream(dwh("client_information_id")))
            .unwrap();
        assert!(lin.endpoint(&dwh("customer_id")).is_some());
    }

    #[test]
    fn search_without_index_fails() {
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![]).unwrap();
        assert!(matches!(
            w.search(&SearchRequest::new("x")),
            Err(MdwError::IndexNotBuilt)
        ));
    }

    #[test]
    fn ingest_invalidates_index() {
        let mut w = loaded_warehouse();
        assert!(w.has_semantic_index());
        // An ingest that inserts nothing leaves the index standing.
        w.ingest(vec![Extract::new("more", vec![])]).unwrap();
        assert!(w.has_semantic_index());
        w.ingest(vec![Extract::new(
            "more",
            vec![(dwh("account_id"), Term::iri(vocab::cs::HAS_NAME), Term::plain("account_id"))],
        )])
        .unwrap();
        assert!(!w.has_semantic_index());
    }

    #[test]
    fn bulk_ingest_ends_on_a_solid_base() {
        let w = loaded_warehouse();
        assert!(!w.published().model(w.model_name()).unwrap().is_stacked());
        assert_eq!(w.lsm.metrics().memtable_ops, 0);
    }

    #[test]
    fn insert_fact_extends_index_incrementally() {
        let mut w = loaded_warehouse();
        // A new column of the same class must immediately inherit Attribute.
        w.insert_fact(
            &dwh("partner_id"),
            &Term::iri(vocab::rdf::TYPE),
            &dm("Application1_View_Column"),
        )
        .unwrap();
        w.insert_fact(
            &dwh("partner_id"),
            &Term::iri(vocab::cs::HAS_NAME),
            &Term::plain("partner_id"),
        )
        .unwrap();
        assert!(w.has_semantic_index());
        let results = w.search(&SearchRequest::new("partner")).unwrap();
        assert!(results.group("Attribute").is_some());
    }

    #[test]
    fn sem_match_auto_supplies_index() {
        let w = loaded_warehouse();
        let out = w
            .sem_match(
                &SemMatch::new("{ ?x rdf:type dm:Attribute }")
                    .rulebase("OWLPRIME")
                    .alias("dm", vocab::cs::DM)
                    .select(&["?x"]),
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn sem_match_explained_reports_plan_and_feeds_counters() {
        let w = loaded_warehouse();
        let q = SemMatch::new("{ ?x rdf:type dm:Attribute }")
            .rulebase("OWLPRIME")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"]);
        let (out, report) = w
            .sem_match_explained(&q, &QueryBudget::unlimited(), true)
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(report.planner_used);
        assert_eq!(report.pattern_count(), 1);

        let (off, naive) = w
            .sem_match_explained(&q, &QueryBudget::unlimited(), false)
            .unwrap();
        assert_eq!(off.rows.len(), 1);
        assert!(!naive.planner_used);

        let stats = w.planner_stats();
        assert_eq!(stats.planned, 1);
        assert_eq!(stats.unplanned, 1);
        // The default path counts as a planned query too.
        w.sem_match(&q).unwrap();
        assert_eq!(w.planner_stats().planned, 2);
    }

    #[test]
    fn census_and_stats() {
        let w = loaded_warehouse();
        let census = w.census().unwrap();
        assert_eq!(census.total_edges, w.stats().unwrap().edges);
        assert!(census.total_nodes > 0);
    }

    #[test]
    fn snapshot_and_diff() {
        let mut w = loaded_warehouse();
        w.snapshot("2009.1").unwrap();
        w.insert_fact(
            &dwh("new_col"),
            &Term::iri(vocab::rdf::TYPE),
            &dm("Application1_View_Column"),
        )
        .unwrap();
        w.snapshot("2009.2").unwrap();
        let diff = w.diff("2009.1", "2009.2").unwrap();
        assert_eq!(diff.added.len(), 1);
        assert!(diff.removed.is_empty());
        assert_eq!(w.history().len(), 2);
    }

    #[test]
    fn resync_replaces_a_source() {
        let mut w = loaded_warehouse();
        assert!(w.sources().contains(&"scanner"));
        // The scanner re-delivers: customer_id is gone, a new column exists.
        let report = w
            .resync(Extract::new(
                "scanner",
                vec![
                    (dwh("new_col"), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
                    (dwh("new_col"), Term::iri(vocab::cs::HAS_NAME), Term::plain("new_col")),
                ],
            ))
            .unwrap();
        assert_eq!(report.added, 2);
        assert_eq!(report.removed, 4); // customer_id's 2 + the 2 mapping edges
        // Index was invalidated by the removals.
        assert!(!w.has_semantic_index());
        w.build_semantic_index().unwrap();
        // The old column is gone from search; the new one is found.
        assert_eq!(
            w.search(&SearchRequest::new("customer")).unwrap().instance_count(),
            0
        );
        assert_eq!(
            w.search(&SearchRequest::new("new_col")).unwrap().instance_count(),
            1
        );
    }

    #[test]
    fn resync_pure_addition_keeps_index() {
        let mut w = loaded_warehouse();
        // A brand-new source only adds → incremental index extension.
        let report = w
            .resync(Extract::new(
                "fresh-scanner",
                vec![(
                    dwh("extra"),
                    Term::iri(vocab::rdf::TYPE),
                    dm("Application1_View_Column"),
                )],
            ))
            .unwrap();
        assert_eq!(report.removed, 0);
        assert!(w.has_semantic_index());
        // The incremental extension derived the inherited type.
        let results = w.search(&SearchRequest::new("customer")).unwrap();
        assert!(results.instance_count() > 0);
    }

    #[test]
    fn resync_respects_shared_assertions() {
        let mut w = loaded_warehouse();
        // A second source asserts one of the scanner's triples.
        w.ingest(vec![Extract::new(
            "second-scanner",
            vec![(dwh("customer_id"), Term::iri(vocab::cs::HAS_NAME), Term::plain("customer_id"))],
        )])
        .unwrap();
        // The first scanner withdraws everything.
        let report = w.resync(Extract::new("scanner", vec![])).unwrap();
        assert!(report.retained_by_others >= 1);
        w.build_semantic_index().unwrap();
        // The shared hasName fact survived.
        let results = w.search(&SearchRequest::new("customer")).unwrap();
        assert_eq!(results.instance_count(), 0); // type fact gone → no class match
        let snap = w.published();
        let name_pat = snap
            .pattern(Some(&dwh("customer_id")), Some(&Term::iri(vocab::cs::HAS_NAME)), None)
            .unwrap();
        assert_eq!(snap.model(w.model_name()).unwrap().scan(name_pat).count(), 1);
    }

    #[test]
    fn resync_rejects_invalid_triples() {
        let mut w = loaded_warehouse();
        let err = w
            .resync(Extract::new(
                "bad",
                vec![(Term::plain("lit"), Term::iri("p"), Term::iri("o"))],
            ))
            .unwrap_err();
        assert!(matches!(err, MdwError::InvalidRequest(_)));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mdw-warehouse-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_state_survives_reopen_via_journal() {
        let dir = temp_dir("journal-reopen");
        {
            let (mut w, rec) = MetadataWarehouse::open(&dir).unwrap();
            assert!(w.is_durable());
            assert_eq!(rec.replayed_batches, 0);
            w.ingest(vec![Extract::new(
                "scanner",
                vec![(dwh("a"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            )])
            .unwrap();
            w.insert_fact(&dwh("a"), &Term::iri(vocab::cs::HAS_NAME), &Term::plain("a"))
                .unwrap();
            // The ingest folded into a snapshot; the fact after it lives
            // only in the journal.
        }
        let (w, rec) = MetadataWarehouse::open(&dir).unwrap();
        assert_eq!(rec.replayed_batches, 1);
        assert_eq!(w.stats().unwrap().edges, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_journal_into_snapshot() {
        let dir = temp_dir("checkpoint");
        {
            let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
            w.ingest(vec![Extract::new(
                "scanner",
                vec![(dwh("a"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            )])
            .unwrap();
            w.insert_fact(&dwh("a"), &Term::iri(vocab::cs::HAS_NAME), &Term::plain("a"))
                .unwrap();
            let report = w.checkpoint().unwrap();
            assert_eq!(report.total(), 2);
        }
        let (w, rec) = MetadataWarehouse::open(&dir).unwrap();
        assert_eq!(rec.replayed_batches, 0, "journal was folded in");
        assert_eq!(w.stats().unwrap().edges, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_resync_removals_survive_reopen() {
        let dir = temp_dir("resync");
        {
            let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
            w.ingest(vec![Extract::new(
                "scanner",
                vec![
                    (dwh("old"), Term::iri(vocab::rdf::TYPE), dm("Thing")),
                    (dwh("keep"), Term::iri(vocab::rdf::TYPE), dm("Thing")),
                ],
            )])
            .unwrap();
            w.resync(Extract::new(
                "scanner",
                vec![(dwh("keep"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            ))
            .unwrap();
        }
        let (w, _) = MetadataWarehouse::open(&dir).unwrap();
        assert_eq!(w.stats().unwrap().edges, 1);
        let snap = w.published();
        let kept = snap.pattern(Some(&dwh("keep")), None, None).unwrap();
        assert_eq!(snap.model(w.model_name()).unwrap().scan(kept).count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn historization_snapshot_checkpoints_durable_store() {
        let dir = temp_dir("hist");
        {
            let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
            w.ingest(vec![Extract::new(
                "scanner",
                vec![(dwh("a"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            )])
            .unwrap();
            w.snapshot("2009.1").unwrap();
        }
        let (w, rec) = MetadataWarehouse::open(&dir).unwrap();
        assert_eq!(rec.replayed_batches, 0);
        // Both the current model and the historized copy came back; the
        // version registry is not persisted.
        assert_eq!(w.stats().unwrap().edges, 1);
        assert_eq!(w.published().model_names(), vec!["DWH_CURR", "HIST_2009.1"]);
        assert_eq!(w.published().model("HIST_2009.1").unwrap().len(), 1);
        assert!(w.history().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_checkpoint_folds_and_keeps_answers() {
        let mut w = loaded_warehouse();
        assert!(!w.is_durable());
        w.insert_fact(&dwh("late"), &Term::iri(vocab::cs::HAS_NAME), &Term::plain("late"))
            .unwrap();
        let before = w.search(&SearchRequest::new("customer")).unwrap().instance_count();
        let report = w.checkpoint().unwrap();
        assert_eq!(report.total(), w.stats().unwrap().edges);
        assert!(!w.published().model(w.model_name()).unwrap().is_stacked());
        assert!(w.has_semantic_index(), "a fold changes no content");
        assert_eq!(w.search(&SearchRequest::new("customer")).unwrap().instance_count(), before);
    }

    #[test]
    fn synonym_edges_load() {
        let mut w = MetadataWarehouse::new();
        let n = w.load_synonym_edges().unwrap();
        assert!(n > 0);
        // Idempotent: re-loading adds nothing.
        assert_eq!(w.load_synonym_edges().unwrap(), 0);
    }

    #[test]
    fn answer_executes_typeof_candidate_from_label() {
        let w = loaded_warehouse();
        // "column" exact-matches the Application1_View_Column label, so the
        // TypeOf candidate runs and returns the class's only named instance.
        let result = w.answer(&crate::answer::AnswerRequest::new("column")).unwrap();
        assert!(result.completeness.is_complete());
        assert!(!result.degraded);
        assert!(!result.executed.is_empty());
        assert_eq!(result.candidates[0].covered_tokens, 1);
        assert!(
            result.answers.iter().any(|a| a.instance == dwh("customer_id")),
            "answers: {:?}",
            result.answers
        );
        let stats = w.answer_stats();
        assert_eq!(stats.answered, 1);
        assert!(stats.candidates_executed >= 1);
        assert_eq!(stats.truncated, 0);
    }

    #[test]
    fn answer_falls_back_to_name_filter_when_nothing_matches_schema() {
        let w = loaded_warehouse();
        // No label contains "customer"; the fallback name-filter candidate
        // still finds customer_id by its hasName value.
        let result = w.answer(&crate::answer::AnswerRequest::new("customer")).unwrap();
        assert!(result.matches.is_empty());
        assert_eq!(result.unmatched_tokens, vec!["customer".to_string()]);
        assert!(result.answers.iter().any(|a| a.name == "customer_id"));
    }

    #[test]
    fn answer_budget_trips_are_truthful_and_counted() {
        let w = loaded_warehouse();
        let req = crate::answer::AnswerRequest::new("column")
            .with_budget(QueryBudget::unlimited().with_max_steps(2));
        let result = w.answer(&req).unwrap();
        assert!(!result.completeness.is_complete());
        assert_eq!(w.answer_stats().truncated, 1);
    }

    #[test]
    fn breaker_fallback_serves_degraded_base_graph_answers() {
        use std::sync::Arc;
        use std::time::Duration;
        use mdw_rdf::budget::ManualTime;

        let mut w = loaded_warehouse();
        let time = Arc::new(ManualTime::new());
        w.enable_breaker(
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(60),
                success_threshold: 1,
            },
            time.clone(),
        );
        assert_eq!(w.breaker_state(), Some(BreakerState::Closed));

        // A query that blows its step budget counts as an entailment failure.
        let starved = SearchRequest::new("customer")
            .with_budget(QueryBudget::unlimited().with_max_steps(0));
        let r = w.search(&starved).unwrap();
        assert_eq!(r.completeness.reason(), Some(TruncationReason::StepLimit));
        assert_eq!(w.breaker_state(), Some(BreakerState::Open));

        // Open breaker: answers come from the base graph, flagged degraded —
        // the asserted class is still found, the inferred superclass is not.
        let r = w.search(&SearchRequest::new("customer")).unwrap();
        assert!(r.degraded);
        assert!(matches!(r.completeness, Completeness::Complete));
        assert!(r.group("Column").is_some());
        assert!(r.group("Attribute").is_none());

        let lin = w
            .lineage(&LineageRequest::downstream(dwh("client_information_id")))
            .unwrap();
        assert!(lin.degraded);
        assert!(lin.endpoint(&dwh("customer_id")).is_some());

        let out = w
            .sem_match(
                &SemMatch::new("{ ?x rdf:type dm:Attribute }")
                    .rulebase("OWLPRIME")
                    .alias("dm", vocab::cs::DM)
                    .select(&["?x"]),
            )
            .unwrap();
        assert!(out.degraded);
        assert!(out.rows.is_empty());

        // Cool-down elapses → half-open probe succeeds → healthy again.
        time.advance(Duration::from_secs(61));
        let r = w.search(&SearchRequest::new("customer")).unwrap();
        assert!(!r.degraded);
        assert!(r.group("Attribute").is_some());
        assert_eq!(w.breaker_state(), Some(BreakerState::Closed));
    }

    #[test]
    fn schema_flow_and_drill_down_empty_without_schemas() {
        let w = loaded_warehouse();
        assert!(w.schema_flow().unwrap().is_empty());
        assert!(w
            .drill_down(&dwh("a"), &dwh("b"))
            .unwrap()
            .is_empty());
    }
}
