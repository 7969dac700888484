//! Full historization (Section III.A).
//!
//! "The meta-data warehouse has a full historization mechanism in place,
//! i.e. each meta-data graph is historized completely into a dedicated set
//! of historization tables. There are approximately 130,000 nodes and about
//! 1.2 million edges in every version. The number of versions is following
//! the release cycles of the major Credit Suisse applications, i.e. up to
//! eight versions in one year. But at the same time, the amount of meta-data
//! also increases … about 20 to 30% every year."
//!
//! [`History`] implements that policy: every release takes a *complete*
//! snapshot of the current model into a dedicated historization model
//! (`HIST_<tag>`), records its statistics, and can diff any two versions.
//! The shared append-only dictionary keeps snapshots cheap in string storage
//! (terms are interned once), and since a version is by definition immutable
//! it shares the current model's folded columns by `Arc`: taking a snapshot
//! is an [`LsmStore::checkpoint_with_copy`] — fold the current model's
//! stacked runs into its base and install the same base under the
//! historization name, copying no triples at all. On a durable store the
//! version lands in the same snapshot commit, so its `HIST_<tag>` model
//! survives reopen (the registry itself is not persisted).

use mdw_rdf::frozen::{FrozenGraph, FrozenStore};
use mdw_rdf::lsm::LsmStore;
use mdw_rdf::GraphStats;
use mdw_rdf::triple::Triple;

use crate::error::MdwError;

/// Prefix of historization model names.
pub const HIST_PREFIX: &str = "HIST_";

/// One historized version.
#[derive(Debug, Clone)]
pub struct VersionRecord {
    /// Release tag, e.g. `"2009.3"`.
    pub tag: String,
    /// The historization model holding the full snapshot.
    pub model: String,
    /// Snapshot statistics (the paper's nodes/edges scale numbers).
    pub stats: GraphStats,
    /// Monotonic sequence number (snapshot order).
    pub sequence: usize,
}

/// The difference between two versions.
#[derive(Debug, Clone)]
pub struct VersionDiff {
    /// Tag of the older version.
    pub from: String,
    /// Tag of the newer version.
    pub to: String,
    /// Triples present in `to` but not `from`.
    pub added: Vec<Triple>,
    /// Triples present in `from` but not `to`.
    pub removed: Vec<Triple>,
}

impl VersionDiff {
    /// Total change volume.
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// The historization registry.
#[derive(Debug, Default, Clone)]
pub struct History {
    versions: Vec<VersionRecord>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a complete snapshot of `source_model` of `store` under `tag`.
    /// Fails if the tag was already used or the source model is missing.
    ///
    /// The version shares the source model's folded columns by `Arc` — no
    /// triple is copied. Later writes to the source stack new runs above
    /// the shared base and leave the version intact.
    pub fn snapshot(
        &mut self,
        store: &LsmStore,
        source_model: &str,
        tag: &str,
    ) -> Result<&VersionRecord, MdwError> {
        if self.get(tag).is_some() {
            return Err(MdwError::InvalidRequest(format!("version {tag} already exists")));
        }
        let model = format!("{HIST_PREFIX}{tag}");
        store.checkpoint_with_copy(source_model, &model)?;
        let stats = store.snapshot().model(&model)?.stats();
        self.push(tag, model, stats);
        Ok(self.versions.last().expect("just pushed"))
    }

    fn push(&mut self, tag: &str, model: String, stats: GraphStats) {
        self.versions.push(VersionRecord {
            tag: tag.to_string(),
            model,
            stats,
            sequence: self.versions.len(),
        });
    }

    /// All versions in snapshot order.
    pub fn versions(&self) -> &[VersionRecord] {
        &self.versions
    }

    /// The most recent version.
    pub fn latest(&self) -> Option<&VersionRecord> {
        self.versions.last()
    }

    /// Looks up a version by tag.
    pub fn get(&self, tag: &str) -> Option<&VersionRecord> {
        self.versions.iter().find(|v| v.tag == tag)
    }

    /// Number of historized versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True if no snapshot was taken yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Diffs two historized versions of `snapshot` (added/removed triples
    /// of `to` relative to `from`).
    pub fn diff(
        &self,
        snapshot: &FrozenStore,
        from: &str,
        to: &str,
    ) -> Result<VersionDiff, MdwError> {
        let from_rec = self
            .get(from)
            .ok_or_else(|| MdwError::NotFound(format!("version {from}")))?;
        let to_rec = self
            .get(to)
            .ok_or_else(|| MdwError::NotFound(format!("version {to}")))?;
        let (added, removed) =
            diff_graphs(snapshot.model(&from_rec.model)?, snapshot.model(&to_rec.model)?);
        Ok(VersionDiff {
            from: from.to_string(),
            to: to.to_string(),
            added,
            removed,
        })
    }

    /// Growth summary: `(tag, nodes, edges)` per version — the data behind
    /// the paper's "20 to 30 % every year" claim.
    pub fn growth_series(&self) -> Vec<(String, usize, usize)> {
        self.versions
            .iter()
            .map(|v| (v.tag.clone(), v.stats.nodes, v.stats.edges))
            .collect()
    }
}

/// `(added, removed)`: the triples of `to` missing from `from`, and the
/// other way round, each in SPO order.
fn diff_graphs(from: &FrozenGraph, to: &FrozenGraph) -> (Vec<Triple>, Vec<Triple>) {
    let added = to.iter().filter(|t| !from.contains(*t)).collect();
    let removed = from.iter().filter(|t| !to.contains(*t)).collect();
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::LsmConfig;
    use mdw_rdf::term::Term;

    fn fact(s: &str, o: &str) -> JournalOp {
        JournalOp::Insert(
            Term::iri(format!("http://ex.org/{s}")),
            Term::iri("http://ex.org/p"),
            Term::iri(format!("http://ex.org/{o}")),
        )
    }

    fn store_with_facts(n: usize) -> LsmStore {
        let store = LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() });
        let ops: Vec<JournalOp> = (0..n).map(|i| fact(&format!("s{i}"), &format!("o{i}"))).collect();
        store.write_batch("DWH_CURR", &ops).unwrap();
        store
    }

    fn len(store: &LsmStore, model: &str) -> usize {
        store.snapshot().model(model).unwrap().len()
    }

    #[test]
    fn snapshot_is_complete_copy() {
        let store = store_with_facts(5);
        let mut history = History::new();
        let rec = history.snapshot(&store, "DWH_CURR", "2009.1").unwrap();
        assert_eq!(rec.stats.edges, 5);
        assert_eq!(rec.model, "HIST_2009.1");
        assert_eq!(len(&store, "HIST_2009.1"), 5);
    }

    #[test]
    fn snapshot_shares_columns_and_stays_isolated() {
        let store = store_with_facts(4);
        let mut history = History::new();
        history.snapshot(&store, "DWH_CURR", "v1").unwrap();
        let snap = store.snapshot();
        assert!(
            std::sync::Arc::ptr_eq(
                snap.model("DWH_CURR").unwrap().base_arc(),
                snap.model("HIST_v1").unwrap().base_arc()
            ),
            "snapshot must share the source's frozen columns, not copy them"
        );
        // Later writes to the source leave the version and the held
        // snapshot reading the old state.
        store.write_batch("DWH_CURR", &[fact("late", "x")]).unwrap();
        assert_eq!(len(&store, "DWH_CURR"), 5);
        assert_eq!(len(&store, "HIST_v1"), 4);
        assert_eq!(snap.model("DWH_CURR").unwrap().len(), 4);
    }

    #[test]
    fn duplicate_tag_rejected() {
        let store = store_with_facts(1);
        let mut history = History::new();
        history.snapshot(&store, "DWH_CURR", "v1").unwrap();
        assert!(matches!(
            history.snapshot(&store, "DWH_CURR", "v1"),
            Err(MdwError::InvalidRequest(_))
        ));
    }

    #[test]
    fn missing_source_model_rejected() {
        let store = store_with_facts(1);
        let mut history = History::new();
        assert!(history.snapshot(&store, "missing", "v1").is_err());
        assert!(history.is_empty());
    }

    #[test]
    fn diff_between_versions() {
        let store = store_with_facts(2);
        let mut history = History::new();
        history.snapshot(&store, "DWH_CURR", "v1").unwrap();
        // Add one, remove one.
        let JournalOp::Insert(s, p, o) = fact("s0", "o0") else { unreachable!() };
        store
            .write_batch("DWH_CURR", &[fact("added", "x"), JournalOp::Remove(s, p, o)])
            .unwrap();
        history.snapshot(&store, "DWH_CURR", "v2").unwrap();

        let snap = store.snapshot();
        let diff = history.diff(&snap, "v1", "v2").unwrap();
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.churn(), 2);

        // Reverse diff swaps added/removed.
        let rev = history.diff(&snap, "v2", "v1").unwrap();
        assert_eq!(rev.added.len(), 1);
        assert_eq!(rev.removed.len(), 1);
        assert_eq!(rev.added, diff.removed);
    }

    #[test]
    fn diff_unknown_version_fails() {
        let store = store_with_facts(1);
        let history = History::new();
        assert!(matches!(
            history.diff(&store.snapshot(), "a", "b"),
            Err(MdwError::NotFound(_))
        ));
    }

    #[test]
    fn growth_series_in_order() {
        let store = store_with_facts(2);
        let mut history = History::new();
        history.snapshot(&store, "DWH_CURR", "v1").unwrap();
        store.write_batch("DWH_CURR", &[fact("n", "m")]).unwrap();
        history.snapshot(&store, "DWH_CURR", "v2").unwrap();
        let series = history.growth_series();
        assert_eq!(series.len(), 2);
        assert!(series[1].2 > series[0].2);
        assert_eq!(history.latest().unwrap().tag, "v2");
        assert_eq!(history.versions()[0].sequence, 0);
    }
}
