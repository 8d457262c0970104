//! Shared memoization for the per-query-invariant lookups of the
//! multiversion model.
//!
//! Two resolutions dominate presentation and aggregation cost and
//! depend only on the schema *structure* (never on fact rows):
//!
//! * **mapping-closure routes** — where a member version's data lands
//!   in a target structure version ([`crate::mapping::MappingGraph::resolve`]);
//! * **roll-ups** — a leaf's ancestors at a named level
//!   ([`crate::levels::ancestors_at_level`]), tabulated once per
//!   structure version in a [`Rollup`].
//!
//! A third piece of state is the paper's middle tier itself (§5.1,
//! Temporal DW → MultiVersion DW → cube): the **presented fact table**
//! `f'` of one temporal mode (Definition 11), which
//! [`crate::evaluate_par`] reads instead of re-presenting every fact on
//! every query.
//!
//! [`QueryMemo`] wraps a stamp-keyed route cache
//! ([`mvolap_exec::GenCache`]) plus one schema store holding the
//! structure versions, the roll-up tables and the presented tables.
//! Every lookup carries [`Tmd::stamp`], which names one schema instance
//! in one structural state: any structural mutation (evolution
//! operators, new versions/mappings) draws a new stamp and thereby
//! flushes every cache on its next access, and two instances — a
//! primary and its follower — never share an entry. The memo is
//! `Arc`-shareable across worker threads and across queries: hand one
//! `Arc<QueryMemo>` to every `*_par` entry point of a serving process
//! and routes computed by one query are reused by all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use mvolap_exec::{CacheStats, GenCache};
use mvolap_temporal::{Instant, Interval};

use crate::error::{CoreError, Result};
use crate::ids::{DimensionId, MemberVersionId, StructureVersionId};
use crate::levels::{ancestors_at_level, levels_at};
use crate::mapping::MappingRoute;
use crate::multiversion::{Presentation, PresentedFacts};
use crate::schema::Tmd;
use crate::structure_version::StructureVersion;
use crate::tmp::TemporalMode;

/// Cache key of a mapping-closure resolution: which member version's
/// data, presented in which structure version of which dimension.
pub type RouteKey = (DimensionId, MemberVersionId, StructureVersionId);

/// Hit/miss counters of a [`QueryMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Mapping-closure route cache counters.
    pub routes: CacheStats,
    /// Roll-up lookups: a hit read a [`Rollup`] table, a miss built a
    /// table or derived one leaf's ancestors outside every table.
    pub ancestors: CacheStats,
    /// Presented-table lookups: a hit touched no fact row, a miss
    /// folded every fact from row 0.
    pub presentations: CacheStats,
    /// Presented-table lookups that found a table over fewer facts and
    /// folded only the appended morsels (neither a hit nor a miss).
    pub extended: u64,
}

impl std::ops::Add for MemoStats {
    type Output = MemoStats;

    /// Counter-wise sum — the shards of a [`ShardedMemo`] as one view.
    fn add(self, rhs: MemoStats) -> MemoStats {
        MemoStats {
            routes: self.routes + rhs.routes,
            ancestors: self.ancestors + rhs.ancestors,
            presentations: self.presentations + rhs.presentations,
            extended: self.extended + rhs.extended,
        }
    }
}

/// One cached presented fact table: valid for the stamp of the store
/// holding it, its mode and one morsel size.
#[derive(Debug)]
pub(crate) struct CachedPresentation {
    /// The morsel size the fold ran at: it fixes the association tree.
    pub(crate) morsel_size: usize,
    /// The fold state after the last whole morsel of `facts` rows.
    pub(crate) whole: Presentation,
    /// The fact rows `table` covers.
    pub(crate) facts: usize,
    /// The finished presentation.
    pub(crate) table: Arc<PresentedFacts>,
}

/// What the presentation cache holds for one lookup.
pub(crate) enum Cached {
    /// The table over exactly the current facts.
    Hit(Arc<PresentedFacts>),
    /// The fold state after the first `rows` facts — a whole number of
    /// morsels — of a table over fewer facts than there are now.
    Extend(Presentation, usize),
    /// Nothing usable: fold from row 0.
    Miss,
}

/// Marks a member version not valid in a structure version.
const ABSENT: (u32, u32) = (u32::MAX, u32::MAX);

/// The roll-up of one `(dimension, level)` under one schema stamp: for
/// each structure version and each member version valid in it, the
/// member's ancestors at the level (Definition 4) as *group ids*.
///
/// A group is a member *name*: versions may share one (a Transform can
/// keep its name), so a name's group id is the first version, in id
/// order, that carries it. The table is exact because structure
/// versions partition time so that every member and relationship
/// validity is constant inside each one (Definition 9).
#[derive(Debug)]
pub struct Rollup {
    dim: DimensionId,
    /// The dimension's name, for the error of a missing level.
    dimension: String,
    level: String,
    /// Per member version id: its group id.
    group_of: Vec<MemberVersionId>,
    /// The group of rows with no ancestor at the level.
    unclassified: MemberVersionId,
    /// The valid time of each structure version, in order (they
    /// partition time, so a binary search finds the one holding an
    /// instant).
    intervals: Vec<Interval>,
    /// Per structure version of the stamp, in order: `None` when the
    /// level does not exist in it.
    versions: Vec<Option<LeafGroups>>,
}

/// One structure version's row of a [`Rollup`].
#[derive(Debug)]
struct LeafGroups {
    /// Per member version id: its range of `groups`, or [`ABSENT`].
    spans: Vec<(u32, u32)>,
    groups: Vec<MemberVersionId>,
}

impl Rollup {
    /// Builds the table of `level` over `structure_versions`, deriving
    /// each structure version's levels once, at its start.
    fn build(
        tmd: &Tmd,
        dim: DimensionId,
        level: &str,
        structure_versions: &[StructureVersion],
    ) -> Result<Rollup> {
        let dimension = tmd.dimension(dim)?;
        let mut first: HashMap<&str, MemberVersionId> = HashMap::new();
        let group_of: Vec<MemberVersionId> = dimension
            .versions()
            .iter()
            .map(|v| *first.entry(v.name.as_str()).or_insert(v.id))
            .collect();
        let versions = structure_versions
            .iter()
            .map(|sv| {
                let at = sv.interval.start();
                let (_, levels) = levels_at(dimension, at);
                let target = levels.iter().find(|l| l.name == level)?;
                let mut in_level = vec![false; group_of.len()];
                for &m in &target.members {
                    in_level[m.index()] = true;
                }
                let mut row = LeafGroups {
                    spans: vec![ABSENT; group_of.len()],
                    groups: Vec::new(),
                };
                for &leaf in sv.members.get(dim.index()).map_or(&[][..], Vec::as_slice) {
                    let start = row.groups.len();
                    if in_level[leaf.index()] {
                        row.groups.push(group_of[leaf.index()]);
                    } else {
                        let mut ancestors = dimension.ancestors_at(leaf, at);
                        ancestors.retain(|a| in_level[a.index()]);
                        ancestors.sort_unstable();
                        ancestors.dedup();
                        row.groups
                            .extend(ancestors.iter().map(|a| group_of[a.index()]));
                    }
                    row.spans[leaf.index()] = (start as u32, row.groups.len() as u32);
                }
                Some(row)
            })
            .collect();
        Ok(Rollup {
            dim,
            dimension: dimension.name().to_owned(),
            level: level.to_owned(),
            unclassified: first
                .get(UNCLASSIFIED)
                .copied()
                .unwrap_or(MemberVersionId(u32::MAX)),
            group_of,
            intervals: structure_versions.iter().map(|sv| sv.interval).collect(),
            versions,
        })
    }

    /// The dimension this table rolls up.
    #[must_use]
    pub fn dimension(&self) -> DimensionId {
        self.dim
    }

    /// The group ids of `leaf`'s ancestors at the level in structure
    /// version `sv` (an index into [`QueryMemo::structure_versions`]),
    /// in ancestor id order; `Ok(None)` when `leaf` is not valid in
    /// `sv` or `sv` is out of range.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownLevel`] when the level does not exist in `sv`.
    pub fn groups(&self, sv: usize, leaf: MemberVersionId) -> Result<Option<&[MemberVersionId]>> {
        match self.versions.get(sv) {
            None => Ok(None),
            Some(None) => Err(CoreError::UnknownLevel {
                dimension: self.dimension.clone(),
                level: self.level.clone(),
            }),
            Some(Some(row)) => Ok(match row.spans.get(leaf.index()) {
                Some(&(start, end)) if (start, end) != ABSENT => {
                    Some(&row.groups[start as usize..end as usize])
                }
                _ => None,
            }),
        }
    }

    /// The group id of member version `id`: the first version carrying
    /// its name.
    #[must_use]
    pub fn group_of(&self, id: MemberVersionId) -> MemberVersionId {
        self.group_of[id.index()]
    }

    /// Appends the group ids of `leaf`'s ancestors at the level at
    /// instant `at` to `out`: from the row of the structure version
    /// holding `at` when `leaf` is valid there (a hit), else derived by
    /// [`ancestors_at_level`] (a miss).
    pub(crate) fn extend(
        &self,
        tmd: &Tmd,
        leaf: MemberVersionId,
        at: Instant,
        out: &mut Vec<MemberVersionId>,
        lookups: &mut CacheStats,
    ) -> Result<()> {
        let sv = Some(self.intervals.partition_point(|iv| iv.end() < at))
            .filter(|&v| self.intervals.get(v).is_some_and(|iv| iv.contains(at)));
        if let Some(groups) = sv.map(|v| self.groups(v, leaf)).transpose()?.flatten() {
            lookups.hits += 1;
            out.extend_from_slice(groups);
            return Ok(());
        }
        lookups.misses += 1;
        let ancestors = ancestors_at_level(tmd.dimension(self.dim)?, leaf, &self.level, at)?;
        out.extend(ancestors.into_iter().map(|a| self.group_of(a)));
        Ok(())
    }

    /// The member name group `group` renders as.
    pub(crate) fn group_name(&self, tmd: &Tmd, group: MemberVersionId) -> String {
        let version = tmd.dimension(self.dim).and_then(|d| d.version(group));
        version.map_or_else(|_| UNCLASSIFIED.to_owned(), |v| v.name.clone())
    }

    /// The group id of rows without an ancestor at the level: the group
    /// of a member named `(unclassified)` when there is one.
    #[must_use]
    pub fn unclassified(&self) -> MemberVersionId {
        self.unclassified
    }
}

/// The key name of a row without an ancestor at the grouped level.
const UNCLASSIFIED: &str = "(unclassified)";

/// Everything the memo keeps for one schema stamp besides routes.
#[derive(Default)]
struct Stamped {
    stamp: u64,
    structure_versions: Option<Arc<Vec<StructureVersion>>>,
    rollups: Vec<Arc<Rollup>>,
    presentations: Vec<Arc<CachedPresentation>>,
}

/// The structure versions, roll-up tables and presented tables of one
/// schema instance; shared by every shard of a [`ShardedMemo`].
#[derive(Default)]
struct SchemaStore {
    inner: Mutex<Stamped>,
}

impl std::fmt::Debug for SchemaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("SchemaStore")
            .field("stamp", &inner.stamp)
            .field("rollups", &inner.rollups.len())
            .field("presentations", &inner.presentations.len())
            .finish()
    }
}

impl SchemaStore {
    /// The store, past a panic of another holder: every update is one
    /// assignment or push, so the data is valid at every step.
    fn lock(&self) -> MutexGuard<'_, Stamped> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The store's state for `stamp`, dropping another stamp's first.
    fn at(&self, stamp: u64) -> MutexGuard<'_, Stamped> {
        let mut inner = self.lock();
        if inner.stamp != stamp {
            *inner = Stamped {
                stamp,
                ..Stamped::default()
            };
        }
        inner
    }
}

/// Shared memo for mapping routes, structure versions, roll-ups and
/// presented fact tables, invalidated by the schema stamp.
#[derive(Debug, Default)]
pub struct QueryMemo {
    routes: GenCache<RouteKey, Vec<MappingRoute>>,
    store: Arc<SchemaStore>,
    rollup_hits: AtomicU64,
    rollup_misses: AtomicU64,
    presented_hits: AtomicU64,
    presented_misses: AtomicU64,
    presented_extended: AtomicU64,
}

impl QueryMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        QueryMemo::default()
    }

    /// An empty memo behind an `Arc`, ready to share across threads and
    /// queries.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(QueryMemo::new())
    }

    /// The mapping routes for `key` under `tmd`'s current stamp,
    /// computing them with `make` on a miss.
    pub fn routes<F>(&self, tmd: &Tmd, key: RouteKey, make: F) -> Arc<Vec<MappingRoute>>
    where
        F: FnOnce() -> Vec<MappingRoute>,
    {
        self.routes.get_or_insert_with(tmd.stamp(), key, make)
    }

    /// [`Tmd::structure_versions`] of `tmd`, inferred once per stamp.
    pub fn structure_versions(&self, tmd: &Tmd) -> Arc<Vec<StructureVersion>> {
        if let Some(svs) = &self.store.at(tmd.stamp()).structure_versions {
            return Arc::clone(svs);
        }
        let svs = Arc::new(tmd.structure_versions());
        let mut inner = self.store.at(tmd.stamp());
        Arc::clone(inner.structure_versions.get_or_insert(svs))
    }

    /// The roll-up table of `dim` at `level` over
    /// [`QueryMemo::structure_versions`], built on first use per stamp
    /// (and counted as one roll-up miss).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`] for a bad `dim`.
    pub fn rollup(&self, tmd: &Tmd, dim: DimensionId, level: &str) -> Result<Arc<Rollup>> {
        let find = |inner: &Stamped| {
            let mut rollups = inner.rollups.iter();
            rollups.find(|r| r.dim == dim && r.level == level).cloned()
        };
        if let Some(r) = find(&self.store.at(tmd.stamp())) {
            return Ok(r);
        }
        let built = Arc::new(Rollup::build(
            tmd,
            dim,
            level,
            &self.structure_versions(tmd),
        )?);
        self.count_rollups(0, 1);
        let mut inner = self.store.at(tmd.stamp());
        Ok(find(&inner).unwrap_or_else(|| {
            inner.rollups.push(Arc::clone(&built));
            built
        }))
    }

    /// Adds one query's roll-up lookups to the counters.
    pub(crate) fn count_rollups(&self, hits: u64, misses: u64) {
        self.rollup_hits.fetch_add(hits, Ordering::Relaxed);
        self.rollup_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Looks up `mode`'s presented table for `tmd` at `morsel_size`,
    /// counting a hit, an extension or a miss. Facts only grow within
    /// one stamp, so a table over fewer facts is a prefix to extend.
    pub(crate) fn cached_presentation(
        &self,
        tmd: &Tmd,
        mode: &TemporalMode,
        morsel_size: usize,
    ) -> Cached {
        let entry = self
            .store
            .at(tmd.stamp())
            .presentations
            .iter()
            .find(|e| &e.table.mode == mode)
            .cloned();
        let facts = tmd.facts().len();
        match entry {
            Some(e) if e.morsel_size == morsel_size && e.facts == facts => {
                self.presented_hits.fetch_add(1, Ordering::Relaxed);
                Cached::Hit(Arc::clone(&e.table))
            }
            Some(e) if e.morsel_size == morsel_size && e.facts < facts => {
                self.presented_extended.fetch_add(1, Ordering::Relaxed);
                Cached::Extend(e.whole.clone(), e.facts - e.facts % morsel_size)
            }
            _ => {
                self.presented_misses.fetch_add(1, Ordering::Relaxed);
                Cached::Miss
            }
        }
    }

    /// Keeps `entry` as its mode's table for `tmd`. Another stamp's
    /// tables are dropped first; a racing fold that already stored a
    /// table over more facts at the same morsel size wins.
    pub(crate) fn keep_presentation(&self, tmd: &Tmd, entry: CachedPresentation) {
        let mut inner = self.store.at(tmd.stamp());
        let entries = &mut inner.presentations;
        match entries
            .iter()
            .position(|e| e.table.mode == entry.table.mode)
        {
            Some(i) => {
                let kept = &entries[i];
                if kept.morsel_size != entry.morsel_size || kept.facts <= entry.facts {
                    entries[i] = Arc::new(entry);
                }
            }
            None => entries.push(Arc::new(entry)),
        }
    }

    /// The modes the presentation store holds a table for, in the order
    /// they were first cached — diagnostics. Every shard of a
    /// [`ShardedMemo`] reports the same store.
    #[must_use]
    pub fn presented_modes(&self) -> Vec<TemporalMode> {
        let inner = self.store.lock();
        inner
            .presentations
            .iter()
            .map(|e| e.table.mode.clone())
            .collect()
    }

    /// Lifetime counters of every cache.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            routes: self.routes.stats(),
            ancestors: CacheStats {
                hits: self.rollup_hits.load(Ordering::Relaxed),
                misses: self.rollup_misses.load(Ordering::Relaxed),
            },
            presentations: CacheStats {
                hits: self.presented_hits.load(Ordering::Relaxed),
                misses: self.presented_misses.load(Ordering::Relaxed),
            },
            extended: self.presented_extended.load(Ordering::Relaxed),
        }
    }

    /// Cached entries (routes, roll-up tables) — diagnostics.
    #[must_use]
    pub fn len(&self) -> (usize, usize) {
        let inner = self.store.lock();
        (self.routes.len(), inner.rollups.len())
    }

    /// True when no route, roll-up or presented table is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0) && self.presented_modes().is_empty()
    }
}

/// Session-affine sharding over [`QueryMemo`]: a hash of the session
/// id picks the shard, so workers serving different sessions stop
/// contending on one memo's locks while one session's repeated lookups
/// keep landing on the same warm shard. Each shard invalidates
/// independently on the schema stamp, exactly like a lone
/// [`QueryMemo`] — sharding changes contention, never answers. The
/// schema store is the exception: every shard reads **one** shared
/// store of structure versions, roll-up tables and presented tables,
/// so a server holds one table per mode and per roll-up, not one per
/// shard; each shard still counts its own lookups.
#[derive(Debug)]
pub struct ShardedMemo {
    shards: Vec<Arc<QueryMemo>>,
}

impl ShardedMemo {
    /// `shards` memos (clamped to at least one) over one schema store.
    #[must_use]
    pub fn new(shards: usize) -> ShardedMemo {
        let store = Arc::new(SchemaStore::default());
        ShardedMemo {
            shards: (0..shards.max(1))
                .map(|_| {
                    Arc::new(QueryMemo {
                        store: Arc::clone(&store),
                        ..QueryMemo::default()
                    })
                })
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard serving `session` — stable for the session's lifetime.
    /// Fibonacci hashing spreads consecutive session ids across shards
    /// instead of clustering them on `id % n`.
    #[must_use]
    pub fn for_session(&self, session: u64) -> &Arc<QueryMemo> {
        let spread = session.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(spread % self.shards.len() as u64) as usize]
    }

    /// Per-shard lifetime counters, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<MemoStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Counters summed across every shard.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.shards
            .iter()
            .map(|s| s.stats())
            .fold(MemoStats::default(), |acc, s| acc + s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{evaluate_par, AggregateQuery};
    use crate::case_study::case_study;
    use crate::evolution;
    use crate::mapping::MeasureMapping;
    use mvolap_exec::ExecContext;
    use mvolap_temporal::{Instant, Interval};

    #[test]
    fn routes_cached_until_schema_mutates() {
        let mut cs = case_study();
        let memo = QueryMemo::new();
        let key = (DimensionId(0), MemberVersionId(0), StructureVersionId(0));
        let a = memo.routes(&cs.tmd, key, Vec::new);
        let b = memo.routes(&cs.tmd, key, || panic!("cached"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(memo.stats().routes, CacheStats { hits: 1, misses: 1 });

        // An evolution operator draws a new stamp → recompute.
        evolution::create(
            &mut cs.tmd,
            cs.org,
            "Dpt.Fresh",
            Some("Department".into()),
            mvolap_temporal::Instant::ym(2004, 1),
            &[],
        )
        .unwrap();
        let recomputed = std::cell::Cell::new(false);
        let _ = memo.routes(&cs.tmd, key, || {
            recomputed.set(true);
            Vec::new()
        });
        assert!(recomputed.get(), "a new stamp must flush the cache");
    }

    #[test]
    fn plain_version_insert_also_invalidates() {
        let mut cs = case_study();
        let memo = QueryMemo::new();
        let before = memo.rollup(&cs.tmd, cs.org, "Division").unwrap();
        let svs = memo.structure_versions(&cs.tmd);
        assert!(Arc::ptr_eq(
            &before,
            &memo.rollup(&cs.tmd, cs.org, "Division").unwrap()
        ));
        cs.tmd
            .add_version(
                cs.org,
                crate::member::MemberVersionSpec::named("X"),
                Interval::since(Instant::ym(2004, 1)),
            )
            .unwrap();
        let after = memo.rollup(&cs.tmd, cs.org, "Division").unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "a new stamp must rebuild");
        assert!(!Arc::ptr_eq(&svs, &memo.structure_versions(&cs.tmd)));
        assert_eq!(memo.stats().ancestors, CacheStats { hits: 0, misses: 2 });
    }

    /// Two instances whose generation numbers coincide but whose
    /// structures differ — Jones splits 40/60 in one and 25/75 in the
    /// other — go through one memo: each must get its own routes and
    /// its own presented table, never the other's.
    #[test]
    fn equal_generations_of_different_instances_share_nothing() {
        let mut reweighed = case_study();
        for (to, share) in [(reweighed.bill, 0.25), (reweighed.paul, 0.75)] {
            evolution::change_confidence(
                &mut reweighed.tmd,
                reweighed.org,
                reweighed.jones,
                to,
                vec![MeasureMapping::approx_scale(share)],
                vec![MeasureMapping::EXACT_IDENTITY],
            )
            .unwrap();
        }
        let mut original = case_study().tmd;
        while original.generation() < reweighed.tmd.generation() {
            original.bump_generation();
        }
        assert_eq!(original.generation(), reweighed.tmd.generation());

        let svs = original.structure_versions();
        let q = AggregateQuery::by_year(
            reweighed.org,
            "Department",
            crate::TemporalMode::Version(StructureVersionId(2)),
        );
        let ctx = ExecContext::sequential();
        let shared = QueryMemo::new();
        for tmd in [&reweighed.tmd, &original, &reweighed.tmd, &original] {
            let through_shared = evaluate_par(tmd, &svs, &q, &ctx, &shared).unwrap();
            let fresh = evaluate_par(tmd, &svs, &q, &ctx, &QueryMemo::new()).unwrap();
            assert_eq!(through_shared.rows, fresh.rows);
        }
        let bill_2002 = |tmd: &Tmd| {
            evaluate_par(tmd, &svs, &q, &ctx, &shared)
                .unwrap()
                .rows
                .into_iter()
                .find(|r| r.time == "2002" && r.keys[0] == "Dpt.Bill")
                .unwrap()
                .cells[0]
                .value
        };
        assert_eq!(bill_2002(&original), Some(40.0));
        assert_eq!(bill_2002(&reweighed.tmd), Some(25.0));
    }

    #[test]
    fn clones_and_bumps_draw_new_stamps() {
        let mut cs = case_study();
        let copy = cs.tmd.clone();
        assert_ne!(copy.stamp(), cs.tmd.stamp());
        let before = cs.tmd.stamp();
        cs.tmd.bump_generation();
        assert_ne!(cs.tmd.stamp(), before);
        assert_ne!(cs.tmd.stamp(), copy.stamp());
    }

    #[test]
    fn sharded_memo_is_session_stable_and_aggregates_stats() {
        let cs = case_study();
        let memo = ShardedMemo::new(4);
        assert_eq!(memo.shard_count(), 4);
        // Same session → same shard, every time.
        for session in 0..64u64 {
            assert!(Arc::ptr_eq(
                memo.for_session(session),
                memo.for_session(session)
            ));
        }
        // Consecutive session ids land on more than one shard.
        let distinct = (0..64u64)
            .map(|s| memo.for_session(s).as_ref() as *const QueryMemo as usize)
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "sessions must spread across shards");

        // Stats aggregate across shards: one miss + one hit on a
        // single session's shard is visible in the fleet-wide sum.
        let key = (DimensionId(0), MemberVersionId(0), StructureVersionId(0));
        memo.for_session(7).routes(&cs.tmd, key, Vec::new);
        memo.for_session(7)
            .routes(&cs.tmd, key, || panic!("cached"));
        let total = memo.stats();
        assert_eq!(total.routes, CacheStats { hits: 1, misses: 1 });
        let per_shard = memo.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(
            per_shard
                .iter()
                .map(|s| s.routes.hits + s.routes.misses)
                .sum::<u64>(),
            2
        );
    }

    /// Every shard reads one presentation store: a table one session
    /// presented is a hit for a session on another shard, counted there.
    #[test]
    fn sharded_memo_shares_one_presentation_store() {
        let cs = case_study();
        let memo = ShardedMemo::new(4);
        let other = (1..64u64)
            .find(|&s| !Arc::ptr_eq(memo.for_session(s), memo.for_session(0)))
            .expect("sessions spread across shards");
        let svs = cs.tmd.structure_versions();
        let q = AggregateQuery::by_year(cs.org, "Division", crate::TemporalMode::Consistent);
        let ctx = ExecContext::sequential();
        evaluate_par(&cs.tmd, &svs, &q, &ctx, memo.for_session(0)).unwrap();
        evaluate_par(&cs.tmd, &svs, &q, &ctx, memo.for_session(other)).unwrap();
        let first = memo.for_session(0).stats().presentations;
        let second = memo.for_session(other).stats().presentations;
        assert_eq!(first, CacheStats { hits: 0, misses: 1 });
        assert_eq!(second, CacheStats { hits: 1, misses: 0 });
        assert_eq!(
            memo.for_session(other).presented_modes(),
            [crate::TemporalMode::Consistent]
        );
    }

    #[test]
    fn sharded_memo_clamps_to_one_shard() {
        let memo = ShardedMemo::new(0);
        assert_eq!(memo.shard_count(), 1);
        assert!(Arc::ptr_eq(memo.for_session(1), memo.for_session(99)));
    }
}
