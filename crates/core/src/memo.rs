//! Shared memoization for the per-query-invariant lookups of the
//! multiversion model.
//!
//! Two resolutions dominate presentation and aggregation cost and
//! depend only on the schema *structure* (never on fact rows):
//!
//! * **mapping-closure routes** — where a member version's data lands
//!   in a target structure version ([`crate::mapping::MappingGraph::resolve`]);
//! * **roll-up paths** — a leaf's ancestors at a named level and
//!   instant ([`crate::levels::ancestors_at_level`]).
//!
//! A third piece of state is the paper's middle tier itself (§5.1,
//! Temporal DW → MultiVersion DW → cube): the **presented fact table**
//! `f'` of one temporal mode (Definition 11), which
//! [`crate::evaluate_par`] reads instead of re-presenting every fact on
//! every query.
//!
//! [`QueryMemo`] wraps one stamp-keyed cache ([`mvolap_exec::GenCache`])
//! per lookup kind plus the presentation store. Every lookup carries
//! [`Tmd::stamp`], which names one schema instance in one structural
//! state: any structural mutation (evolution operators, new
//! versions/mappings) draws a new stamp and thereby flushes every
//! cache on its next access, and two instances — a primary and its
//! follower — never share an entry. The memo is `Arc`-shareable across
//! worker threads and across queries: hand one `Arc<QueryMemo>` to
//! every `*_par` entry point of a serving process and routes computed
//! by one query are reused by all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mvolap_exec::{CacheStats, GenCache};
use mvolap_temporal::Instant;

use crate::ids::{DimensionId, MemberVersionId, StructureVersionId};
use crate::mapping::MappingRoute;
use crate::multiversion::{Presentation, PresentedFacts};
use crate::schema::Tmd;
use crate::tmp::TemporalMode;

/// Cache key of a mapping-closure resolution: which member version's
/// data, presented in which structure version of which dimension.
pub type RouteKey = (DimensionId, MemberVersionId, StructureVersionId);

/// Cache key of a roll-up resolution: leaf member version, target level
/// name, and the hierarchy instant it is resolved at.
pub type AncestorKey = (DimensionId, MemberVersionId, String, Instant);

/// Hit/miss counters of a [`QueryMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Mapping-closure route cache counters.
    pub routes: CacheStats,
    /// Roll-up ancestor cache counters.
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

/// The presented tables of one schema instance, at most one per
/// cacheable mode (`tcm` and each `Version`); shared by every shard of
/// a [`ShardedMemo`].
#[derive(Default)]
struct PresentationStore {
    inner: Mutex<(u64, Vec<Arc<CachedPresentation>>)>,
}

impl PresentationStore {
    /// The store, past a panic of another holder: every update is one
    /// assignment or push, so the data is valid at every step.
    fn lock(&self) -> std::sync::MutexGuard<'_, (u64, Vec<Arc<CachedPresentation>>)> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl std::fmt::Debug for PresentationStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("PresentationStore")
            .field("stamp", &inner.0)
            .field("entries", &inner.1.len())
            .finish()
    }
}

/// Shared memo for mapping routes, roll-up paths and presented fact
/// tables, invalidated by the schema stamp.
#[derive(Debug, Default)]
pub struct QueryMemo {
    routes: GenCache<RouteKey, Vec<MappingRoute>>,
    ancestors: GenCache<AncestorKey, Vec<MemberVersionId>>,
    presentations: Arc<PresentationStore>,
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

    /// The roll-up ancestors for `key` under `tmd`'s current stamp,
    /// computing them with `make` on a miss.
    pub fn ancestors<F>(&self, tmd: &Tmd, key: AncestorKey, make: F) -> Arc<Vec<MemberVersionId>>
    where
        F: FnOnce() -> Vec<MemberVersionId>,
    {
        self.ancestors.get_or_insert_with(tmd.stamp(), key, make)
    }

    /// The roll-up ancestors for `key`, computing them with the
    /// fallible `make` on a miss. Failures propagate and are **not**
    /// cached — roll-up errors are time-dependent and must resurface on
    /// every affected lookup.
    ///
    /// # Errors
    ///
    /// Whatever `make` returns.
    pub fn try_ancestors<F, E>(
        &self,
        tmd: &Tmd,
        key: AncestorKey,
        make: F,
    ) -> std::result::Result<Arc<Vec<MemberVersionId>>, E>
    where
        F: FnOnce() -> std::result::Result<Vec<MemberVersionId>, E>,
    {
        if let Some(v) = self.ancestors.get(tmd.stamp(), &key) {
            return Ok(v);
        }
        let v = make()?;
        Ok(self.ancestors.get_or_insert_with(tmd.stamp(), key, || v))
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
        let entry = {
            let inner = self.presentations.lock();
            (inner.0 == tmd.stamp())
                .then(|| inner.1.iter().find(|e| &e.table.mode == mode).cloned())
                .flatten()
        };
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
        let mut inner = self.presentations.lock();
        if inner.0 != tmd.stamp() {
            *inner = (tmd.stamp(), Vec::new());
        }
        let entries = &mut inner.1;
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
        let inner = self.presentations.lock();
        inner.1.iter().map(|e| e.table.mode.clone()).collect()
    }

    /// Lifetime counters of every cache.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            routes: self.routes.stats(),
            ancestors: self.ancestors.stats(),
            presentations: CacheStats {
                hits: self.presented_hits.load(Ordering::Relaxed),
                misses: self.presented_misses.load(Ordering::Relaxed),
            },
            extended: self.presented_extended.load(Ordering::Relaxed),
        }
    }

    /// Cached entries (routes, ancestors) — diagnostics.
    #[must_use]
    pub fn len(&self) -> (usize, usize) {
        (self.routes.len(), self.ancestors.len())
    }

    /// True when no route, roll-up or presented table is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty() && self.ancestors.is_empty() && self.presented_modes().is_empty()
    }
}

/// Session-affine sharding over [`QueryMemo`]: a hash of the session
/// id picks the shard, so workers serving different sessions stop
/// contending on one memo's locks while one session's repeated lookups
/// keep landing on the same warm shard. Each shard invalidates
/// independently on the schema stamp, exactly like a lone
/// [`QueryMemo`] — sharding changes contention, never answers. The
/// presented tables are the exception: every shard reads **one**
/// shared store, so a server holds one table per mode, not one per
/// shard; each shard still counts its own lookups.
#[derive(Debug)]
pub struct ShardedMemo {
    shards: Vec<Arc<QueryMemo>>,
}

impl ShardedMemo {
    /// `shards` memos (clamped to at least one) over one presentation
    /// store.
    #[must_use]
    pub fn new(shards: usize) -> ShardedMemo {
        let store = Arc::new(PresentationStore::default());
        ShardedMemo {
            shards: (0..shards.max(1))
                .map(|_| {
                    Arc::new(QueryMemo {
                        presentations: Arc::clone(&store),
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
    use mvolap_temporal::Interval;

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
        let akey = (
            DimensionId(0),
            MemberVersionId(0),
            "Division".to_string(),
            Instant::ym(2001, 6),
        );
        memo.ancestors(&cs.tmd, akey.clone(), Vec::new);
        cs.tmd
            .add_version(
                cs.org,
                crate::member::MemberVersionSpec::named("X"),
                Interval::since(Instant::ym(2004, 1)),
            )
            .unwrap();
        let recomputed = std::cell::Cell::new(false);
        memo.ancestors(&cs.tmd, akey, || {
            recomputed.set(true);
            Vec::new()
        });
        assert!(recomputed.get());
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
