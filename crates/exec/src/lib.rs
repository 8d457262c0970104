//! # mvolap-exec
//!
//! A morsel-driven parallel execution engine for the mvolap query tier,
//! built entirely on `std::thread` (scoped threads, no external
//! dependencies). The paper's MultiVersion Fact Table inference
//! (Definition 11) and Data Aggregation (Definition 12) are
//! embarrassingly parallel over fact rows; this crate
//! supplies the two primitives those hot paths need:
//!
//! * [`ExecContext::parallel_fold`] — chunk a slice into fixed-size
//!   *morsels*, fold each morsel into a partial state on whichever
//!   worker claims it, then merge the partial states **in morsel
//!   order**. Because morsel boundaries depend only on `morsel_size`
//!   (never on the thread count) and the merge order is the morsel
//!   order, the result is bit-identical for any number of threads —
//!   including floating-point accumulations, whose association tree is
//!   fixed by the decomposition, not by scheduling.
//! * [`GenCache`] — a shared, `Arc`-friendly memo cache keyed by an
//!   explicit *generation*. Readers pass the current generation with
//!   every lookup; a bumped generation (an evolution operator mutated
//!   the schema) atomically invalidates every cached entry.
//!
//! The crate is deliberately generic: it knows nothing about the
//! multidimensional model. `mvolap-core` layers the model-specific
//! caches (mapping-closure routes, roll-up paths) on top.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Execution-context knobs shared by every parallel entry point.
///
/// `threads == 1` runs the *same* morsel pipeline inline on the calling
/// thread — the sequential path is literally the one-thread case, so
/// sequential and parallel results are the same computation, not two
/// implementations asserted to agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecContext {
    /// Worker threads to use (clamped to at least 1).
    pub threads: usize,
    /// Rows per morsel (clamped to at least 1). Determinism contract:
    /// for a fixed `morsel_size`, results are bit-identical across any
    /// `threads` value.
    pub morsel_size: usize,
}

/// Default morsel size: large enough to amortise scheduling, small
/// enough to load-balance skewed per-row costs (route fan-out varies).
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

impl ExecContext {
    /// A context with `threads` workers and the default morsel size.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ExecContext {
            threads: threads.max(1),
            morsel_size: DEFAULT_MORSEL_SIZE,
        }
    }

    /// The sequential context (`threads = 1`).
    #[must_use]
    pub fn sequential() -> Self {
        ExecContext::new(1)
    }

    /// A context sized to the machine via `std::thread::available_parallelism`.
    #[must_use]
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ExecContext::new(threads)
    }

    /// Overrides the morsel size.
    #[must_use]
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = morsel_size.max(1);
        self
    }

    /// Number of morsels `len` items decompose into.
    #[must_use]
    pub fn morsels_for(&self, len: usize) -> usize {
        len.div_ceil(self.morsel_size)
    }

    /// Folds `items` morsel-by-morsel and merges the per-morsel states
    /// in morsel order.
    ///
    /// * `init()` seeds the state of each morsel;
    /// * `fold(state, index, item)` absorbs one item (`index` is the
    ///   item's position in `items`);
    /// * `merge(acc, next)` combines two adjacent partial states; it is
    ///   applied left-to-right over the morsel sequence.
    ///
    /// Returns `init()` when `items` is empty. Workers claim morsels
    /// from a shared atomic cursor (work stealing), so skewed morsels
    /// do not idle the other workers; the *merge* order is still the
    /// deterministic morsel order regardless of which worker finished
    /// first.
    pub fn parallel_fold<T, S, I, F, M>(&self, items: &[T], init: I, fold: F, mut merge: M) -> S
    where
        T: Sync,
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) + Sync,
        M: FnMut(&mut S, S),
    {
        let partials = self.map_morsels(items, |morsel_start, morsel| {
            let mut state = init();
            for (offset, item) in morsel.iter().enumerate() {
                fold(&mut state, morsel_start + offset, item);
            }
            state
        });
        let mut acc = init();
        for partial in partials {
            merge(&mut acc, partial);
        }
        acc
    }

    /// Runs `work(morsel_start, morsel)` once per morsel and returns the
    /// results in morsel order. The scheduling core of the fold; callers
    /// that merge partials onto a state of their own (an incremental
    /// fold resuming after its last whole morsel) use it directly.
    ///
    /// Two morsels or fewer run on the calling thread: a second thread
    /// would at best halve work smaller than the spawn that starts it.
    /// The decomposition is the same either way, so the bits are too.
    pub fn map_morsels<T, R, W>(&self, items: &[T], work: W) -> Vec<R>
    where
        T: Sync,
        R: Send,
        W: Fn(usize, &[T]) -> R + Sync,
    {
        let morsel_count = self.morsels_for(items.len());
        if morsel_count == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(morsel_count);
        if workers <= 1 || morsel_count <= 2 {
            // Inline: identical decomposition, no spawn overhead.
            return items
                .chunks(self.morsel_size)
                .enumerate()
                .map(|(m, morsel)| work(m * self.morsel_size, morsel))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..morsel_count).map(|_| None).collect());
        let run_worker = || {
            // Claim morsels until the cursor runs past the end; buffer
            // locally and publish per morsel so the lock is held only
            // for a slot write.
            loop {
                let m = cursor.fetch_add(1, Ordering::Relaxed);
                if m >= morsel_count {
                    break;
                }
                let start = m * self.morsel_size;
                let end = (start + self.morsel_size).min(items.len());
                let result = work(start, &items[start..end]);
                slots.lock().expect("slot lock poisoned")[m] = Some(result);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(run_worker);
            }
            // The calling thread is worker 0.
            run_worker();
        });
        slots
            .into_inner()
            .expect("slot lock poisoned")
            .into_iter()
            .map(|slot| slot.expect("every morsel completed"))
            .collect()
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::sequential()
    }
}

/// Hit/miss counters of a [`GenCache`] (diagnostics; monotonic over the
/// cache's lifetime, surviving invalidations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (cold key or stale generation).
    pub misses: u64,
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    /// Counter-wise sum — aggregating the shards of a sharded cache
    /// into one fleet-wide view.
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

struct GenCacheInner<K, V> {
    generation: u64,
    map: HashMap<K, Arc<V>>,
}

/// A shared memo cache with explicit generation-based invalidation.
///
/// Every lookup carries the caller's current *generation* (in mvolap,
/// the schema's stamp: a process-unique number it redraws on every
/// structural mutation — evolution operators, new mappings, new
/// versions). When the presented
/// generation differs from the cache's stored one, the whole map is
/// dropped before the lookup proceeds: entries can never outlive the
/// schema state they were computed from.
///
/// Values are returned as `Arc<V>` so workers share one materialisation
/// without cloning. Lookups compute `make()` *outside* the write lock;
/// two racing workers may both compute a cold key, and the second
/// insert is discarded in favour of the first — wasted work, never a
/// wrong answer.
pub struct GenCache<K, V> {
    inner: RwLock<GenCacheInner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> GenCache<K, V> {
    /// An empty cache at generation 0.
    #[must_use]
    pub fn new() -> Self {
        GenCache {
            inner: RwLock::new(GenCacheInner {
                generation: 0,
                map: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fetches `key` at `generation`, computing it with `make` on a
    /// miss. A generation change flushes all entries first.
    pub fn get_or_insert_with<F>(&self, generation: u64, key: K, make: F) -> Arc<V>
    where
        F: FnOnce() -> V,
    {
        {
            let inner = self.inner.read().expect("cache lock poisoned");
            if inner.generation == generation {
                if let Some(v) = inner.map.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(v);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(make());
        let mut inner = self.inner.write().expect("cache lock poisoned");
        if inner.generation != generation {
            inner.map.clear();
            inner.generation = generation;
        }
        Arc::clone(inner.map.entry(key).or_insert(value))
    }

    /// Fetches `key` at `generation` without computing on a miss.
    /// Returns `None` (and counts nothing) when the entry is absent or
    /// belongs to another generation — use this when the computation is
    /// fallible and its failures must not be cached.
    #[must_use]
    pub fn get(&self, generation: u64, key: &K) -> Option<Arc<V>> {
        let inner = self.inner.read().expect("cache lock poisoned");
        if inner.generation != generation {
            return None;
        }
        let hit = inner.map.get(key).map(Arc::clone);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.read().expect("cache lock poisoned").map.len()
    }

    /// True when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry without changing the stored generation.
    pub fn clear(&self) {
        self.inner.write().expect("cache lock poisoned").map.clear();
    }
}

impl<K: Eq + Hash + Clone, V> Default for GenCache<K, V> {
    fn default() -> Self {
        GenCache::new()
    }
}

impl<K, V> std::fmt::Debug for GenCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().expect("cache lock poisoned");
        let stats = CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        };
        f.debug_struct("GenCache")
            .field("generation", &inner.generation)
            .field("entries", &inner.map.len())
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_sequential_sum_for_any_thread_count() {
        let items: Vec<f64> = (0..10_007).map(|i| (i as f64) * 0.1 + 0.3).collect();
        let fold_with = |threads: usize| {
            ExecContext::new(threads)
                .with_morsel_size(64)
                .parallel_fold(&items, || 0.0f64, |s, _, x| *s += x, |a, b| *a += b)
        };
        let baseline = fold_with(1);
        for threads in [2, 3, 8, 64] {
            // Bit-identical, not approximately equal.
            assert_eq!(baseline.to_bits(), fold_with(threads).to_bits());
        }
    }

    #[test]
    fn fold_indices_cover_every_item_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        let seen = ExecContext::new(4).with_morsel_size(7).parallel_fold(
            &items,
            Vec::new,
            |s: &mut Vec<usize>, i, &item| {
                assert_eq!(i, item);
                s.push(i);
            },
            |a, mut b| a.append(&mut b),
        );
        assert_eq!(seen, items);
    }

    #[test]
    fn fold_empty_returns_init() {
        let r = ExecContext::new(8).parallel_fold(
            &[] as &[u32],
            || 41u32,
            |_, _, _| unreachable!(),
            |_, _| unreachable!(),
        );
        assert_eq!(r, 41);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u32> = (0..513).collect();
        for threads in [1, 2, 8] {
            let out = ExecContext::new(threads)
                .with_morsel_size(10)
                .map_morsels(&items, |start, morsel| (start, morsel.to_vec()));
            assert_eq!(out.len(), 52);
            for (m, (start, morsel)) in out.iter().enumerate() {
                assert_eq!(*start, m * 10);
                assert_eq!(morsel[..], items[*start..(*start + 10).min(513)]);
            }
        }
    }

    #[test]
    fn morsel_count_is_thread_independent() {
        let ctx = ExecContext::new(1).with_morsel_size(100);
        assert_eq!(ctx.morsels_for(0), 0);
        assert_eq!(ctx.morsels_for(1), 1);
        assert_eq!(ctx.morsels_for(100), 1);
        assert_eq!(ctx.morsels_for(101), 2);
        assert_eq!(
            ExecContext::new(16).with_morsel_size(100).morsels_for(101),
            2
        );
    }

    #[test]
    fn clamps_degenerate_knobs() {
        let ctx = ExecContext::new(0).with_morsel_size(0);
        assert_eq!(ctx.threads, 1);
        assert_eq!(ctx.morsel_size, 1);
    }

    #[test]
    fn cache_hits_within_a_generation() {
        let cache: GenCache<u32, String> = GenCache::new();
        let a = cache.get_or_insert_with(1, 7, || "seven".to_string());
        let b = cache.get_or_insert_with(1, 7, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let cache: GenCache<u32, u32> = GenCache::new();
        cache.get_or_insert_with(1, 1, || 10);
        cache.get_or_insert_with(1, 2, || 20);
        assert_eq!(cache.len(), 2);
        // Stale generation: both entries flushed, value recomputed.
        let v = cache.get_or_insert_with(2, 1, || 11);
        assert_eq!(*v, 11);
        assert_eq!(cache.len(), 1);
        // And the old generation is gone for good — presenting it again
        // flushes the new entries too (generations are compared for
        // equality, not order; any change means "schema moved").
        let v = cache.get_or_insert_with(1, 1, || 12);
        assert_eq!(*v, 12);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache: Arc<GenCache<usize, usize>> = Arc::new(GenCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for k in 0..100 {
                        let v = cache.get_or_insert_with(1, k, || k * 3);
                        assert_eq!(*v, k * 3);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 100);
    }
}
