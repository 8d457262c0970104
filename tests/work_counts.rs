//! Work counts as a host-independent regression gate.
//!
//! Timings move with the host; the number of times a stage does a unit
//! of work does not. Each count here is pinned exactly on a fixed
//! schema: a change that moves one updates the pin in the same commit
//! and says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use mvolap::core::evolution::SplitPart;
use mvolap::core::{
    all_modes, present_par, DimensionId, ExecContext, MemberVersionId, QueryMemo, TemporalMode,
};
use mvolap::durable::{FactRow, WalRecord};
use mvolap::query::render_answer;
use mvolap::server::proto::{encode_reply, Reply};
use mvolap::temporal::Instant;
use mvolap::workload::{generate, WorkloadConfig};

/// Mapping-route lookups of one cold presentation per mode of the
/// `scan_large`-shaped warehouse (106,500 facts, 8 structure versions)
/// at morsel size 1024: each morsel reads the shared route memo once
/// per distinct leaf it meets, not once per fact row (which read
/// 106,500 per version mode). `tcm` routes nothing.
#[test]
fn cold_presentation_reads_the_route_memo_once_per_leaf_per_morsel() {
    let cfg = WorkloadConfig::small(2003)
        .with_departments(200)
        .with_periods(8)
        .with_facts_per_department(60);
    let w = generate(&cfg).expect("seeded config generates");
    let facts = w.tmd.facts();
    assert_eq!(facts.len(), 106_500);
    let svs = w.tmd.structure_versions();
    let modes = all_modes(&svs);
    let leaves = (0..facts.len())
        .map(|row| facts.coord(row, 0))
        .collect::<BTreeSet<_>>()
        .len() as u64;
    let morsels = facts.len().div_ceil(1024) as u64;
    assert_eq!((leaves, morsels), (595, 105));
    assert_eq!(modes.len(), 9);
    for mode in &modes {
        let pinned = if *mode == TemporalMode::Consistent {
            0
        } else {
            1_873
        };
        for threads in [1, 2, 3] {
            let ctx = ExecContext::new(threads).with_morsel_size(1024);
            let memo = QueryMemo::new();
            present_par(&w.tmd, &svs, mode, &ctx, &memo).expect("presents");
            let routes = memo.stats().routes;
            let lookups = routes.hits + routes.misses;
            assert_eq!(lookups, pinned, "mode {mode}, threads {threads}");
            assert!(lookups <= morsels * leaves, "mode {mode}");
            // Sequentially every leaf's routes are computed exactly
            // once; workers racing on one leaf may each compute it.
            if threads == 1 && pinned > 0 {
                assert_eq!(routes.misses, leaves, "mode {mode}");
            }
        }
    }
}

/// A std-only counting allocator: every `alloc`, `alloc_zeroed` and
/// `realloc` on a thread counts on that thread, so tests running beside
/// each other in this binary do not see each other's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a `const` thread-local `Cell`, which neither allocates
// nor takes a lock.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `work`'s result and the heap allocations it made on this thread.
fn allocations<R>(work: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Heap allocations of a warm answer on the `scan_large` warehouse at
/// `ExecContext::sequential()`: the widest template (the Department
/// roll-up, 1,775 result rows) and the narrowest grouped one (the
/// Division roll-up, 24 rows), each rendered a second time through the
/// memo its first rendering filled, and the reply frame payload of the
/// first. The fold is allocation-free per presented row; what remains
/// per result row is the `ResultRow` itself (its time label, key
/// vector, member name and cell vector).
#[test]
fn a_warm_wide_answer_allocates_a_fixed_budget_per_result_row() {
    let cfg = WorkloadConfig::small(2003)
        .with_departments(200)
        .with_periods(8)
        .with_facts_per_department(60);
    let w = generate(&cfg).expect("seeded config generates");
    let ctx = ExecContext::sequential();
    let memo = QueryMemo::new();
    let warm = |text: &str| {
        let cold = render_answer(&w.tmd, text, &ctx, &memo).expect("answers");
        let (answer, count) = allocations(|| render_answer(&w.tmd, text, &ctx, &memo));
        assert_eq!(answer.expect("answers"), cold, "{text}");
        (cold, count)
    };
    let (wide, wide_count) = warm("SELECT sum(Amount) BY year, Org.Department IN MODE tcm");
    let (narrow, narrow_count) = warm("SELECT sum(Amount) BY year, Org.Division IN MODE tcm");
    // Header and rule lines precede the rows.
    let (wide_rows, narrow_rows) = (wide.lines().count() - 2, narrow.lines().count() - 2);
    assert_eq!((wide_rows, narrow_rows), (1_775, 24));
    let (_, reply_count) = allocations(|| encode_reply(&Reply::Result(wide)));
    assert_eq!(
        (wide_count, narrow_count, reply_count),
        (7_250, 198, 2),
        "allocations: Department answer, Division answer, reply payload"
    );
    assert!(wide_count <= 5 * wide_rows as u64);
}

/// Heap allocations of a WAL record's `encode` and of its `decode`:
/// every commit encodes one fact batch and every follower decodes it.
/// A 1-row and a 64-row batch and a 2-part `Split` operator record.
/// Encoding writes one growing buffer; decoding allocates each list
/// and each text field once.
#[test]
fn a_wal_record_encodes_and_decodes_in_a_fixed_number_of_allocations() {
    let batch = |n: u32| WalRecord::FactBatch {
        rows: (0..n)
            .map(|i| FactRow {
                coords: vec![MemberVersionId(i % 7 + 1), MemberVersionId(3)],
                at: Instant::ym(2001, 1 + i % 12),
                values: vec![100.0 + f64::from(i)],
            })
            .collect(),
    };
    let split = WalRecord::Split {
        dim: DimensionId(0),
        source: MemberVersionId(4),
        parts: vec![
            SplitPart::proportional("A", 0.4, 1),
            SplitPart::proportional("B", 0.6, 1),
        ],
        at: Instant::ym(2003, 1),
        parents: vec![MemberVersionId(0)],
    };
    let counts = [batch(1), batch(64), split].map(|record| {
        let (payload, encode) = allocations(|| record.encode());
        let (back, decode) = allocations(|| WalRecord::decode(&payload));
        assert_eq!(back.expect("decodes"), record);
        (encode, decode)
    });
    assert_eq!(
        counts,
        [(3, 3), (9, 133), (4, 8)],
        "(encode, decode) allocations: 1-row batch, 64-row batch, 2-part split"
    );
}
