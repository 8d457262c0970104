//! Work counts as a host-independent regression gate.
//!
//! Timings move with the host; the number of times a stage does a unit
//! of work does not. Each count here is pinned exactly on a fixed
//! schema: a change that moves one updates the pin in the same commit
//! and says why.

use std::collections::BTreeSet;

use mvolap::core::{all_modes, present_par, ExecContext, QueryMemo, TemporalMode};
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
