//! Storage-redundancy experiment (DESIGN.md `bench_storage_redundancy`).
//!
//! §5.1 concedes that making the model run on commercial OLAP tools
//! means "duplicating the values in all versions … a high level of
//! useless redundancies", and suggests storing only differences between
//! versions. This report quantifies both strategies on evolving
//! workloads of growing version count:
//!
//! * **full** — rows materialised across all modes (tcm + each VMi);
//! * **delta** — tcm plus only the mapped rows per version (the
//!   differences-only extension), which reconstructs the full table
//!   exactly (property-tested in `tests/proptests.rs`).
//!
//! ```text
//! cargo run -p mvolap-bench --bin redundancy_report [--release]
//! ```

use mvolap_core::{DeltaMvft, ExecContext, MultiVersionFactTable, QueryMemo};
use mvolap_workload::{generate, WorkloadConfig};

fn main() {
    println!(
        "{:>8} {:>9} {:>7} {:>10} {:>11} {:>11} {:>8}",
        "periods", "versions", "facts", "full_rows", "delta_rows", "saving", "blowup"
    );
    for periods in [2u32, 4, 6, 8, 10] {
        let mut cfg = WorkloadConfig::small(123)
            .with_departments(20)
            .with_periods(periods)
            .with_facts_per_department(5);
        cfg.split_prob = 0.20;
        cfg.merge_prob = 0.05;
        cfg.reclassify_prob = 0.10;
        cfg.create_prob = 0.0;
        cfg.delete_prob = 0.0;
        let w = generate(&cfg).expect("workload generates");
        let versions = w.tmd.structure_versions().len();
        let facts = w.tmd.facts().len();
        let seq = ExecContext::sequential();
        let full = MultiVersionFactTable::infer_par(&w.tmd, &seq, &QueryMemo::new())
            .expect("full inference");
        let delta = DeltaMvft::infer_par(&w.tmd, &seq, &QueryMemo::new()).expect("delta inference");
        // Delta storage = the consistent cells (stored once) + only the
        // mapped cells of each version.
        let tcm_rows = full
            .for_mode(&mvolap_core::TemporalMode::Consistent)
            .expect("tcm present")
            .rows
            .len();
        let delta_rows = tcm_rows + delta.stored_rows();
        let full_rows = full.total_rows();
        println!(
            "{:>8} {:>9} {:>7} {:>10} {:>11} {:>10.1}% {:>7.2}x",
            periods,
            versions,
            facts,
            full_rows,
            delta_rows,
            100.0 * (1.0 - delta_rows as f64 / full_rows as f64),
            full_rows as f64 / tcm_rows as f64,
        );
    }
    println!(
        "\nfull_rows grows with the number of structure versions (the §5.1\n\
         redundancy: every version re-stores nearly every fact); delta_rows\n\
         stays near facts + mapped rows only."
    );
}
