//! Durability walkthrough: evolve → crash → recover → query matches.
//!
//! Opens a durable store on the paper's case study, journals an
//! evolution and a fact load, takes a checkpoint, keeps loading — then
//! simulates a crash with a torn write in the middle of an append and
//! shows that recovery reproduces exactly the acknowledged state: the
//! paper's Q1 query returns the same rows before the crash and after
//! recovery.
//!
//! ```text
//! cargo run --example durability
//! ```

use mvolap::core::case_study;
use mvolap::durable::store::faulty_io;
use mvolap::durable::{DurableTmd, FactRow, Options, WalRecord};
use mvolap::prelude::*;

const Q1: &str = "SELECT sum(Amount) BY year, Org.Division FOR 2001..2004 IN MODE tcm";

fn render(rs: &mvolap::core::ResultSet) -> Vec<String> {
    rs.rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r
                .cells
                .iter()
                .map(|c| match c.value {
                    Some(v) => format!("{v} ({:?})", c.confidence),
                    None => format!("? ({:?})", c.confidence),
                })
                .collect();
            format!("{} | {} | {}", r.time, r.keys.join(", "), cells.join(", "))
        })
        .collect()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("mvolap_durability_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");

    // 1. Create the store: the case-study schema becomes the bootstrap
    //    record of the write-ahead log.
    let cs = case_study::case_study();
    let mut store = DurableTmd::create(&dir, cs.tmd).expect("create store");
    println!("created durable store at {}", dir.display());
    println!("  next LSN after bootstrap: {}", store.wal_position());

    // 2. Evolve and load through the journal: every operation is
    //    validated, appended to the WAL, fsync'd, then applied.
    store
        .apply(WalRecord::Transform {
            dim: cs.org,
            id: cs.brian,
            new_name: "Dpt.Brian-NanoTech".into(),
            new_attributes: std::collections::BTreeMap::new(),
            at: Instant::ym(2004, 1),
        })
        .expect("transform");
    store
        .append_facts(vec![
            FactRow {
                coords: vec![cs.bill],
                at: Instant::ym(2003, 5),
                values: vec![55.0],
            },
            FactRow {
                coords: vec![cs.paul],
                at: Instant::ym(2003, 5),
                values: vec![80.0],
            },
        ])
        .expect("fact batch");
    println!(
        "  journaled 1 evolution + 1 fact batch, next LSN: {}",
        store.wal_position()
    );

    // 3. Checkpoint: atomic snapshot (temp-file + rename), then the
    //    covered WAL prefix is pruned. Recovery cost is now bounded by
    //    the tail.
    let ckpt = store.checkpoint().expect("checkpoint");
    println!(
        "  checkpoint at generation {}, next LSN {}",
        ckpt.generation, ckpt.next_lsn
    );

    // 4. Keep working past the checkpoint.
    store
        .append_facts(vec![FactRow {
            coords: vec![cs.smith],
            at: Instant::ym(2003, 6),
            values: vec![40.0],
        }])
        .expect("post-checkpoint batch");

    let before = render(&mvolap::query::run(store.schema(), Q1).expect("query"));
    println!("\nQ1 before the crash:");
    for line in &before {
        println!("  {line}");
    }
    drop(store);

    // 5. Crash. Reopen with a fault-injecting I/O layer that tears the
    //    very next write: the append fails mid-frame, exactly as if the
    //    machine lost power with half a record on disk.
    let mut crashing =
        DurableTmd::open_with(&dir, Options::default(), faulty_io(0, 0xBAD_5EED)).expect("reopen");
    let err = crashing
        .append_facts(vec![FactRow {
            coords: vec![cs.smith],
            at: Instant::ym(2003, 7),
            values: vec![999.0],
        }])
        .expect_err("the injected fault must fire");
    println!("\nsimulated crash during append: {err}");
    drop(crashing); // the torn frame is now on disk

    // 6. Recover: newest checkpoint + replay of the intact log tail;
    //    the torn frame fails its CRC and is truncated away.
    let recovered = DurableTmd::open(&dir).expect("recovery");
    let after = render(&mvolap::query::run(recovered.schema(), Q1).expect("query"));
    println!("\nQ1 after recovery:");
    for line in &after {
        println!("  {line}");
    }

    assert_eq!(
        after, before,
        "recovery must reproduce exactly the acknowledged state"
    );
    println!("\nrecovered state matches: every acknowledged operation survived, the torn append did not.");

    std::fs::remove_dir_all(&dir).ok();
}
