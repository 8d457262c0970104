//! Crash-recovery integration tests: the acceptance gate of the
//! durability subsystem.
//!
//! The central test runs [`mvolap_durable::crash_sweep`]: a seeded
//! evolution + load workload is executed once fault-free to enumerate
//! every I/O primitive, then re-executed with a simulated crash (torn
//! write included) at each of those ≥ 200 points; every crashed
//! directory must recover to *exactly* a prefix of the applied
//! operation sequence — verified by bit-exact snapshot comparison plus
//! an aggregate-query fingerprint.

use std::collections::BTreeMap;
use std::path::PathBuf;

use mvolap_core::case_study;
use mvolap_core::persist::write_tmd;
use mvolap_durable::{
    crash_sweep, group_crash_sweep, DurableError, DurableTmd, FactRow, WalRecord,
};
use mvolap_temporal::Instant;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_crash_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn snapshot(tmd: &mvolap_core::Tmd) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tmd(tmd, &mut buf).unwrap();
    buf
}

/// The acceptance criterion: every crash point of the seeded workload
/// recovers prefix-consistently, and there are at least 200 of them.
#[test]
fn crash_sweep_recovers_a_prefix_at_every_point() {
    let dir = tmp("sweep");
    let outcome = crash_sweep(&dir, 0xD15C_0B0B, 110).expect("sweep invariant violated");
    assert!(
        outcome.crash_points >= 200,
        "need >= 200 crash points, workload produced {}",
        outcome.crash_points
    );
    assert_eq!(outcome.records, 110);
    // Sanity on the distribution: most crashes land mid-stream, some
    // surface a durable-but-unacknowledged record.
    assert!(
        outcome.recovered_at_committed > 0 && outcome.recovered_ahead > 0,
        "degenerate sweep: {outcome:?}"
    );
    assert_eq!(
        outcome.recovered_empty + outcome.recovered_at_committed + outcome.recovered_ahead,
        outcome.crash_points
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A second seed shifts every crash point onto different byte
/// boundaries (different torn-write cuts, different record mix).
#[test]
fn crash_sweep_holds_under_a_different_seed() {
    let dir = tmp("sweep2");
    let outcome = crash_sweep(&dir, 42, 60).expect("sweep invariant violated");
    assert!(outcome.crash_points >= 120);
    std::fs::remove_dir_all(&dir).ok();
}

/// The group-commit path (unsynced appends, one shared fsync per
/// batch) recovers prefix-consistently at every crash point too: a
/// crash may drop any suffix of the unacknowledged batch, never a
/// synced record, never a half-applied one.
#[test]
fn group_commit_crash_sweep_recovers_a_prefix_at_every_point() {
    let dir = tmp("group_sweep");
    let outcome = group_crash_sweep(&dir, 0xBA7C_4ED0, 90, 4).expect("sweep invariant violated");
    assert!(
        outcome.crash_points >= 120,
        "need >= 120 crash points, workload produced {}",
        outcome.crash_points
    );
    assert_eq!(outcome.records, 90);
    assert!(
        outcome.recovered_at_committed > 0 && outcome.recovered_ahead > 0,
        "degenerate sweep: {outcome:?}"
    );
    assert_eq!(
        outcome.recovered_empty + outcome.recovered_at_committed + outcome.recovered_ahead,
        outcome.crash_points
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Basic lifecycle without faults: create, evolve, load, reopen.
#[test]
fn journaled_operations_survive_reopen() {
    let dir = tmp("lifecycle");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    // One evolution + one fact batch through the journal.
    store
        .apply(WalRecord::Transform {
            dim: cs.org,
            id: cs.brian,
            new_name: "Dpt.Brian-renamed".into(),
            new_attributes: BTreeMap::new(),
            at: Instant::ym(2004, 1),
        })
        .unwrap();
    let renamed = {
        let d = &store.schema().dimensions()[cs.org.0 as usize];
        d.version_named_at("Dpt.Brian-renamed", Instant::ym(2004, 2))
            .unwrap()
            .id
    };
    store
        .append_facts(vec![FactRow {
            coords: vec![renamed],
            at: Instant::ym(2004, 6),
            values: vec![75.0],
        }])
        .unwrap();
    let before = snapshot(store.schema());
    let lsn = store.wal_position();
    drop(store);

    let reopened = DurableTmd::open(&dir).unwrap();
    assert_eq!(snapshot(reopened.schema()), before);
    assert_eq!(reopened.wal_position(), lsn);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints bound recovery work and prune the log; recovery from
/// checkpoint + tail equals recovery from the full log.
#[test]
fn checkpoint_plus_tail_equals_full_replay() {
    let dir = tmp("ckpt_tail");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    store
        .append_facts(vec![FactRow {
            coords: vec![cs.brian],
            at: Instant::ym(2003, 7),
            values: vec![10.0],
        }])
        .unwrap();
    store.checkpoint().unwrap();
    // Post-checkpoint tail.
    store
        .append_facts(vec![FactRow {
            coords: vec![cs.paul],
            at: Instant::ym(2003, 8),
            values: vec![20.0],
        }])
        .unwrap();
    let before = snapshot(store.schema());
    drop(store);
    let reopened = DurableTmd::open(&dir).unwrap();
    assert_eq!(snapshot(reopened.schema()), before);
    std::fs::remove_dir_all(&dir).ok();
}

/// Validation failures are rejected *before* anything reaches the log:
/// the store stays usable and a reopen sees no trace of them.
#[test]
fn invalid_operations_leave_no_journal_trace() {
    let dir = tmp("invalid");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    let lsn = store.wal_position();
    // Non-leaf coordinate: rejected by fact validation.
    let err = store
        .append_facts(vec![FactRow {
            coords: vec![cs.sales],
            at: Instant::ym(2003, 6),
            values: vec![1.0],
        }])
        .unwrap_err();
    assert!(matches!(err, DurableError::Core(_)));
    // Deleting an unknown member: rejected by the clone validation.
    let err = store
        .apply(WalRecord::Delete {
            dim: cs.org,
            id: mvolap_core::MemberVersionId(999),
            at: Instant::ym(2004, 1),
        })
        .unwrap_err();
    assert!(matches!(err, DurableError::Core(_)));
    assert!(!store.is_poisoned());
    assert_eq!(store.wal_position(), lsn, "nothing may reach the log");
    // The store still works.
    store
        .append_facts(vec![FactRow {
            coords: vec![cs.brian],
            at: Instant::ym(2003, 6),
            values: vec![5.0],
        }])
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The WAL journals the confidence-change operator and replays it.
#[test]
fn confidence_change_survives_recovery() {
    let dir = tmp("confidence");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    // The case study maps Jones -> Bill with an approximate 0.4 share;
    // revise it to an exact 0.45.
    store
        .apply(WalRecord::Confidence {
            dim: cs.org,
            from: cs.jones,
            to: cs.bill,
            forward: vec![mvolap_core::MeasureMapping {
                func: mvolap_core::MappingFunction::Scale(0.45),
                confidence: mvolap_core::Confidence::Exact,
            }],
            backward: vec![mvolap_core::MeasureMapping::EXACT_IDENTITY],
        })
        .unwrap();
    let before = snapshot(store.schema());
    drop(store);
    let reopened = DurableTmd::open(&dir).unwrap();
    assert_eq!(snapshot(reopened.schema()), before);
    std::fs::remove_dir_all(&dir).ok();
}

/// A name ending in a carriage return sits last on its snapshot line,
/// where a line reader would take it for a CRLF ending: the checkpoint
/// image must bring it back, or the reopened schema is not the one the
/// WAL replays onto.
#[test]
fn trailing_carriage_return_survives_checkpoint_and_reopen() {
    let dir = tmp("cr_name");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    store
        .apply(WalRecord::Create {
            dim: cs.org,
            name: "Dpt.Return\r".into(),
            level: Some("Department".into()),
            at: Instant::ym(2004, 1),
            parents: vec![cs.sales],
        })
        .unwrap();
    store.checkpoint().unwrap();
    let before = snapshot(store.schema());
    drop(store);
    let reopened = DurableTmd::open(&dir).unwrap();
    assert_eq!(snapshot(reopened.schema()), before);
    assert!(reopened.schema().dimensions()[cs.org.0 as usize]
        .version_named_at("Dpt.Return\r", Instant::ym(2004, 2))
        .is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// A level named `-` is the snapshot's bare "no level" token unless the
/// image spells it out: the checkpoint must bring the level back, or
/// the reopened schema is not the one the WAL replays onto.
#[test]
fn level_named_dash_survives_checkpoint_and_reopen() {
    let dir = tmp("dash_level");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    store
        .apply(WalRecord::Create {
            dim: cs.org,
            name: "Dpt.Dash".into(),
            level: Some("-".into()),
            at: Instant::ym(2004, 1),
            parents: vec![cs.sales],
        })
        .unwrap();
    store.checkpoint().unwrap();
    let before = snapshot(store.schema());
    drop(store);
    let reopened = DurableTmd::open(&dir).unwrap();
    assert_eq!(snapshot(reopened.schema()), before);
    let dash = reopened.schema().dimensions()[cs.org.0 as usize]
        .version_named_at("Dpt.Dash", Instant::ym(2004, 2))
        .unwrap();
    assert_eq!(dash.level.as_deref(), Some("-"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Opening an empty or missing directory reports `NoStore`, not a
/// panic or a silently empty warehouse.
#[test]
fn open_without_store_is_explicit() {
    let dir = tmp("nostore");
    assert!(matches!(DurableTmd::open(&dir), Err(DurableError::NoStore)));
    std::fs::remove_dir_all(&dir).ok();
}

/// Creating over an existing store is refused.
#[test]
fn create_refuses_to_clobber() {
    let dir = tmp("clobber");
    let cs = case_study::case_study();
    DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    assert!(DurableTmd::create(&dir, cs.tmd).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// The membership log (journaled `Reconfig` records) survives both
/// checkpoint pruning — via the membership sidecar written before the
/// prune — and plain reopen via the WAL scan, deduped by LSN.
#[test]
fn membership_log_survives_checkpoint_pruning_and_reopen() {
    use mvolap_durable::WalRecord;

    let dir = tmp("membership");
    let cs = case_study::case_study();
    let opts = mvolap_durable::Options {
        // Tiny segments so the checkpoint's prune actually drops the
        // segment holding the reconfig frame.
        segment_bytes: 128,
        policy: mvolap_durable::CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    };
    let mut store = DurableTmd::create_with(
        &dir,
        cs.tmd.clone(),
        opts.clone(),
        mvolap_durable::Io::plain(),
    )
    .unwrap();
    store
        .append_facts(vec![FactRow {
            coords: vec![cs.brian],
            at: Instant::ym(2003, 7),
            values: vec![10.0],
        }])
        .unwrap();
    let l_add = store
        .apply(WalRecord::Reconfig {
            epoch: 1,
            add: true,
            member: "m3".into(),
            addr: "127.0.0.1:9001".into(),
        })
        .unwrap();
    // Enough appends to rotate the segment holding the add out of the
    // active position, so the checkpoint's prune can drop it.
    for month in 1..=10 {
        store
            .append_facts(vec![FactRow {
                coords: vec![cs.paul],
                at: Instant::ym(2004, month),
                values: vec![20.0],
            }])
            .unwrap();
    }
    // The checkpoint prunes the WAL frames holding the add; only the
    // sidecar remembers it now.
    store.checkpoint().unwrap();
    assert!(
        store.oldest_lsn().unwrap() > l_add,
        "checkpoint should have pruned the reconfig frame"
    );
    let l_remove = store
        .apply(WalRecord::Reconfig {
            epoch: 2,
            add: false,
            member: "m1".into(),
            addr: String::new(),
        })
        .unwrap();
    let in_memory = store.membership_log().to_vec();
    drop(store);

    let reopened = DurableTmd::open_with(&dir, opts, mvolap_durable::Io::plain()).unwrap();
    let log = reopened.membership_log();
    assert_eq!(log, &in_memory[..], "reopen must rebuild the same log");
    assert_eq!(log.len(), 2);
    assert_eq!(
        (log[0].lsn, log[0].add, log[0].member.as_str()),
        (l_add, true, "m3")
    );
    assert_eq!(log[0].addr, "127.0.0.1:9001");
    assert_eq!(
        (log[1].lsn, log[1].add, log[1].member.as_str()),
        (l_remove, false, "m1")
    );
    std::fs::remove_dir_all(&dir).ok();
}
