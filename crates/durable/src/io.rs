//! The I/O layer every durable write goes through, with deterministic
//! fault injection.
//!
//! Each primitive (create, write, fsync, rename, truncate, unlink,
//! directory sync) is one *crash point*: an [`Io`] carrying a
//! [`FaultPlan`] performs the first `crash_after` primitives normally
//! and then simulates a crash — a `write` cuts off after a
//! deterministically chosen prefix of its bytes (a torn write), every
//! other primitive fails before taking effect. The op counter is
//! deterministic for a fixed operation sequence, so a harness can first
//! run a workload fault-free to count the crash points and then replay
//! it once per point.
//!
//! Reads are deliberately *not* crash points: recovery is read-only up
//! to tail truncation, and re-running it is idempotent.
//!
//! The counters and the plan sit behind one shared handle, so the
//! group-commit leader can run its fsync on a second handle with no
//! store lock held and still hit the same counted, injectable
//! primitive as every in-lock caller.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mvolap_prng::Rng;

use crate::error::DurableError;

/// A deterministic crash schedule: the store crashes on its
/// `crash_after`-th I/O primitive (0-based).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    remaining: u64,
    rng: Rng,
}

impl FaultPlan {
    /// Crash on the `ops`-th I/O primitive; `seed` drives the torn-write
    /// cut position.
    pub fn crash_after(ops: u64, seed: u64) -> Self {
        FaultPlan {
            remaining: ops,
            rng: Rng::seed_from_u64(seed ^ ops.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Counts one step of whatever the plan is attached to (an I/O
    /// primitive, a replication transport hop, …); `true` means the
    /// fault fires *now*. Once fired, every subsequent step fires too —
    /// a crashed component stays crashed.
    pub fn fires(&mut self) -> bool {
        if self.remaining == 0 {
            return true;
        }
        self.remaining -= 1;
        false
    }

    /// Deterministic torn-write cut: how many of `len` bytes survive.
    pub fn cut(&mut self, len: usize) -> usize {
        self.rng.usize_below(len + 1)
    }
}

#[derive(Debug, Default)]
struct Shared {
    fault: Option<Mutex<FaultPlan>>,
    ops: AtomicU64,
    fsyncs: AtomicU64,
    #[cfg(any(test, feature = "sync-gate"))]
    gate: Mutex<Option<Arc<gate::SyncGate>>>,
}

/// The injectable I/O layer. Without a plan it is a thin veneer over
/// `std::fs` that additionally counts primitives.
#[derive(Debug, Default)]
pub struct Io {
    shared: Arc<Shared>,
}

impl Io {
    /// Plain I/O: no injection, primitives still counted.
    pub fn plain() -> Self {
        Io::default()
    }

    /// I/O that crashes according to `plan`.
    pub fn faulty(plan: FaultPlan) -> Self {
        Io {
            shared: Arc::new(Shared {
                fault: Some(Mutex::new(plan)),
                ..Shared::default()
            }),
        }
    }

    /// A second handle on the same counters and crash schedule: what
    /// it performs counts (and crashes) exactly as if this handle had.
    #[must_use]
    pub fn share(&self) -> Io {
        Io {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of I/O primitives performed (or attempted) so far.
    pub fn ops(&self) -> u64 {
        self.shared.ops.load(Ordering::Relaxed)
    }

    /// Number of file `fsync`s performed (or attempted) so far —
    /// directory syncs are not counted. This is the group-commit
    /// assertion hook: a batch of N commits sharing one sync moves this
    /// counter by 1, not N.
    pub fn fsyncs(&self) -> u64 {
        self.shared.fsyncs.load(Ordering::Relaxed)
    }

    /// Counts one primitive and asks the plan whether the crash point
    /// fires now; `decide` runs under the plan's lock when it does.
    fn fires<R>(&self, decide: impl FnOnce(&mut FaultPlan) -> R) -> Option<R> {
        self.shared.ops.fetch_add(1, Ordering::Relaxed);
        let mut plan = self
            .shared
            .fault
            .as_ref()?
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        plan.fires().then(|| decide(&mut plan))
    }

    /// Counts one primitive; `Err` means the crash point fired.
    fn tick(&mut self, op: &'static str) -> Result<(), DurableError> {
        match self.fires(|_| ()) {
            Some(()) => Err(DurableError::Injected { op }),
            None => Ok(()),
        }
    }

    /// Appends `bytes` to `file`. An injected crash writes a
    /// deterministic prefix first — the torn write a real power cut
    /// produces.
    pub fn write(&mut self, mut file: &File, bytes: &[u8]) -> Result<(), DurableError> {
        if let Some(cut) = self.fires(|plan| plan.cut(bytes.len())) {
            let _ = file.write_all(&bytes[..cut]);
            let _ = file.flush();
            return Err(DurableError::Injected { op: "write" });
        }
        file.write_all(bytes)?;
        Ok(())
    }

    /// `fsync` on a file.
    pub fn sync(&mut self, file: &File) -> Result<(), DurableError> {
        self.shared.fsyncs.fetch_add(1, Ordering::Relaxed);
        #[cfg(any(test, feature = "sync-gate"))]
        gate::pass(&self.shared.gate)?;
        self.tick("fsync")?;
        file.sync_all()?;
        Ok(())
    }

    /// Creates (truncating) a file.
    pub fn create(&mut self, path: &Path) -> Result<File, DurableError> {
        self.tick("create")?;
        Ok(File::create(path)?)
    }

    /// Creates a directory (and missing parents). The new entry is not
    /// durable until the parent directory is fsynced — pair with
    /// [`Io::sync_dir`] on the parent.
    pub fn create_dir(&mut self, path: &Path) -> Result<(), DurableError> {
        self.tick("mkdir")?;
        std::fs::create_dir_all(path)?;
        Ok(())
    }

    /// Atomically renames `from` onto `to`.
    pub fn rename(&mut self, from: &Path, to: &Path) -> Result<(), DurableError> {
        self.tick("rename")?;
        std::fs::rename(from, to)?;
        Ok(())
    }

    /// Truncates an open file to `len` bytes.
    pub fn set_len(&mut self, file: &File, len: u64) -> Result<(), DurableError> {
        self.tick("truncate")?;
        file.set_len(len)?;
        Ok(())
    }

    /// Unlinks a file.
    pub fn remove_file(&mut self, path: &Path) -> Result<(), DurableError> {
        self.tick("unlink")?;
        std::fs::remove_file(path)?;
        Ok(())
    }

    /// `fsync` on a directory, making renames/creates within it durable.
    pub fn sync_dir(&mut self, dir: &Path) -> Result<(), DurableError> {
        self.tick("dirsync")?;
        File::open(dir)?.sync_all()?;
        Ok(())
    }
}

/// Test-only fsync gate: parks the next [`Io::sync`] until the test
/// releases or fails it, so a test can act while an fsync is in flight
/// without sleeping. Other crates' tests reach it through the
/// `sync-gate` feature; no shipped build enables it.
#[cfg(any(test, feature = "sync-gate"))]
pub mod gate {
    use std::sync::{Arc, Condvar, Mutex};

    use crate::error::DurableError;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum State {
        Armed,
        Parked,
        Released { fail: bool },
    }

    /// One armed gate; see [`super::Io::gate_next_sync`].
    #[derive(Debug)]
    pub struct SyncGate {
        state: Mutex<State>,
        changed: Condvar,
    }

    impl SyncGate {
        fn set(&self, to: State) {
            *self.state.lock().unwrap() = to;
            self.changed.notify_all();
        }

        fn wait_while(&self, blocked: impl Fn(State) -> bool) -> State {
            let mut st = self.state.lock().unwrap();
            while blocked(*st) {
                st = self.changed.wait(st).unwrap();
            }
            *st
        }

        /// Blocks until a sync is parked at the gate.
        pub fn wait_parked(&self) {
            self.wait_while(|s| s == State::Armed);
        }

        /// Lets the parked sync proceed to the disk.
        pub fn release(&self) {
            self.set(State::Released { fail: false });
        }

        /// Makes the parked sync fail as an injected fault.
        pub fn fail(&self) {
            self.set(State::Released { fail: true });
        }
    }

    impl super::Io {
        /// Arms a gate the next [`super::Io::sync`] on this handle (or
        /// any sharing it) parks at.
        pub fn gate_next_sync(&self) -> Arc<SyncGate> {
            let gate = Arc::new(SyncGate {
                state: Mutex::new(State::Armed),
                changed: Condvar::new(),
            });
            *self.shared.gate.lock().unwrap() = Some(Arc::clone(&gate));
            gate
        }
    }

    pub(super) fn pass(slot: &Mutex<Option<Arc<SyncGate>>>) -> Result<(), DurableError> {
        let Some(gate) = slot.lock().unwrap().take() else {
            return Ok(());
        };
        gate.set(State::Parked);
        match gate.wait_while(|s| s == State::Parked) {
            State::Released { fail: true } => Err(DurableError::Injected { op: "fsync" }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_io_counts_ops() {
        let dir = std::env::temp_dir().join(format!("mvolap_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut io = Io::plain();
        let path = dir.join("a");
        let f = io.create(&path).unwrap();
        io.write(&f, b"hello").unwrap();
        io.sync(&f).unwrap();
        assert_eq!(io.ops(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_is_torn_deterministically() {
        let dir = std::env::temp_dir().join(format!("mvolap_io_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cut_of = |seed: u64| {
            let path = dir.join(format!("t{seed}"));
            let mut io = Io::faulty(FaultPlan::crash_after(1, seed));
            let f = io.create(&path).unwrap();
            let err = io.write(&f, b"0123456789").unwrap_err();
            assert!(matches!(err, DurableError::Injected { op: "write" }));
            std::fs::metadata(&path).unwrap().len()
        };
        // Deterministic: same seed, same torn length.
        assert_eq!(cut_of(7), cut_of(7));
        // Never longer than the full write.
        assert!(cut_of(1) <= 10 && cut_of(2) <= 10 && cut_of(3) <= 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
