//! Clock abstraction pacing the deployed serve/follow loops.
//!
//! The protocol core is deliberately clock-free — sweeps count time in
//! ticks. A deployment needs real time between rounds; a test needs
//! controllable time. [`Clock`]
//! covers both: [`SystemClock`] sleeps for real, [`ManualClock`] keeps
//! a shared counter that `sleep_ms` merely advances, and can hand the
//! same counter to a store as a [`TimeSource`] so replication rounds
//! and wall-clock checkpoint policies observe one coherent timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use mvolap_durable::TimeSource;

/// A source of "now" plus the ability to wait.
pub trait Clock {
    /// Current time in milliseconds.
    fn now_ms(&self) -> u64;

    /// Waits `ms` milliseconds (or advances a manual timeline by it).
    fn sleep_ms(&self, ms: u64);
}

/// The real clock: UNIX-epoch milliseconds and genuine thread sleeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64)
    }

    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// A deterministic clock for tests: time is a shared counter and
/// "sleeping" advances it instantly.
#[derive(Debug, Clone)]
pub struct ManualClock {
    cell: Arc<AtomicU64>,
}

impl ManualClock {
    /// A manual clock starting at `start_ms`.
    pub fn new(start_ms: u64) -> ManualClock {
        ManualClock {
            cell: Arc::new(AtomicU64::new(start_ms)),
        }
    }

    /// Advances the clock by `ms` and returns the new now.
    pub fn advance(&self, ms: u64) -> u64 {
        self.cell.fetch_add(ms, Ordering::SeqCst) + ms
    }

    /// A [`TimeSource`] sharing this clock's counter — give it to a
    /// [`mvolap_durable::DurableTmd`] so store-side wall-clock policies
    /// see the same timeline the supervisor sleeps through.
    pub fn time_source(&self) -> TimeSource {
        TimeSource::Manual(Arc::clone(&self.cell))
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new(0)
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }

    fn sleep_ms(&self, ms: u64) {
        self.advance(ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_sleep_advances_shared_timeline() {
        let c = ManualClock::new(10);
        let ts = c.time_source();
        c.sleep_ms(90);
        assert_eq!(c.now_ms(), 100);
        assert_eq!(ts.now_ms(), 100, "store-side source shares the counter");
    }

    #[test]
    fn system_clock_reports_epoch_millis() {
        let c = SystemClock;
        assert!(c.now_ms() > 1_600_000_000_000, "after Sep 2020");
    }
}
