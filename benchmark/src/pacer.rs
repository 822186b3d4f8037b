//! Open-loop pacing: operations are due on a fixed schedule whether or
//! not the system keeps up, and each is timed from when it was *due*.
//!
//! A stalled operation therefore delays the ones queued behind it, and
//! that wait is charged to them — the coordinated-omission correction a
//! closed loop cannot make.

use std::time::{Duration, Instant};

/// Time as the pacer sees it (tests substitute a simulated clock).
pub trait Clock {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    /// Blocks until `at` (returns at once when `at` has passed).
    fn sleep_until(&self, at: Duration);
}

/// The wall clock, anchored at construction.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        if let Some(wait) = at.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// A fixed-period schedule over a clock: operation `i` is due at
/// `i × period`. Operations are never skipped.
pub struct Pacer<C: Clock> {
    clock: C,
    period: Duration,
    issued: u32,
    due: Duration,
}

impl<C: Clock> Pacer<C> {
    pub fn new(clock: C, period: Duration) -> Self {
        Pacer {
            clock,
            period,
            issued: 0,
            due: Duration::ZERO,
        }
    }

    /// Waits for the next operation's due time and returns how late the
    /// generator is issuing it (zero when on schedule).
    pub fn begin(&mut self) -> Duration {
        self.due = self.period * self.issued;
        self.issued += 1;
        self.clock.sleep_until(self.due);
        self.clock.now().saturating_sub(self.due)
    }

    /// Time from the current operation's due time to now: its latency
    /// once it has completed.
    pub fn since_due(&self) -> Duration {
        self.clock.now().saturating_sub(self.due)
    }

    pub fn now(&self) -> Duration {
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only advances when told to, or when slept on.
    struct Simulated(Cell<Duration>);

    impl Clock for &Simulated {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, at: Duration) {
            self.0.set(self.0.get().max(at));
        }
    }

    #[test]
    fn a_stalled_wave_is_charged_to_the_waves_behind_it() {
        let ms = Duration::from_millis;
        let clock = Simulated(Cell::new(Duration::ZERO));
        let mut pacer = Pacer::new(&clock, ms(50));
        // Service times: wave 2 stalls for 180 ms, the rest take 10 ms.
        let service = [10, 10, 180, 10, 10, 10, 10, 10];
        let mut late = Vec::new();
        let mut latency = Vec::new();
        for s in service {
            late.push(pacer.begin().as_millis());
            clock.0.set(clock.0.get() + ms(s));
            latency.push(pacer.since_due().as_millis());
        }
        // Wave 2 is due at 100 and done at 280; waves 3..6 were due at
        // 150, 200, 250, 300 but could only start at 280, 290, 300, 310.
        // Wave 7 (due at 350) finds the queue drained.
        assert_eq!(late, [0, 0, 0, 130, 90, 50, 10, 0]);
        assert_eq!(latency, [10, 10, 180, 140, 100, 60, 20, 10]);
    }
}
