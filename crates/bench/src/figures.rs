//! Shared figure-check helpers. The panel layouts themselves live on
//! [`crate::experiment::ExperimentRun`].
//!
//! Every shape check routed through [`ok`] is tallied in thread-local
//! counters so an in-process runner (the `repro` dashboard) can run
//! a harness, then read back how many checks ran and how many failed
//! without scraping stdout.

use std::cell::Cell;

thread_local! {
    static CHECKS: Cell<usize> = const { Cell::new(0) };
    static MISMATCHES: Cell<usize> = const { Cell::new(0) };
}

/// Tick-mark for shape checks. Also bumps the thread-local tallies read
/// by [`take_counts`].
pub fn ok(b: bool) -> &'static str {
    CHECKS.with(|c| c.set(c.get() + 1));
    if b {
        "OK"
    } else {
        MISMATCHES.with(|c| c.set(c.get() + 1));
        "MISMATCH"
    }
}

/// Reset the thread-local check tallies to zero. Call before running a
/// harness whose checks you want to count in isolation.
pub fn reset_counts() {
    CHECKS.with(|c| c.set(0));
    MISMATCHES.with(|c| c.set(0));
}

/// Read `(checks, mismatches)` accumulated on this thread since the
/// last [`reset_counts`].
pub fn take_counts() -> (usize, usize) {
    (CHECKS.with(Cell::get), MISMATCHES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_tallies_checks_and_mismatches() {
        reset_counts();
        assert_eq!(ok(true), "OK");
        assert_eq!(ok(false), "MISMATCH");
        assert_eq!(ok(true), "OK");
        assert_eq!(take_counts(), (3, 1));
        reset_counts();
        assert_eq!(take_counts(), (0, 0));
    }
}
