//! Measurement helpers for the failure and corruption scenarios.
//!
//! The `mtp-scenario` runner reduces a diamond or two-path run to these
//! numbers: the periodic workload it submits, sorted message completion
//! times, completions inside a fault window, nearest-rank percentiles
//! (via [`mtp_workload::percentile`]), and the damaged-frame total across
//! a diamond's four path links.

use mtp_core::ScheduledMsg;
use mtp_faults::Diamond;
use mtp_sim::time::{Duration, Time};
use mtp_workload::percentile;

/// `n` microseconds after the epoch.
pub fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// The periodic workload every failure study submits: `count` messages of
/// `bytes`, one every `every_us`, as an MTP schedule.
pub fn mtp_periodic(count: u64, bytes: u64, every_us: u64) -> Vec<ScheduledMsg> {
    (0..count)
        .map(|i| ScheduledMsg::new(us(every_us * i), bytes as u32))
        .collect()
}

/// The same periodic workload as a TCP schedule.
pub fn tcp_periodic(count: u64, bytes: u64, every_us: u64) -> Vec<(Time, u64)> {
    (0..count).map(|i| (us(every_us * i), bytes)).collect()
}

/// Frames damaged in flight, summed over a diamond's four path links.
pub fn corrupted_frames(d: &Diamond) -> u64 {
    [d.a_fwd, d.a_rev, d.b_fwd, d.b_rev]
        .iter()
        .map(|&l| d.sim.link_stats(l).corrupted_pkts)
        .sum()
}

/// Completion-time summary of one contender's message records.
pub struct CompletionStats {
    /// Sorted message completion times, microseconds.
    pub mct_us: Vec<f64>,
    /// Messages that completed.
    pub completed: usize,
    /// Completions strictly inside the window passed to
    /// [`completion_stats`] (0 when no window was given).
    pub during_window: usize,
    /// Nearest-rank p50 of `mct_us` (0 when nothing completed).
    pub p50_us: f64,
    /// Nearest-rank p99 of `mct_us` (0 when nothing completed).
    pub p99_us: f64,
}

/// Summarize `(submitted, completed)` message records, counting
/// completions strictly inside `window_us` when given.
pub fn completion_stats(
    records: impl Iterator<Item = (Time, Option<Time>)>,
    window_us: Option<(u64, u64)>,
) -> CompletionStats {
    let mut mct_us = Vec::new();
    let mut completed = 0usize;
    let mut during_window = 0usize;
    for (submitted, done) in records {
        if let Some(t) = done {
            completed += 1;
            mct_us.push(t.since(submitted).as_micros_f64());
            if let Some((from, to)) = window_us {
                if t > us(from) && t < us(to) {
                    during_window += 1;
                }
            }
        }
    }
    mct_us.sort_by(f64::total_cmp);
    CompletionStats {
        p50_us: percentile(&mct_us, 50.0),
        p99_us: percentile(&mct_us, 99.0),
        mct_us,
        completed,
        during_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counting_is_strict() {
        let recs = vec![
            (us(0), Some(us(100))), // at the window edge: excluded
            (us(0), Some(us(101))), // inside
            (us(0), Some(us(200))), // at the far edge: excluded
            (us(0), None),
        ];
        let s = completion_stats(recs.into_iter(), Some((100, 200)));
        assert_eq!(s.completed, 3);
        assert_eq!(s.during_window, 1);
    }
}
