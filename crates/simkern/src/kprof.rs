//! Kernel self-profiling: counters and wall-time attribution for the
//! engine's hot loop.
//!
//! The question this module answers is *"why is replay slow at this
//! scale?"* — BENCH_replay.json shows records/s **falling** with rank
//! count, and without visibility into the LMM solver and the event
//! machinery that open item is unactionable. The engine always counts
//! the work its hot loop performs (solver islands, constraints and
//! variables touched, event-heap traffic, completion-heap updates,
//! peak structure sizes): each counter is a plain field increment.
//! Enabling profiling ([`crate::Engine::enable_kernel_profiling`])
//! hands the counters out and turns on wall timing, which reads the
//! clock once per phase boundary of the engine loop and so splits its
//! wall into the four phases (run-queue drain, solve, timed events,
//! activity completions). With profiling off no clock is read.
//!
//! Counters are profiling state, **not** simulation state: they are
//! excluded from [`crate::snapshot::EngineSnapshot`] so enabling the
//! profiler cannot perturb bit-identical checkpoint/resume, and the
//! simulated outcome is byte-identical with and without it.

use std::time::Instant;

use crate::lmm::SolverStats;

/// Wall-clock seconds attributed to each engine phase, accumulated
/// over every [`crate::Engine::run_until`] call since profiling was
/// enabled. One clock read closes each phase and opens the next, so
/// the four phases partition the loop: `total_s` exceeds their sum
/// only by the call's exit (the last pick of the next item, the
/// deadlock check) and a failed or paused call's last step.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WallPhases {
    /// Draining the run queue (stepping actors, posting operations).
    pub drain_s: f64,
    /// LMM solves, completion-prediction updates and stale-top
    /// refreshes.
    pub solve_s: f64,
    /// Timed-event dispatch (latency expiries, sleep expiries), with
    /// the pause guard and the pick of the batch they open.
    pub events_s: f64,
    /// Activity-completion dispatch (transfers/computes finishing),
    /// with the pause guard and the pick of the batch they open.
    pub completions_s: f64,
    /// Whole [`crate::Engine::run_until`] call, end to end.
    pub total_s: f64,
}

/// The engine loop's wall clock while profiling: `None` reads no clock.
pub(crate) struct Laps(pub(crate) Option<Instant>);

impl Laps {
    /// Closes the phase that just ran, adding its wall to `phase`; the
    /// same clock read opens the next phase.
    pub(crate) fn lap(&mut self, phase: &mut f64) {
        if let Some(last) = &mut self.0 {
            let now = Instant::now();
            *phase += now.duration_since(*last).as_secs_f64();
            *last = now;
        }
    }
}

/// Counters and wall-phase attribution collected by the engine: the
/// counters on every run, the wall phases while kernel profiling is
/// enabled. Retrieved (and detached) with
/// [`crate::Engine::take_kernel_profile`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Actor steps executed (run-queue pops that reached the actor).
    pub actor_steps: u64,
    /// Timed events pushed onto the binary event heap.
    pub heap_pushes: u64,
    /// Timed events popped off the binary event heap.
    pub heap_pops: u64,
    /// Peak size of the timed-event heap.
    pub heap_peak: u64,
    /// Timed events that were flow-latency expiries.
    pub latency_events: u64,
    /// Timed events that were sleep expiries.
    pub sleep_events: u64,
    /// In-place completion-prediction updates (indexed-heap `set` or
    /// `remove` after a rate change). In the incremental kernel these
    /// are the *eager* re-keys — predictions that moved earlier.
    pub completion_updates: u64,
    /// Lazy re-keys: rate changes that only *marked* the prediction
    /// stale because the true completion moved later (docs/KERNEL.md
    /// §3). Each one is an O(log n) heap sift skipped.
    pub lazy_rekeys: u64,
    /// Stale entries that surfaced at the heap top and were refreshed
    /// to their true prediction before popping. The gap between
    /// `lazy_rekeys` and `stale_pops` is pure saved work: predictions
    /// re-invalidated or completed without ever being re-keyed.
    pub stale_pops: u64,
    /// Activity completions popped off the indexed heap.
    pub completion_pops: u64,
    /// Peak size of the completion heap (== peak running activities).
    pub completions_peak: u64,
    /// Peak occupancy of the activity slab.
    pub activities_peak: u64,
    /// Operations completed over the profiled run.
    pub ops_completed: u64,
    /// Cumulative incremental-solver counters (solves, islands,
    /// constraints/variables touched, rate changes).
    pub solver: SolverStats,
    /// Wall-clock attribution per engine phase.
    pub wall: WallPhases,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_all_zero() {
        let kp = KernelProfile::default();
        assert_eq!(kp.actor_steps, 0);
        assert_eq!(kp.solver.solves, 0);
        assert_eq!(kp.wall.total_s, 0.0);
    }
}
