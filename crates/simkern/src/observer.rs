//! Observation hooks: turn a replay into a *timed* trace or a profile.
//!
//! Figure 4 of the paper lists the possible outputs of an off-line
//! simulation: the simulated execution time, a timed trace (time-stamped
//! events in simulated time), and an application profile. The engine
//! reports every completed operation to an optional [`Observer`]; the
//! replay layer gives each operation a `tag` identifying the action kind
//! so observers can reconstruct per-action timelines without the engine
//! knowing MPI semantics.
//!
//! Besides per-operation completion records, observers also receive
//! *lifecycle* events — actor start/end, operation start, end of the
//! whole run — through default-implemented hooks, so a streaming
//! consumer can emit structured output without buffering the run.
//!
//! # Streaming, not buffering
//!
//! [`Collector`] keeps **every** record in an unbounded `Vec`; that is
//! fine for tests, small runs and the one output that needs the whole
//! run first (a Paje trace, written in start order), but a
//! class-D-scale replay emits hundreds of millions of records.
//! Production observers should stream:
//! aggregate in O(ranks) state, or write each record out as it arrives
//! (see the `titobs` crate for ready-made streaming sinks). A minimal
//! streaming observer that keeps only per-rank busy time:
//!
//! ```
//! use simkern::observer::{Observer, OpRecord};
//!
//! /// O(ranks) memory, regardless of how many operations complete.
//! struct BusyTime {
//!     per_rank: Vec<f64>,
//! }
//!
//! impl Observer for BusyTime {
//!     fn record(&mut self, rec: OpRecord) {
//!         if let Some(t) = self.per_rank.get_mut(rec.actor) {
//!             *t += rec.end - rec.start;
//!         }
//!     }
//! }
//!
//! let mut obs = BusyTime { per_rank: vec![0.0; 4] };
//! obs.record(OpRecord { actor: 1, tag: 0, start: 0.5, end: 2.0, volume: 1e6 });
//! assert!((obs.per_rank[1] - 1.5).abs() < 1e-12);
//! ```

use std::sync::{Arc, Mutex, PoisonError};

/// A completed simulated operation.
///
/// # Ordering guarantee
///
/// The engine delivers records in **completion order**: across all
/// actors, `end` is non-decreasing from one [`Observer::record`] call to
/// the next (simultaneous completions are delivered in a deterministic
/// engine-internal order). Within a single record `start <= end` always
/// holds; the engine asserts it at record time in debug builds. `start`
/// values carry no cross-record ordering guarantee — an operation posted
/// early can complete late.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Engine actor index (== MPI rank for the replayer and emulator).
    pub actor: usize,
    /// Caller-chosen operation tag (action kind).
    pub tag: u32,
    /// Simulated start time, seconds.
    pub start: f64,
    /// Simulated completion time, seconds.
    pub end: f64,
    /// Volume: flops for executions, bytes for communications.
    pub volume: f64,
}

/// Receives simulation events as they happen.
///
/// The only required method is [`Observer::record`], called once per
/// completed operation in completion order (see [`OpRecord`]). The
/// lifecycle hooks default to no-ops so existing observers keep
/// compiling; streaming consumers override what they need.
pub trait Observer {
    /// One completed operation, delivered in completion order.
    fn record(&mut self, rec: OpRecord);

    /// `actor` was scheduled for the first time at simulated `time`.
    fn actor_started(&mut self, actor: usize, time: f64) {
        let _ = (actor, time);
    }

    /// `actor` terminated (returned `Step::Done` or failed) at `time`.
    fn actor_ended(&mut self, actor: usize, time: f64) {
        let _ = (actor, time);
    }

    /// `actor` posted an operation tagged `tag` at `time`. Completion
    /// arrives later through [`Observer::record`] (instantaneous
    /// operations post and complete at the same `time`).
    fn op_started(&mut self, actor: usize, tag: u32, time: f64) {
        let _ = (actor, tag, time);
    }

    /// The run finished successfully at simulated `time` (the makespan).
    /// Not called when the run aborts with an error.
    fn engine_ended(&mut self, time: f64) {
        let _ = time;
    }
}

/// Shared record collector: stores every record, in completion order.
///
/// Memory grows linearly with the number of completed operations — for
/// anything bigger than a test trace, prefer a streaming observer (see
/// the module docs).
///
/// A handle, like the `titobs` sinks: the caller keeps it, installs
/// [`Collector::sink`] into the engine (directly or inside a
/// [`Fanout`]) and reads the records back with [`Collector::take`]
/// after the run.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    records: Arc<Mutex<Vec<OpRecord>>>,
}

impl Collector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The observer half, to install into the engine; it shares this
    /// collector's records.
    #[must_use]
    pub fn sink(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }

    /// Takes the records collected so far, in completion order, leaving
    /// the collector empty.
    #[must_use]
    pub fn take(&self) -> Vec<OpRecord> {
        // A poisoned lock still holds every record pushed before the
        // panic; pushes never leave the vector half-updated.
        std::mem::take(&mut *self.records.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Observer for Collector {
    fn record(&mut self, rec: OpRecord) {
        self.records.lock().unwrap_or_else(PoisonError::into_inner).push(rec);
    }
}

/// Forwards every event to each inner observer, in order — the way to
/// produce a timed trace *and* a profile *and* metrics from one run.
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<Box<dyn Observer>>,
}

impl Fanout {
    /// An empty fanout (observing into it is a no-op).
    pub fn new() -> Self {
        Fanout { sinks: Vec::new() }
    }

    /// Adds a sink; events are forwarded in insertion order.
    pub fn push(&mut self, obs: Box<dyn Observer>) {
        self.sinks.push(obs);
    }

    /// Builder-style [`Fanout::push`].
    #[must_use]
    pub fn with(mut self, obs: Box<dyn Observer>) -> Self {
        self.push(obs);
        self
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sink is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Observer for Fanout {
    fn record(&mut self, rec: OpRecord) {
        for s in &mut self.sinks {
            s.record(rec);
        }
    }

    fn actor_started(&mut self, actor: usize, time: f64) {
        for s in &mut self.sinks {
            s.actor_started(actor, time);
        }
    }

    fn actor_ended(&mut self, actor: usize, time: f64) {
        for s in &mut self.sinks {
            s.actor_ended(actor, time);
        }
    }

    fn op_started(&mut self, actor: usize, tag: u32, time: f64) {
        for s in &mut self.sinks {
            s.op_started(actor, tag, time);
        }
    }

    fn engine_ended(&mut self, time: f64) {
        for s in &mut self.sinks {
            s.engine_ended(time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_stores_in_order() {
        let c = Collector::new();
        let mut sink = c.sink();
        sink.record(OpRecord { actor: 0, tag: 1, start: 0.0, end: 1.0, volume: 5.0 });
        sink.record(OpRecord { actor: 1, tag: 2, start: 1.0, end: 2.0, volume: 6.0 });
        let records = c.take();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].tag, 1);
        assert!(c.take().is_empty(), "take leaves the collector empty");
    }

    #[test]
    fn fanout_forwards_all_events_to_all_sinks() {
        let (a, b) = (Collector::new(), Collector::new());
        let mut f = Fanout::new().with(a.sink()).with(b.sink());
        assert_eq!(f.len(), 2);
        f.actor_started(0, 0.0);
        f.op_started(0, 3, 0.0);
        f.record(OpRecord { actor: 0, tag: 3, start: 0.0, end: 1.0, volume: 2.0 });
        f.actor_ended(0, 1.0);
        f.engine_ended(1.0);
        for c in [a, b] {
            let records = c.take();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].tag, 3);
        }
    }

    #[test]
    fn lifecycle_hooks_default_to_noops() {
        // An observer implementing only `record` compiles and accepts
        // every lifecycle event.
        struct OnlyRecord(u64);
        impl Observer for OnlyRecord {
            fn record(&mut self, _rec: OpRecord) {
                self.0 += 1;
            }
        }
        let mut o = OnlyRecord(0);
        o.actor_started(0, 0.0);
        o.op_started(0, 1, 0.0);
        o.record(OpRecord { actor: 0, tag: 1, start: 0.0, end: 1.0, volume: 0.0 });
        o.actor_ended(0, 1.0);
        o.engine_ended(1.0);
        assert_eq!(o.0, 1);
    }
}
