//! `titobs` — the observability layer of the TiTR reproduction.
//!
//! Figure 4 of the paper lists three outputs of an off-line simulation:
//! the simulated execution time, a **timed trace** (the time-independent
//! trace re-decorated with simulated time stamps) and an application
//! **profile**. The simulation kernel reports events through the
//! [`simkern::observer::Observer`] hook; this crate turns that hook into
//! production-grade outputs without ever buffering the run:
//!
//! * [`timeline::Timeline`] — a **streaming** timed-trace writer with
//!   O(ranks) memory: each completed operation is written as it arrives,
//!   as Chrome trace-event JSON (loadable in `chrome://tracing` and
//!   Perfetto) or as compact CSV.
//! * [`profile::Profile`] — a per-rank aggregator (compute/communication
//!   time, bytes, flops, operation counts, per-tag duration histograms
//!   with fixed log-scale buckets), the paper's Figure-7-style breakdown
//!   computed from *simulated* time. Bit-for-bit reproducible: no
//!   ambient floating state, deterministic accumulation order.
//! * [`metrics::Metrics`] — a registry of counters, gauge values and
//!   wall-clock timers threaded through the
//!   acquire → extract → gather → lint → replay pipeline, so every stage
//!   reports events processed, bytes moved and retries taken.
//! * [`timeres::TimeResolved`] — a **time-resolved** metrics engine:
//!   segments simulated time into windows (fixed width and/or phase
//!   boundaries detected at collective operations) and streams
//!   per-window, per-rank compute/comm time, bytes, operation counts,
//!   active-flow peaks and derived metrics (comm ratio, load imbalance)
//!   in O(ranks + open window) memory.
//! * [`kprof::KernelReport`] — renders the simulation kernel's
//!   self-profile ([`simkern::KernelProfile`]): where the *wall* time
//!   goes (solver vs event machinery) and how much work each solve
//!   touches, the "why is replay slow at this scale" report.
//! * [`paje::write_paje`] — the timed trace as a Paje file for
//!   SimGrid's visualisation tools. Paje wants start order, so it is
//!   the one output written from the run's records
//!   ([`simkern::observer::Collector`]) after the run.
//!
//! The sinks attach to one engine run through
//! [`simkern::observer::Fanout`]; the caller keeps cheap handles and
//! reads results back after the run — no downcasting:
//!
//! ```
//! use simkern::observer::{Fanout, Observer, OpRecord};
//! use titobs::{Metrics, Profile};
//!
//! let profile = Profile::new(2, |_| "op", |_| false);
//! let metrics = Metrics::new();
//! let mut obs = Fanout::new()
//!     .with(profile.sink())
//!     .with(metrics.observer("replay"));
//! // (normally the engine drives this)
//! obs.record(OpRecord { actor: 0, tag: 0, start: 0.0, end: 2.5, volume: 1e9 });
//! obs.engine_ended(2.5);
//! assert_eq!(metrics.counter("replay.ops"), 1);
//! assert!((profile.snapshot().ranks[0].compute_time - 2.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod kprof;
pub mod metrics;
pub mod paje;
pub mod profile;
pub mod timeline;
pub mod timeres;

pub use kprof::KernelReport;
pub use metrics::Metrics;
pub use paje::write_paje;
pub use profile::{Histogram, Profile, ProfileReport, RankProfile, TagStats, HIST_BUCKETS};
pub use timeline::{SharedBuf, Timeline, TimelineFormat, TimelineSummary};
pub use timeres::{
    RankTotals, TimeResReport, TimeResolved, WindowKind, WindowSpec, WindowSummary, CSV_HEADER,
};

/// Maps an operation tag to a human-readable action name (the replay
/// layer passes `tit_replay::tags::name`).
pub type TagNamer = fn(u32) -> &'static str;

/// Classifies a tag as communication (`true`) or computation (`false`);
/// the replay layer passes `tit_replay::tags::is_comm`.
pub type TagClassifier = fn(u32) -> bool;
