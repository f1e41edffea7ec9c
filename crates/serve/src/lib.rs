//! `tit-serve` — a fault-tolerant replay daemon.
//!
//! The paper's replay tool answers one what-if question per process
//! launch. This crate turns it into a long-running service: a
//! multi-threaded daemon speaking newline-delimited JSON over TCP
//! ([`proto`]), answering concurrent replay requests (platform
//! variant plus trace reference, with optional rank remap or degraded
//! subset) from shared immutable state — interned
//! [`tit_core::CompactTrace`]s and open `TIB2` stores behind one LRU
//! cache type ([`cache`]).
//!
//! The robustness contract, end to end:
//!
//! * **admission control** ([`queue`]) — a fixed-capacity queue;
//!   excess load is shed with typed `overloaded` responses, never
//!   buffered without bound;
//! * **deadlines** ([`tit_core::deadline`]) — each request carries a
//!   wall-clock budget anchored at admission; overruns return a
//!   *partial* result with a completeness ratio, not an error;
//! * **preemption** ([`exec`]) — when the queue backs up, long
//!   simulations checkpoint at a safe point, requeue, and later resume
//!   bit-identically;
//! * **isolation** — a failed or panicking request produces a typed
//!   error response; the worker pool never shrinks;
//! * **graceful drain** ([`server`]) — stop admitting, finish or
//!   finish-after-resume the backlog, flush `serve.*` metrics
//!   atomically, exit.
//!
//! Everything is std-only (no async runtime): blocking worker threads
//! over a condvar queue, one reader thread per connection, responses
//! multiplexed through a per-connection writer lock.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accesslog;
pub mod cache;
pub mod exec;
pub mod proto;
pub mod queue;
pub mod server;

/// The wire protocol's JSON value, parser and serializer: the
/// workspace's one JSON module.
pub use tit_core::json;
pub use accesslog::{AccessLog, Spans};
pub use cache::Cache;
pub use exec::{Job, Shared, SharedWriter};
pub use proto::{parse_request, ReplayRequest, Request};
pub use queue::{Admission, Refusal};
pub use server::Server;

use std::path::PathBuf;
use std::time::Duration;

/// Daemon configuration (all knobs have conservative defaults; the
/// test hooks are what the chaos and identity suites drive).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::port`]).
    pub addr: String,
    /// Worker threads executing replay jobs.
    pub workers: usize,
    /// Admission queue capacity: requests beyond it are shed.
    pub queue_cap: usize,
    /// Entries each daemon cache keeps (interned traces; open stores).
    pub cache_cap: usize,
    /// Replay slice granularity in actions: deadline and preemption
    /// checks happen at these safe points. `0` disables slicing.
    pub slice_actions: u64,
    /// Queue depth at which workers start preempting long jobs.
    pub preempt_backlog: usize,
    /// Maximum preemption hops per job; after that it runs to
    /// completion (livelock guard).
    pub max_preemptions: u32,
    /// Maximum request line length in bytes; longer lines are refused
    /// with `error/oversized` (and skipped, keeping the connection
    /// usable).
    pub max_line_bytes: usize,
    /// Where to atomically flush the `serve.*` metrics on drain.
    pub metrics_path: Option<PathBuf>,
    /// Structured NDJSON access log: one record per request event,
    /// crash-safe appends, `lost` recovery on restart (see
    /// [`accesslog`]).
    pub access_log: Option<PathBuf>,
    /// Test hook: hold the pressure flag high permanently, so every
    /// eligible job preempts at every slice (exercises resume).
    pub force_preempt: bool,
    /// Test hook: sleep this long before executing each job (makes
    /// queue-overflow sheds deterministic in tests).
    pub job_delay: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            cache_cap: 8,
            slice_actions: 20_000,
            preempt_backlog: 4,
            max_preemptions: 4,
            max_line_bytes: 1 << 20,
            metrics_path: None,
            access_log: None,
            force_preempt: false,
            job_delay: Duration::ZERO,
        }
    }
}
