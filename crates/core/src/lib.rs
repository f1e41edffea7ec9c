//! `tit-core` — the time-independent trace format.
//!
//! The paper's first contribution (Section 3) is an execution-log format
//! that is **independent of time**: instead of time-stamped events, each
//! trace line records the *volume* of an action — a number of floating
//! point operations for a CPU burst, a number of bytes for a
//! communication. Volumes do not depend on the host platform, so a trace
//! acquired anywhere (folded onto few CPUs, scattered across clusters)
//! replays identically.
//!
//! A trace is a list of actions per MPI process:
//!
//! ```text
//! p0 compute 1e6
//! p0 send p1 1e6
//! p0 recv p3
//! ```
//!
//! This crate provides the action vocabulary ([`Action`], Table 1 of the
//! paper), parsing and serialisation ([`codec`]), whole-trace containers
//! and streaming per-process readers/writers ([`trace`]), statistics
//! ([`stats`]), the ordered point-to-point matching and collective
//! sequences every structural check starts from ([`validate`]), the block
//! compressor used for the paper's Section 6.5 compressed-size figure
//! ([`compress`]), a struct-of-arrays interned form for the replay hot
//! path ([`compact`]), parallel per-rank file ingestion ([`ingest`]),
//! crash-safe output writing ([`atomicio`]), the versioned `TICK1`
//! checkpoint container ([`checkpoint`]), wall-clock budgets shared by
//! the CLI watchdog and the serving layer ([`deadline`]), a small
//! LRU cache for fingerprint-keyed shared state ([`lru`]), a weighted
//! DAG arena for happens-before analyses ([`graph`]) and the one JSON
//! value, parser and serializer that every report and the serve
//! protocol share ([`json`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod action;
pub mod atomicio;
pub mod checkpoint;
pub mod codec;
pub mod compact;
pub mod compress;
pub mod deadline;
pub mod graph;
pub mod ingest;
pub mod json;
pub mod lru;
pub mod membudget;
pub mod rss;
pub mod stats;
pub mod tib2;
pub mod trace;
pub mod validate;

pub use action::{Action, Pid};
pub use atomicio::{write_atomic, AtomicFile};
pub use compact::{CompactError, CompactTrace};
pub use deadline::{Budget, Deadline};
pub use graph::{CycleError, Dag, DagBuilder, NodeId};
pub use lru::Lru;
pub use membudget::{MemBudget, MemoryExceeded};
pub use tib2::{SegmentColumns, StoreError, Tib2Store, Tib2Writer};
pub use ingest::{load_compact_exact, load_exact, IngestError};
pub use codec::{format_action, parse_line, ParseError};
pub use stats::TraceStats;
pub use trace::{ProcessTraceReader, ProcessTraceWriter, TiTrace};
pub use validate::{collective_sequences, match_p2p, MatchedPair, P2pEndpoint, P2pMatching};
