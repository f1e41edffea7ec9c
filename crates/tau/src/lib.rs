//! `tau-sim` — a reimplementation of the TAU tracing substrate.
//!
//! The paper's acquisition chain (Section 4) instruments the MPI
//! application with **TAU**, which produces, per MPI process:
//!
//! * a binary trace file `tautrace.<node>.<context>.<thread>.trc` holding
//!   every event (function enter/leave, hardware-counter triggers,
//!   message send/receive records), and
//! * an event-definition file `events.<node>.edf` mapping the numeric
//!   event ids used in the trace to function descriptions — the
//!   factorisation that keeps TAU traces ~10× the size of the
//!   time-independent ones rather than far more (Section 6.3).
//!
//! TAU's binary format is read through the **Trace Format Reader** (TFR)
//! library, a callback API; [`reader`] reproduces it
//! ([`reader::TraceCallbacks`] mirrors TFR's eleven callback slots for
//! the event kinds our traces contain), and `tit-extract` implements the
//! callbacks to produce time-independent traces, exactly like the paper's
//! `tau2simgrid` tool.

#![forbid(unsafe_code)]

pub mod edf;
pub mod mpi;
pub mod records;
pub mod reader;
pub mod writer;

pub use edf::{EventDef, EventKind, EventRegistry};
pub use mpi::MpiCall;
pub use reader::{read_trace_file, TraceCallbacks};
pub use records::{Record, RecordKind, RECORD_BYTES};
pub use writer::TauWriter;

/// Conventional TAU trace file name for an MPI rank (single-threaded:
/// context and thread are 0).
pub fn trace_filename(node: usize) -> String {
    format!("tautrace.{node}.0.0.trc")
}

/// Conventional event-definition file name.
pub fn edf_filename(node: usize) -> String {
    format!("events.{node}.edf")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_name_conventions() {
        assert_eq!(trace_filename(3), "tautrace.3.0.0.trc");
        assert_eq!(edf_filename(12), "events.12.edf");
    }
}
