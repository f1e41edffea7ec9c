//! The replayer's structured failure model.
//!
//! Everything that can go wrong between "here is a trace directory" and
//! "here is the simulated time" is a [`ReplayError`] variant naming the
//! failing rank, file, or trace line. Nothing in this crate panics on
//! malformed input, and a malformed trace can never hang the replay: a
//! missing or inconsistent rank surfaces as a typed error (possibly a
//! [`simkern::SimError::Deadlock`] with per-actor wait-for diagnostics).

use simkern::SimError;
use std::path::PathBuf;

/// Why a replay did not produce a simulated time.
#[derive(Debug)]
pub enum ReplayError {
    /// A per-rank trace file could not be opened — the gather stage lost
    /// or never produced this rank's trace.
    MissingRank {
        /// The rank whose trace file is unavailable.
        rank: usize,
        /// The path that failed to open.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// A rank's trace failed mid-replay: unreadable data, a malformed
    /// line (the detail carries file, line number and offending
    /// keyword), or a structurally impossible action sequence (e.g.
    /// `wait` with no pending request).
    Trace {
        /// The rank whose trace is defective.
        rank: usize,
        /// Human-readable description, naming file/line where known.
        detail: String,
    },
    /// The deployment maps a different number of hosts than the trace
    /// has processes.
    Deployment {
        /// Processes in the trace.
        procs: usize,
        /// Hosts in the deployment.
        hosts: usize,
    },
    /// The simulation kernel aborted: a deadlock (with wait-for
    /// diagnostics per blocked rank) or a protocol violation.
    Sim(SimError),
    /// A checkpoint file could not be written, read, decoded, or does
    /// not match this run's platform/config/trace (fingerprint or
    /// cursor mismatch). Resume fails closed instead of diverging.
    Checkpoint {
        /// What was wrong, naming the file where known.
        detail: String,
    },
    /// A TIB2 segmented store failed verification: damaged footer, a
    /// segment whose checksum does not match the footer's record
    /// (naming rank, segment and byte offset), or a short read. The
    /// replay fails closed — no unverified bytes reach the kernel.
    Store(tit_core::tib2::StoreError),
    /// The segment working set needed more bytes than `--mem-budget`
    /// grants and nothing was left to evict. A typed refusal, never an
    /// OOM kill; the error names the exact shortfall.
    Memory(tit_core::membudget::MemoryExceeded),
}

impl ReplayError {
    /// The failing rank, when the failure is attributable to one.
    pub fn rank(&self) -> Option<usize> {
        match self {
            ReplayError::MissingRank { rank, .. } | ReplayError::Trace { rank, .. } => {
                Some(*rank)
            }
            ReplayError::Store(tit_core::tib2::StoreError::SegmentDamaged {
                rank, ..
            }) => Some(*rank),
            ReplayError::Sim(SimError::ActorFailure { actor, .. } | SimError::Protocol {
actor, .. }) => Some(*actor),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MissingRank { rank, path, source } => {
                write!(f, "rank {rank}: cannot open trace {}: {source}", path.display())
            }
            ReplayError::Trace { rank, detail } => {
                write!(f, "rank {rank}: {detail}")
            }
            ReplayError::Deployment { procs, hosts } => {
                write!(
                    f,
                    "deployment maps {hosts} host(s) but the trace has {procs} process(es)"
                )
            }
            ReplayError::Sim(e) => write!(f, "{e}"),
            ReplayError::Checkpoint { detail } => write!(f, "checkpoint: {detail}"),
            ReplayError::Store(e) => write!(f, "{e}"),
            ReplayError::Memory(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::MissingRank { source, .. } => Some(source),
            ReplayError::Sim(e) => Some(e),
            ReplayError::Store(e) => Some(e),
            ReplayError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ReplayError {
    /// An actor failure gives back the replay error it carries (a store
    /// or budget refusal) or folds into [`ReplayError::Trace`];
    /// everything else stays a kernel error.
    fn from(e: SimError) -> Self {
        match e {
            SimError::ActorFailure { actor, reason, .. } => match reason.downcast() {
                Ok(typed) => *typed,
                Err(reason) => ReplayError::Trace { rank: actor, detail: reason.to_string() },
            },
            other => ReplayError::Sim(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_rank_and_file() {
        let e = ReplayError::MissingRank {
            rank: 3,
            path: PathBuf::from("/tmp/SG_process3.trace"),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 3"), "{msg}");
        assert!(msg.contains("SG_process3.trace"), "{msg}");
        assert_eq!(e.rank(), Some(3));
    }

    #[test]
    fn actor_failures_fold_into_trace_errors() {
        let e: ReplayError = SimError::ActorFailure {
            actor: 2,
            time: 0.5,
            reason: "bad keyword at line 7".into(),
        }
        .into();
        assert!(matches!(&e, ReplayError::Trace { rank: 2, .. }), "{e}");
        assert_eq!(e.rank(), Some(2));
    }

    #[test]
    fn typed_actor_failures_come_back_unchanged() {
        use tit_core::tib2::StoreError;
        let typed = ReplayError::Store(StoreError::OutOfRange { rank: 1, segment: 2 });
        let e: ReplayError =
            SimError::ActorFailure { actor: 1, time: 0.5, reason: Box::new(typed) }.into();
        assert!(matches!(e, ReplayError::Store(StoreError::OutOfRange { rank: 1, segment: 2 })));
    }
}
