//! Action handlers: the replay-tool analogue of `MSG_action_register`.
//!
//! The paper's simulator binds every trace keyword to a function that
//! "corresponds to the expected behavior of a given action" (Section 5,
//! step 1-2). Here that binding is one exhaustive `match`: [`expand`]
//! has one arm per [`Action`] variant, each expanding the action into
//! kernel [`MicroOp`]s. `Action` is a closed enum, so the compiler
//! checks that every Table 1 keyword has its handler. The replayer and
//! `tit-analyze` both expand through this one function, so they model
//! the same program by construction. Alternative collective semantics
//! (e.g. a flat-tree broadcast) are chosen with
//! [`ReplayConfig::algo`](crate::ReplayConfig::algo).

use crate::collectives::{self, CollectiveAlgo};
use crate::tags;
use tit_core::Action;

/// A kernel-level step produced by expanding one action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MicroOp {
    /// Compute `flops` on the local host (blocking).
    Exec {
        /// Floating-point operations to burn.
        flops: f64,
        /// Observer tag attributed to the resulting kernel op.
        tag: u32,
    },
    /// Blocking point-to-point send on the application channel.
    Send {
        /// Destination rank.
        dst: usize,
        /// Message volume in bytes.
        bytes: f64,
        /// Observer tag attributed to the resulting kernel op.
        tag: u32,
    },
    /// Blocking point-to-point receive on the application channel.
    Recv {
        /// Source rank.
        src: usize,
        /// Observer tag attributed to the resulting kernel op.
        tag: u32,
    },
    /// Blocking send on the collective channel.
    CollSend {
        /// Destination rank.
        dst: usize,
        /// Message volume in bytes.
        bytes: f64,
        /// Observer tag attributed to the resulting kernel op.
        tag: u32,
    },
    /// Blocking receive on the collective channel.
    CollRecv {
        /// Source rank.
        src: usize,
        /// Observer tag attributed to the resulting kernel op.
        tag: u32,
    },
    /// Non-blocking send: enqueue a request for a later `wait`.
    IsendReq {
        /// Destination rank.
        dst: usize,
        /// Message volume in bytes.
        bytes: f64,
        /// Observer tag attributed to the resulting kernel op.
        tag: u32,
    },
    /// Non-blocking receive: enqueue a request for a later `wait`.
    IrecvReq {
        /// Source rank.
        src: usize,
        /// Observer tag attributed to the resulting kernel op.
        tag: u32,
    },
    /// Complete the oldest pending request.
    WaitReq {
        /// Observer tag attributed to the wait itself.
        tag: u32,
    },
    /// Update the communicator size.
    SetCommSize {
        /// New communicator size.
        nproc: usize,
    },
}

/// Context a handler sees when expanding an action.
#[derive(Debug, Clone, Copy)]
pub struct ExpandCtx {
    /// This process's rank.
    pub rank: usize,
    /// Number of ranks replayed: no communicator can be larger.
    pub ranks: usize,
    /// Current communicator size (0 before any `comm_size`).
    pub nproc: usize,
    /// Collective decomposition shape.
    pub algo: CollectiveAlgo,
}

/// Why an action could not be expanded into micro-ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandError {
    /// The action keyword that failed to expand.
    pub keyword: String,
    /// Why the expansion is impossible.
    pub detail: String,
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot expand {:?}: {}", self.keyword, self.detail)
    }
}

impl std::error::Error for ExpandError {}

/// Expands `action` into `out`, one arm per Table 1 keyword. A
/// structurally invalid action (e.g. a collective before `comm_size`)
/// is a typed error, not a panic: traces come from the acquisition
/// pipeline and may be arbitrarily corrupt. Nothing is pushed on error.
pub fn expand(ctx: &ExpandCtx, action: &Action, out: &mut Vec<MicroOp>) -> Result<(), ExpandError> {
    match *action {
        Action::Compute { flops } => out.push(MicroOp::Exec { flops, tag: tags::COMPUTE }),
        Action::Send { dst, bytes } => out.push(MicroOp::Send { dst, bytes, tag: tags::SEND }),
        Action::Isend { dst, bytes } => {
            out.push(MicroOp::IsendReq { dst, bytes, tag: tags::ISEND });
        }
        Action::Recv { src, .. } => out.push(MicroOp::Recv { src, tag: tags::RECV }),
        Action::Irecv { src, .. } => out.push(MicroOp::IrecvReq { src, tag: tags::IRECV }),
        Action::Bcast { bytes } => {
            ctx.require_comm_size("bcast")?;
            collectives::bcast(ctx.algo, ctx.rank, ctx.nproc, bytes, tags::BCAST, out);
        }
        Action::Reduce { vcomm, vcomp } => {
            ctx.require_comm_size("reduce")?;
            collectives::reduce(ctx.algo, ctx.rank, ctx.nproc, vcomm, vcomp, tags::REDUCE, out);
        }
        Action::AllReduce { vcomm, vcomp } => {
            ctx.require_comm_size("allReduce")?;
            collectives::allreduce(
                ctx.algo, ctx.rank, ctx.nproc, vcomm, vcomp, tags::ALLREDUCE, out,
            );
        }
        Action::Barrier => {
            ctx.require_comm_size("barrier")?;
            collectives::barrier(ctx.algo, ctx.rank, ctx.nproc, tags::BARRIER, out);
        }
        Action::CommSize { nproc } => out.push(MicroOp::SetCommSize { nproc }),
        Action::Wait => out.push(MicroOp::WaitReq { tag: tags::WAIT }),
    }
    Ok(())
}

impl ExpandCtx {
    /// Checks the communicator a collective runs over, before anything
    /// is expanded: it must be declared, and no larger than the replayed
    /// ranks — the tree shapes emit work for every rank up to its size.
    fn require_comm_size(&self, what: &str) -> Result<(), ExpandError> {
        let detail = if self.nproc == 0 {
            format!("p{}: {what} before comm_size (the trace is malformed)", self.rank)
        } else if self.nproc > self.ranks {
            format!(
                "p{}: comm_size {} exceeds the {} replayed ranks",
                self.rank, self.nproc, self.ranks
            )
        } else {
            return Ok(());
        };
        Err(ExpandError { keyword: what.to_string(), detail })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rank: usize, nproc: usize) -> ExpandCtx {
        ExpandCtx { rank, ranks: 64, nproc, algo: CollectiveAlgo::Binomial }
    }

    fn expand1(ctx_: &ExpandCtx, a: Action) -> Vec<MicroOp> {
        let mut out = Vec::new();
        expand(ctx_, &a, &mut out).unwrap();
        out
    }

    #[test]
    fn expand_covers_table_1() {
        let c = ctx(1, 4);
        assert_eq!(
            expand1(&c, Action::Compute { flops: 5.0 }),
            vec![MicroOp::Exec { flops: 5.0, tag: tags::COMPUTE }]
        );
        assert_eq!(
            expand1(&c, Action::Send { dst: 2, bytes: 7.0 }),
            vec![MicroOp::Send { dst: 2, bytes: 7.0, tag: tags::SEND }]
        );
        assert_eq!(
            expand1(&c, Action::Isend { dst: 2, bytes: 7.0 }),
            vec![MicroOp::IsendReq { dst: 2, bytes: 7.0, tag: tags::ISEND }]
        );
        assert_eq!(
            expand1(&c, Action::Recv { src: 0, bytes: None }),
            vec![MicroOp::Recv { src: 0, tag: tags::RECV }]
        );
        assert_eq!(
            expand1(&c, Action::Irecv { src: 0, bytes: Some(4.0) }),
            vec![MicroOp::IrecvReq { src: 0, tag: tags::IRECV }]
        );
        assert_eq!(
            expand1(&c, Action::CommSize { nproc: 4 }),
            vec![MicroOp::SetCommSize { nproc: 4 }]
        );
        assert_eq!(expand1(&c, Action::Wait), vec![MicroOp::WaitReq { tag: tags::WAIT }]);
        assert!(!expand1(&c, Action::Bcast { bytes: 64.0 }).is_empty());
        assert!(!expand1(&c, Action::Barrier).is_empty());
    }

    #[test]
    fn collective_without_comm_size_is_a_typed_error() {
        let mut out = Vec::new();
        let err = expand(&ctx(0, 0), &Action::Barrier, &mut out).unwrap_err();
        assert_eq!(err.keyword, "barrier");
        assert!(err.detail.contains("before comm_size"), "{err}");
        assert!(err.detail.contains("p0"), "{err}");
    }

    #[test]
    fn oversized_comm_size_is_a_typed_error_before_expansion() {
        let collectives = [
            Action::Barrier,
            Action::Bcast { bytes: 8.0 },
            Action::Reduce { vcomm: 8.0, vcomp: 1.0 },
            Action::AllReduce { vcomm: 8.0, vcomp: 1.0 },
        ];
        for algo in [CollectiveAlgo::Binomial, CollectiveAlgo::Flat] {
            for nproc in [3, 3_000_000_000, usize::MAX] {
                for a in &collectives {
                    let c = ExpandCtx { rank: 1, ranks: 2, nproc, algo };
                    let mut out = Vec::new();
                    let err = expand(&c, a, &mut out).unwrap_err();
                    assert_eq!(err.keyword, a.keyword());
                    assert!(err.detail.contains("p1"), "{err}");
                    assert!(err.detail.contains(&format!("comm_size {nproc} ")), "{err}");
                    assert!(out.is_empty(), "nothing expanded for {a:?}");
                }
            }
        }
        let mut out = Vec::new();
        let full = ExpandCtx { rank: 1, ranks: 2, nproc: 2, algo: CollectiveAlgo::Flat };
        expand(&full, &Action::Barrier, &mut out).unwrap();
    }
}
