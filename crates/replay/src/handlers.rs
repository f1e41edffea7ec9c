//! Action handlers: the replay-tool analogue of `MSG_action_register`.
//!
//! The paper's simulator binds every trace keyword to a function that
//! "corresponds to the expected behavior of a given action" (Section 5,
//! step 1-2). Here a handler expands one [`Action`] into kernel
//! [`MicroOp`]s; the default [`Registry`] covers all of Table 1, and
//! callers may re-register keywords to explore alternative semantics
//! (e.g. a flat-tree broadcast) without touching the replayer, which is
//! precisely the flexibility the paper claims for the decoupled design.

use crate::collectives::{self, CollectiveAlgo};
use crate::tags;
use std::collections::HashMap;
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

/// Handler: expands `action` into micro-ops.
pub type Handler =
    Box<dyn Fn(&ExpandCtx, &Action, &mut Vec<MicroOp>) -> Result<(), ExpandError> + Send + Sync>;

/// Keyword → handler table.
pub struct Registry {
    handlers: HashMap<&'static str, Handler>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl Registry {
    /// Empty registry (no keyword bound).
    pub fn empty() -> Self {
        Registry { handlers: HashMap::new() }
    }

    /// Registry with the paper's Table 1 semantics bound.
    pub fn with_defaults() -> Self {
        let mut r = Registry::empty();
        r.register("compute", |_ctx, a, out| {
            if let Action::Compute { flops } = a {
                out.push(MicroOp::Exec { flops: *flops, tag: tags::COMPUTE });
            }
            Ok(())
        });
        r.register("send", |_ctx, a, out| {
            if let Action::Send { dst, bytes } = a {
                out.push(MicroOp::Send { dst: *dst, bytes: *bytes, tag: tags::SEND });
            }
            Ok(())
        });
        r.register("Isend", |_ctx, a, out| {
            if let Action::Isend { dst, bytes } = a {
                out.push(MicroOp::IsendReq { dst: *dst, bytes: *bytes, tag: tags::ISEND });
            }
            Ok(())
        });
        r.register("recv", |_ctx, a, out| {
            if let Action::Recv { src, .. } = a {
                out.push(MicroOp::Recv { src: *src, tag: tags::RECV });
            }
            Ok(())
        });
        r.register("Irecv", |_ctx, a, out| {
            if let Action::Irecv { src, .. } = a {
                out.push(MicroOp::IrecvReq { src: *src, tag: tags::IRECV });
            }
            Ok(())
        });
        r.register("bcast", |ctx, a, out| {
            if let Action::Bcast { bytes } = a {
                ctx.require_comm_size("bcast")?;
                collectives::bcast(ctx.algo, ctx.rank, ctx.nproc, *bytes, tags::BCAST, out);
            }
            Ok(())
        });
        r.register("reduce", |ctx, a, out| {
            if let Action::Reduce { vcomm, vcomp } = a {
                ctx.require_comm_size("reduce")?;
                collectives::reduce(
                    ctx.algo, ctx.rank, ctx.nproc, *vcomm, *vcomp, tags::REDUCE, out,
                );
            }
            Ok(())
        });
        r.register("allReduce", |ctx, a, out| {
            if let Action::AllReduce { vcomm, vcomp } = a {
                ctx.require_comm_size("allReduce")?;
                collectives::allreduce(
                    ctx.algo, ctx.rank, ctx.nproc, *vcomm, *vcomp, tags::ALLREDUCE, out,
                );
            }
            Ok(())
        });
        r.register("barrier", |ctx, _a, out| {
            ctx.require_comm_size("barrier")?;
            collectives::barrier(ctx.algo, ctx.rank, ctx.nproc, tags::BARRIER, out);
            Ok(())
        });
        r.register("comm_size", |_ctx, a, out| {
            if let Action::CommSize { nproc } = a {
                out.push(MicroOp::SetCommSize { nproc: *nproc });
            }
            Ok(())
        });
        r.register("wait", |_ctx, _a, out| {
            out.push(MicroOp::WaitReq { tag: tags::WAIT });
            Ok(())
        });
        r
    }

    /// Binds (or rebinds) `keyword` — the `MSG_action_register` analogue.
    pub fn register(
        &mut self,
        keyword: &'static str,
        f: impl Fn(&ExpandCtx, &Action, &mut Vec<MicroOp>) -> Result<(), ExpandError>
            + Send
            + Sync
            + 'static,
    ) {
        self.handlers.insert(keyword, Box::new(f));
    }

    /// Expands `action`. An unbound keyword (a trace/keyword mismatch)
    /// or a structurally invalid action (e.g. a collective before
    /// `comm_size`) is a typed error, not a panic: traces come from the
    /// acquisition pipeline and may be arbitrarily corrupt.
    pub fn expand(
        &self,
        ctx: &ExpandCtx,
        action: &Action,
        out: &mut Vec<MicroOp>,
    ) -> Result<(), ExpandError> {
        let kw = action.keyword();
        let h = self.handlers.get(kw).ok_or_else(|| ExpandError {
            keyword: kw.to_string(),
            detail: "no handler registered for this keyword".into(),
        })?;
        h(ctx, action, out)
    }
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
        let r = Registry::with_defaults();
        let mut out = Vec::new();
        r.expand(ctx_, &a, &mut out).unwrap();
        out
    }

    #[test]
    fn default_registry_covers_table_1() {
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
        let r = Registry::with_defaults();
        let mut out = Vec::new();
        let err = r.expand(&ctx(0, 0), &Action::Barrier, &mut out).unwrap_err();
        assert_eq!(err.keyword, "barrier");
        assert!(err.detail.contains("before comm_size"), "{err}");
        assert!(err.detail.contains("p0"), "{err}");
    }

    #[test]
    fn oversized_comm_size_is_a_typed_error_before_expansion() {
        let r = Registry::with_defaults();
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
                    let err = r.expand(&c, a, &mut out).unwrap_err();
                    assert_eq!(err.keyword, a.keyword());
                    assert!(err.detail.contains("p1"), "{err}");
                    assert!(err.detail.contains(&format!("comm_size {nproc} ")), "{err}");
                    assert!(out.is_empty(), "nothing expanded for {a:?}");
                }
            }
        }
        let mut out = Vec::new();
        let full = ExpandCtx { rank: 1, ranks: 2, nproc: 2, algo: CollectiveAlgo::Flat };
        r.expand(&full, &Action::Barrier, &mut out).unwrap();
    }

    #[test]
    fn rebinding_overrides_semantics() {
        let mut r = Registry::with_defaults();
        r.register("bcast", |ctx, a, out| {
            if let Action::Bcast { bytes } = a {
                collectives::bcast(CollectiveAlgo::Flat, ctx.rank, ctx.nproc, *bytes, 0, out);
            }
            Ok(())
        });
        let mut out = Vec::new();
        r.expand(&ctx(0, 8), &Action::Bcast { bytes: 1.0 }, &mut out).unwrap();
        assert_eq!(out.len(), 7, "flat bcast from root sends to all 7 peers");
    }

    #[test]
    fn unbound_keyword_is_a_typed_error() {
        let r = Registry::empty();
        let mut out = Vec::new();
        let err = r.expand(&ctx(0, 1), &Action::Wait, &mut out).unwrap_err();
        assert_eq!(err.keyword, "wait");
        assert!(err.detail.contains("no handler"), "{err}");
    }
}
