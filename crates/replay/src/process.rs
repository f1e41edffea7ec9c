//! The per-process replaying actor.
//!
//! One [`ReplayActor`] per MPI rank streams actions from its source (an
//! in-memory list or a per-process trace file), expands them through the
//! handler [`Registry`] and executes the resulting micro-ops on the
//! simulation kernel. Non-blocking operations enqueue their kernel op in
//! a FIFO request queue; `wait` completes the oldest one — the format has
//! no request identifiers, and the paper's prototype behaves the same
//! way.

use crate::handlers::{ExpandCtx, MicroOp, Registry};
use crate::collectives::CollectiveAlgo;
use simkern::engine::{Ctx, MailboxKey, OpId};
use simkern::{Actor, Step, Wake};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tit_core::checkpoint::{Dec, Enc};
use tit_core::trace::ProcessTraceReader;
use tit_core::Action;

/// Supplies the action stream of one process.
pub trait ActionSource: Send {
    /// Next action, or `None` at end of trace.
    fn next_action(&mut self) -> std::io::Result<Option<Action>>;
}

/// In-memory action list.
pub struct VecSource(std::vec::IntoIter<Action>);

impl VecSource {
    /// Wraps an owned action list.
    pub fn new(actions: Vec<Action>) -> Self {
        VecSource(actions.into_iter())
    }
}

impl ActionSource for VecSource {
    fn next_action(&mut self) -> std::io::Result<Option<Action>> {
        Ok(self.0.next())
    }
}

/// One rank's slice of a shared interned [`tit_core::CompactTrace`] — the
/// zero-copy source behind [`Input::compact`](crate::Input::compact).
/// Cloning the `Arc` per rank lets all actors stream from one
/// struct-of-arrays allocation.
pub struct CompactSource {
    trace: Arc<tit_core::CompactTrace>,
    rank: usize,
    index: usize,
}

impl CompactSource {
    /// A source over `rank`'s actions in `trace`. Ranks beyond
    /// `trace.num_processes()` simply yield an empty stream.
    pub fn new(trace: Arc<tit_core::CompactTrace>, rank: usize) -> Self {
        CompactSource { trace, rank, index: 0 }
    }
}

impl ActionSource for CompactSource {
    fn next_action(&mut self) -> std::io::Result<Option<Action>> {
        let a = self.trace.get(self.rank, self.index);
        if a.is_some() {
            self.index += 1;
        }
        Ok(a)
    }
}

/// Streaming per-process trace file (`SG_process<N>.trace`).
pub struct FileSource {
    reader: ProcessTraceReader,
    rank: usize,
    path: std::path::PathBuf,
}

impl FileSource {
    /// Opens `path`; every line must belong to `rank`.
    pub fn open(path: &std::path::Path, rank: usize) -> std::io::Result<Self> {
        Ok(FileSource {
            reader: ProcessTraceReader::open(path)?,
            rank,
            path: path.to_path_buf(),
        })
    }

    /// Prefixes `e` with this source's file path, so a parse error
    /// (which already carries the line number and offending token) also
    /// names the file it came from.
    fn with_path(&self, e: std::io::Error) -> std::io::Error {
        std::io::Error::new(e.kind(), format!("{}: {e}", self.path.display()))
    }
}

impl ActionSource for FileSource {
    fn next_action(&mut self) -> std::io::Result<Option<Action>> {
        match self.reader.next_action().map_err(|e| self.with_path(e))? {
            None => Ok(None),
            Some((pid, a)) => {
                if pid != self.rank {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "{}: trace line for p{pid} in p{}'s file",
                            self.path.display(),
                            self.rank
                        ),
                    ));
                }
                Ok(Some(a))
            }
        }
    }
}

/// The replaying state machine for one rank.
pub struct ReplayActor {
    rank: usize,
    /// Ranks in the replay, the bound on any declared communicator.
    ranks: usize,
    nproc: usize,
    src: Box<dyn ActionSource>,
    registry: Arc<Registry>,
    algo: CollectiveAlgo,
    micro: VecDeque<MicroOp>,
    expand_buf: Vec<MicroOp>,
    requests: VecDeque<OpId>,
    actions_replayed: Arc<AtomicU64>,
    /// Actions this actor itself has pulled from `src` — the resume
    /// cursor. Unlike the shared `actions_replayed` counter this is
    /// per-rank, so a restored actor knows how far to fast-forward its
    /// own stream.
    cursor: u64,
}

impl ReplayActor {
    /// Builds the actor for `rank` of a replay of `ranks` processes,
    /// incrementing `actions_replayed` once per action pulled from `src`.
    pub fn new(
        rank: usize,
        ranks: usize,
        src: Box<dyn ActionSource>,
        registry: Arc<Registry>,
        algo: CollectiveAlgo,
        actions_replayed: Arc<AtomicU64>,
    ) -> Self {
        ReplayActor {
            rank,
            ranks,
            nproc: 0,
            src,
            registry,
            algo,
            micro: VecDeque::new(),
            expand_buf: Vec::new(),
            requests: VecDeque::new(),
            actions_replayed,
            cursor: 0,
        }
    }

    /// Serializes one queued micro-op (checkpoint payload).
    fn enc_micro(e: &mut Enc, op: &MicroOp) {
        match *op {
            MicroOp::Exec { flops, tag } => {
                e.u8(0);
                e.f64(flops);
                e.u32(tag);
            }
            MicroOp::Send { dst, bytes, tag } => {
                e.u8(1);
                e.usize(dst);
                e.f64(bytes);
                e.u32(tag);
            }
            MicroOp::Recv { src, tag } => {
                e.u8(2);
                e.usize(src);
                e.u32(tag);
            }
            MicroOp::CollSend { dst, bytes, tag } => {
                e.u8(3);
                e.usize(dst);
                e.f64(bytes);
                e.u32(tag);
            }
            MicroOp::CollRecv { src, tag } => {
                e.u8(4);
                e.usize(src);
                e.u32(tag);
            }
            MicroOp::IsendReq { dst, bytes, tag } => {
                e.u8(5);
                e.usize(dst);
                e.f64(bytes);
                e.u32(tag);
            }
            MicroOp::IrecvReq { src, tag } => {
                e.u8(6);
                e.usize(src);
                e.u32(tag);
            }
            MicroOp::WaitReq { tag } => {
                e.u8(7);
                e.u32(tag);
            }
            MicroOp::SetCommSize { nproc } => {
                e.u8(8);
                e.usize(nproc);
            }
        }
    }

    /// Deserializes one micro-op written by [`Self::enc_micro`].
    fn dec_micro(d: &mut Dec<'_>) -> Result<MicroOp, String> {
        Ok(match d.u8()? {
            0 => MicroOp::Exec { flops: d.f64()?, tag: d.u32()? },
            1 => MicroOp::Send { dst: d.usize()?, bytes: d.f64()?, tag: d.u32()? },
            2 => MicroOp::Recv { src: d.usize()?, tag: d.u32()? },
            3 => MicroOp::CollSend { dst: d.usize()?, bytes: d.f64()?, tag: d.u32()? },
            4 => MicroOp::CollRecv { src: d.usize()?, tag: d.u32()? },
            5 => MicroOp::IsendReq { dst: d.usize()?, bytes: d.f64()?, tag: d.u32()? },
            6 => MicroOp::IrecvReq { src: d.usize()?, tag: d.u32()? },
            7 => MicroOp::WaitReq { tag: d.u32()? },
            8 => MicroOp::SetCommSize { nproc: d.usize()? },
            k => return Err(format!("unknown micro-op discriminant {k}")),
        })
    }

    /// Runs one micro-op; `Ok(Some(step))` when it blocks the actor,
    /// `Err` when the trace is structurally impossible at this point.
    fn run_micro(&mut self, ctx: &mut Ctx<'_>, op: MicroOp) -> Result<Option<Step>, String> {
        match op {
            MicroOp::Exec { flops, tag } => Ok(Some(Step::Wait(ctx.execute_tagged(flops, tag)))),
            MicroOp::Send { dst, bytes, tag } => {
                let mb = MailboxKey::p2p(self.rank, dst);
                Ok(Some(Step::Wait(ctx.isend_tagged(mb, bytes, tag))))
            }
            MicroOp::Recv { src, tag } => {
                let mb = MailboxKey::p2p(src, self.rank);
                Ok(Some(Step::Wait(ctx.irecv_tagged(mb, tag))))
            }
            MicroOp::CollSend { dst, bytes, tag } => {
                let mb = MailboxKey::coll(self.rank, dst);
                Ok(Some(Step::Wait(ctx.isend_tagged(mb, bytes, tag))))
            }
            MicroOp::CollRecv { src, tag } => {
                let mb = MailboxKey::coll(src, self.rank);
                Ok(Some(Step::Wait(ctx.irecv_tagged(mb, tag))))
            }
            MicroOp::IsendReq { dst, bytes, tag } => {
                let mb = MailboxKey::p2p(self.rank, dst);
                let op = ctx.isend_tagged(mb, bytes, tag);
                self.requests.push_back(op);
                Ok(None)
            }
            MicroOp::IrecvReq { src, tag } => {
                let mb = MailboxKey::p2p(src, self.rank);
                let op = ctx.irecv_tagged(mb, tag);
                self.requests.push_back(op);
                Ok(None)
            }
            MicroOp::WaitReq { .. } => match self.requests.pop_front() {
                Some(op) => Ok(Some(Step::Wait(op))),
                None => Err("wait with no pending request (malformed trace)".into()),
            },
            MicroOp::SetCommSize { nproc } => {
                self.nproc = nproc;
                Ok(None)
            }
        }
    }
}

impl Actor for ReplayActor {
    fn step(&mut self, ctx: &mut Ctx<'_>, _wake: Wake) -> Step {
        loop {
            if let Some(op) = self.micro.pop_front() {
                match self.run_micro(ctx, op) {
                    Ok(Some(step)) => return step,
                    Ok(None) => continue,
                    // Failure channel: report instead of unwinding —
                    // the engine aborts the run with a typed error
                    // naming this rank.
                    Err(reason) => return Step::Fail { reason },
                }
            }
            let action = match self.src.next_action() {
                Ok(Some(a)) => a,
                Ok(None) => return Step::Done,
                Err(e) => return Step::Fail { reason: format!("trace read failed: {e}") },
            };
            self.actions_replayed.fetch_add(1, Ordering::Relaxed);
            self.cursor += 1;
            let ectx = ExpandCtx {
                rank: self.rank,
                ranks: self.ranks,
                nproc: self.nproc,
                algo: self.algo,
            };
            self.expand_buf.clear();
            if let Err(e) = self.registry.expand(&ectx, &action, &mut self.expand_buf) {
                return Step::Fail { reason: e.to_string() };
            }
            self.micro.extend(self.expand_buf.drain(..));
        }
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        e.usize(self.rank);
        e.usize(self.nproc);
        e.u64(self.cursor);
        e.usize(self.micro.len());
        for op in &self.micro {
            Self::enc_micro(&mut e, op);
        }
        e.usize(self.requests.len());
        for &op in &self.requests {
            e.usize(op.to_raw());
        }
        Some(e.finish())
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut d = Dec::new(state);
        let rank = d.usize()?;
        if rank != self.rank {
            return Err(format!(
                "checkpointed state for rank {rank} restored into rank {}",
                self.rank
            ));
        }
        let nproc = d.usize()?;
        let cursor = d.u64()?;
        let n_micro = d.usize()?;
        let mut micro = VecDeque::with_capacity(n_micro.min(1 << 16));
        for _ in 0..n_micro {
            micro.push_back(Self::dec_micro(&mut d)?);
        }
        let n_req = d.usize()?;
        let mut requests = VecDeque::with_capacity(n_req.min(1 << 16));
        for _ in 0..n_req {
            requests.push_back(OpId::from_raw(d.usize()?));
        }
        d.expect_done()?;
        // Fast-forward the action stream to the cursor without touching
        // the shared counter — the resumed total is restored from the
        // checkpoint, not re-counted.
        for i in 0..cursor {
            match self.src.next_action() {
                Ok(Some(_)) => {}
                Ok(None) => {
                    return Err(format!(
                        "rank {}: trace ended at action {i} but the checkpoint \
                         consumed {cursor} — trace changed since the checkpoint",
                        self.rank
                    ));
                }
                Err(e) => {
                    return Err(format!(
                        "rank {}: trace read failed while fast-forwarding to \
                         action {cursor}: {e}",
                        self.rank
                    ));
                }
            }
        }
        self.nproc = nproc;
        self.cursor = cursor;
        self.micro = micro;
        self.requests = requests;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_yields_in_order() {
        let mut s = VecSource::new(vec![Action::Wait, Action::Barrier]);
        assert_eq!(s.next_action().unwrap(), Some(Action::Wait));
        assert_eq!(s.next_action().unwrap(), Some(Action::Barrier));
        assert_eq!(s.next_action().unwrap(), None);
    }

    #[test]
    fn compact_source_streams_one_rank() {
        let mut c = tit_core::CompactTrace::new();
        c.begin_process();
        c.push(&Action::Barrier).unwrap();
        c.begin_process();
        c.push(&Action::Wait).unwrap();
        c.push(&Action::Compute { flops: 2.0 }).unwrap();
        let c = Arc::new(c);
        let mut s1 = CompactSource::new(Arc::clone(&c), 1);
        assert_eq!(s1.next_action().unwrap(), Some(Action::Wait));
        assert_eq!(s1.next_action().unwrap(), Some(Action::Compute { flops: 2.0 }));
        assert_eq!(s1.next_action().unwrap(), None);
        let mut beyond = CompactSource::new(c, 9);
        assert_eq!(beyond.next_action().unwrap(), None);
    }

    #[test]
    fn file_source_rejects_foreign_ranks() {
        let dir = std::env::temp_dir().join(format!("titr-fsrc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("SG_process0.trace");
        std::fs::write(&path, "p1 wait\n").unwrap();
        let mut s = FileSource::open(&path, 0).unwrap();
        assert!(s.next_action().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
