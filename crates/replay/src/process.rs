//! The per-process replaying actor and the one cursor that feeds it.
//!
//! One [`ReplayActor`] per MPI rank reads actions from its column cursor,
//! expands each through [`handlers::expand`] into a micro-op list and
//! executes those on the simulation kernel. Non-blocking operations
//! enqueue their kernel op in a FIFO request queue; `wait` completes the
//! oldest one — the format has no request identifiers, and the paper's
//! prototype behaves the same way.
//!
//! Every input reaches the actor the same way: a cursor over a chunk of
//! interned columns ([`SegmentColumns`]). Inputs differ only in where
//! the next chunk comes from — nowhere (memory, compact and salvaged
//! text inputs hold each rank in one chunk), the [`SegmentCache`] (a
//! store, one segment at a time) or the rank's text file (parsed
//! [`DEFAULT_SEG_ACTIONS`] actions at a time into a reused chunk).
//!
//! [`handlers::expand`]: crate::handlers::expand

use crate::collectives::CollectiveAlgo;
use crate::handlers::{expand, ExpandCtx, MicroOp};
use crate::store::SegmentCache;
use simkern::engine::{Ctx, MailboxKey, OpId};
use simkern::{Actor, Step, Wake};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tit_core::checkpoint::{Dec, Enc};
use tit_core::tib2::{SegmentColumns, DEFAULT_SEG_ACTIONS};
use tit_core::trace::ProcessTraceReader;
use tit_core::Action;

/// Where a cursor's next chunk comes from.
enum Next {
    /// Nowhere: the current chunk is the rank's last.
    Nothing,
    /// Segments `seg..limit` of `rank`, read through the shared cache.
    Store {
        cache: Arc<SegmentCache>,
        rank: usize,
        seg: usize,
        limit: usize,
    },
    /// The rest of the rank's text file.
    Text(Box<TextFile>),
    /// A defective line ended the last chunk: its error, handed over
    /// when the actor reaches it.
    Failed(String),
}

/// One rank's trace file, parsed a chunk at a time.
struct TextFile {
    reader: ProcessTraceReader,
    path: PathBuf,
    rank: usize,
}

impl TextFile {
    /// Parses up to [`DEFAULT_SEG_ACTIONS`] actions into `chunk`. Returns
    /// `None` while the file may hold more, else what follows the chunk:
    /// [`Next::Nothing`] at end of file, [`Next::Failed`] at the first
    /// defective line (unparseable, another pid's, or not internable).
    fn fill(&mut self, chunk: &mut SegmentColumns) -> Option<Next> {
        let failed =
            |detail: String| Some(Next::Failed(format!("{}: {detail}", self.path.display())));
        while chunk.len() < DEFAULT_SEG_ACTIONS {
            match self.reader.next_action() {
                Ok(None) => return Some(Next::Nothing),
                Err(e) => return failed(e.to_string()),
                Ok(Some((pid, _))) if pid != self.rank => {
                    let (line, rank) = (self.reader.line(), self.rank);
                    return failed(format!(
                        "line {line}: trace line for p{pid} in p{rank}'s file"
                    ));
                }
                Ok(Some((_, a))) => {
                    if let Err(e) = chunk.push(&a) {
                        return failed(format!("line {}: {e}", self.reader.line()));
                    }
                }
            }
        }
        None
    }
}

/// One rank's action stream: the chunk it is reading, its position in
/// that chunk, and where the next chunk comes from. A store cursor
/// holds (pins) exactly its current segment.
pub(crate) struct Cursor {
    chunk: Arc<SegmentColumns>,
    pos: usize,
    next: Next,
}

impl Cursor {
    /// A rank held in one resident chunk.
    pub(crate) fn resident(chunk: Arc<SegmentColumns>) -> Self {
        Cursor { chunk, pos: 0, next: Next::Nothing }
    }

    /// A rank with no actions.
    pub(crate) fn empty() -> Self {
        Cursor::resident(Arc::default())
    }

    /// `rank`'s first `limit` store segments, read through `cache`.
    pub(crate) fn store(cache: Arc<SegmentCache>, rank: usize, limit: usize) -> Self {
        Cursor { chunk: Arc::default(), pos: 0, next: Next::Store { cache, rank, seg: 0, limit } }
    }

    /// The trace file at `path`, whose every line must belong to `rank`.
    pub(crate) fn text(path: &Path, rank: usize) -> std::io::Result<Self> {
        let reader = ProcessTraceReader::open(path)?;
        let file = TextFile { reader, path: path.to_path_buf(), rank };
        Ok(Cursor { chunk: Arc::default(), pos: 0, next: Next::Text(Box::new(file)) })
    }

    /// The next action; `Ok(None)` at the end of the rank, `Err` when
    /// reading the next chunk failed or a defective line was reached.
    pub(crate) fn next_action(&mut self) -> Result<Option<Action>, String> {
        if self.pos == self.chunk.len() && !self.refill()? {
            return Ok(None);
        }
        let a = self.chunk.action(self.pos);
        self.pos += 1;
        Ok(Some(a))
    }

    /// Moves on to the next non-empty chunk; `false` at the end.
    fn refill(&mut self) -> Result<bool, String> {
        loop {
            self.pos = 0;
            match &mut self.next {
                Next::Nothing => return Ok(false),
                Next::Failed(e) => return Err(e.clone()),
                Next::Store { cache, rank, seg, limit } => {
                    // Unpin the drained segment before faulting the next.
                    self.chunk = Arc::default();
                    if *seg == *limit {
                        return Ok(false);
                    }
                    self.chunk = cache.segment(*rank, *seg).map_err(|f| cache.record_fault(f))?;
                    *seg += 1;
                }
                Next::Text(file) => {
                    let chunk = Arc::make_mut(&mut self.chunk);
                    chunk.clear();
                    if let Some(end) = file.fill(chunk) {
                        self.next = end;
                    }
                }
            }
            if !self.chunk.is_empty() {
                return Ok(true);
            }
        }
    }

    /// Positions the cursor after the rank's first `target` actions. A
    /// resident chunk seeks in O(1); a store skips whole segments by the
    /// footer's action counts, never reading them; text is re-parsed.
    fn seek(&mut self, target: u64) -> Result<(), String> {
        let mut done = 0u64;
        if let Next::Store { cache, rank, seg, limit } = &mut self.next {
            while *seg < *limit {
                let meta = cache.store().segment_meta(*rank, *seg);
                let n = meta.map_or(0, |m| u64::from(m.n_actions));
                if done + n > target {
                    break;
                }
                done += n;
                *seg += 1;
            }
        }
        while done < target {
            if self.pos == self.chunk.len() {
                match self.refill() {
                    Ok(true) => {}
                    Ok(false) => {
                        return Err(format!(
                            "trace ended at action {done} but the checkpoint consumed \
                             {target} — trace changed since the checkpoint"
                        ));
                    }
                    Err(e) => {
                        return Err(format!(
                            "trace read failed while fast-forwarding to action {target}: {e}"
                        ));
                    }
                }
            }
            // At most the chunk's remaining length, so it fits a usize.
            let step = ((self.chunk.len() - self.pos) as u64).min(target - done);
            self.pos += step as usize;
            done += step;
        }
        Ok(())
    }
}

/// The replaying state machine for one rank.
pub struct ReplayActor {
    rank: usize,
    /// Ranks in the replay, the bound on any declared communicator.
    ranks: usize,
    nproc: usize,
    src: Cursor,
    algo: CollectiveAlgo,
    /// The micro-ops of the current action; `micro[next..]` have not run.
    micro: Vec<MicroOp>,
    next: usize,
    requests: VecDeque<OpId>,
    actions_replayed: Arc<AtomicU64>,
    /// Actions this actor itself has pulled from `src` — the resume
    /// position. Unlike the shared `actions_replayed` counter this is
    /// per-rank, so a restored actor knows where to seek its own stream.
    cursor: u64,
}

impl ReplayActor {
    /// Builds the actor for `rank` of a replay of `ranks` processes,
    /// incrementing `actions_replayed` once per action pulled from `src`.
    pub(crate) fn new(
        rank: usize,
        ranks: usize,
        src: Cursor,
        algo: CollectiveAlgo,
        actions_replayed: Arc<AtomicU64>,
    ) -> Self {
        ReplayActor {
            rank,
            ranks,
            nproc: 0,
            src,
            algo,
            micro: Vec::new(),
            next: 0,
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
            while let Some(&op) = self.micro.get(self.next) {
                self.next += 1;
                match self.run_micro(ctx, op) {
                    Ok(Some(step)) => return step,
                    Ok(None) => {}
                    // Failure channel: report instead of unwinding —
                    // the engine aborts the run with a typed error
                    // naming this rank.
                    Err(reason) => return Step::Fail { reason },
                }
            }
            self.micro.clear();
            self.next = 0;
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
            if let Err(e) = expand(&ectx, &action, &mut self.micro) {
                return Step::Fail { reason: e.to_string() };
            }
        }
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        let pending = &self.micro[self.next..];
        let mut e = Enc::new();
        e.usize(self.rank);
        e.usize(self.nproc);
        e.u64(self.cursor);
        e.usize(pending.len());
        for op in pending {
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
        let mut micro = Vec::with_capacity(n_micro.min(1 << 16));
        for _ in 0..n_micro {
            micro.push(Self::dec_micro(&mut d)?);
        }
        let n_req = d.usize()?;
        let mut requests = VecDeque::with_capacity(n_req.min(1 << 16));
        for _ in 0..n_req {
            requests.push_back(OpId::from_raw(d.usize()?));
        }
        d.expect_done()?;
        // Seek the action stream to the cursor without touching the
        // shared counter — the resumed total is restored from the
        // checkpoint, not re-counted.
        self.src.seek(cursor).map_err(|e| format!("rank {}: {e}", self.rank))?;
        self.nproc = nproc;
        self.cursor = cursor;
        self.micro = micro;
        self.next = 0;
        self.requests = requests;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(c: &mut Cursor) -> Result<Vec<Action>, String> {
        let mut out = Vec::new();
        while let Some(a) = c.next_action()? {
            out.push(a);
        }
        Ok(out)
    }

    #[test]
    fn resident_cursor_streams_and_seeks() {
        let actions = [Action::Barrier, Action::Wait, Action::Compute { flops: 2.0 }];
        let cols = Arc::new(SegmentColumns::from_actions(&actions).unwrap());
        assert_eq!(drain(&mut Cursor::resident(Arc::clone(&cols))).unwrap(), actions);
        let mut c = Cursor::resident(Arc::clone(&cols));
        c.seek(2).unwrap();
        assert_eq!(drain(&mut c).unwrap(), [Action::Compute { flops: 2.0 }]);
        let err = Cursor::resident(cols).seek(4).unwrap_err();
        assert!(err.contains("trace ended at action 3 but the checkpoint consumed 4"), "{err}");
        assert_eq!(drain(&mut Cursor::empty()).unwrap(), []);
    }

    #[test]
    fn text_cursor_rejects_foreign_ranks() {
        let dir = std::env::temp_dir().join(format!("titr-fsrc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("SG_process0.trace");
        std::fs::write(&path, "p0 wait\np1 wait\n").unwrap();
        let mut c = Cursor::text(&path, 0).unwrap();
        assert_eq!(c.next_action().unwrap(), Some(Action::Wait));
        let err = c.next_action().unwrap_err();
        assert!(err.ends_with(": line 2: trace line for p1 in p0's file"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
