//! Compact struct-of-arrays action storage with interned tags.
//!
//! A boxed [`Action`] costs 24 bytes (discriminant plus two `f64`
//! payload slots), and a [`TiTrace`] adds one `Vec` per rank on top.
//! The paper's Section 6.5 replay keeps a class D × 1024 trace resident
//! — hundreds of millions of actions — so the replay simulator stores
//! traces as a [`CompactTrace`]: per rank, three parallel arrays
//! (interned `u32` [`tag`], `u32` peer, `f64` volume) at 16 bytes per
//! action plus a side table, reconstructing each [`Action`] on demand.
//!
//! The encoding is lossless: [`CompactTrace::from_trace`] followed by
//! [`CompactTrace::to_trace`] reproduces the input exactly for every
//! trace the codec can parse. Two trace properties make that possible:
//!
//! * volumes are finite (`NaN` never parses), freeing the `NaN` bit
//!   pattern to encode a receive *without* a byte annotation;
//! * `reduce`/`allReduce` carry two volumes but no peer, freeing the
//!   peer slot to index a side table holding the second volume.
//!
//! ```
//! use tit_core::{Action, TiTrace};
//! use tit_core::compact::CompactTrace;
//!
//! let mut t = TiTrace::new(2);
//! t.push(0, Action::Send { dst: 1, bytes: 1e6 });
//! t.push(1, Action::Recv { src: 0, bytes: None });
//! let c = CompactTrace::from_trace(&t).unwrap();
//! assert_eq!(c.num_actions(), 2);
//! assert_eq!(c.to_trace(), t); // lossless round-trip
//! ```

use crate::action::{Action, Pid};
use crate::tib2::SegmentColumns;
use crate::trace::TiTrace;
use std::sync::Arc;

pub mod tag {
    //! Interned action tag ids: one `u32` per Table 1 keyword.
    //!
    //! Values 1–10 are also the replay layer's observer tags
    //! (`tit_replay::tags` re-exports them), so a tag read out of a
    //! compact trace labels timed-trace entries without translation;
    //! `comm_size` never reaches the observer layer and takes the next
    //! free id.
    //!
    //! ```
    //! use tit_core::{compact::tag, Action};
    //!
    //! let a = Action::AllReduce { vcomm: 8.0, vcomp: 16.0 };
    //! assert_eq!(tag::of(&a), tag::ALLREDUCE);
    //! assert_eq!(tag::keyword(tag::ALLREDUCE), Some("allReduce"));
    //! assert_eq!(tag::from_keyword("allReduce"), Some(tag::ALLREDUCE));
    //! ```

    use crate::action::Action;

    /// `compute` — CPU burst.
    pub const COMPUTE: u32 = 1;
    /// `send` — blocking send.
    pub const SEND: u32 = 2;
    /// `Isend` — non-blocking send.
    pub const ISEND: u32 = 3;
    /// `recv` — blocking receive.
    pub const RECV: u32 = 4;
    /// `Irecv` — non-blocking receive.
    pub const IRECV: u32 = 5;
    /// `bcast` — broadcast rooted at process 0.
    pub const BCAST: u32 = 6;
    /// `reduce` — reduction to process 0.
    pub const REDUCE: u32 = 7;
    /// `allReduce` — reduction plus broadcast.
    pub const ALLREDUCE: u32 = 8;
    /// `barrier` — synchronisation barrier.
    pub const BARRIER: u32 = 9;
    /// `wait` — completes the oldest pending non-blocking request.
    pub const WAIT: u32 = 10;
    /// `comm_size` — declares the communicator size.
    pub const COMM_SIZE: u32 = 11;

    /// Every interned tag, in numeric order.
    pub const ALL: [u32; 11] = [
        COMPUTE, SEND, ISEND, RECV, IRECV, BCAST, REDUCE, ALLREDUCE, BARRIER, WAIT,
        COMM_SIZE,
    ];

    /// The trace keyword a tag stands for; `None` for unknown ids.
    pub fn keyword(tag: u32) -> Option<&'static str> {
        Some(match tag {
            COMPUTE => "compute",
            SEND => "send",
            ISEND => "Isend",
            RECV => "recv",
            IRECV => "Irecv",
            BCAST => "bcast",
            REDUCE => "reduce",
            ALLREDUCE => "allReduce",
            BARRIER => "barrier",
            WAIT => "wait",
            COMM_SIZE => "comm_size",
            _ => return None,
        })
    }

    /// The interned tag of an action.
    pub fn of(action: &Action) -> u32 {
        match action {
            Action::Compute { .. } => COMPUTE,
            Action::Send { .. } => SEND,
            Action::Isend { .. } => ISEND,
            Action::Recv { .. } => RECV,
            Action::Irecv { .. } => IRECV,
            Action::Bcast { .. } => BCAST,
            Action::Reduce { .. } => REDUCE,
            Action::AllReduce { .. } => ALLREDUCE,
            Action::Barrier => BARRIER,
            Action::CommSize { .. } => COMM_SIZE,
            Action::Wait => WAIT,
        }
    }

    /// Inverse of [`keyword`]: resolves a Table 1 keyword to its tag.
    pub fn from_keyword(kw: &str) -> Option<u32> {
        ALL.iter().copied().find(|&t| keyword(t) == Some(kw))
    }
}

/// Peer-slot sentinel for actions without a peer rank.
pub(crate) const NO_PEER: u32 = u32::MAX;

/// Why a trace cannot be interned into a [`CompactTrace`].
///
/// `NaN` never parses, so a `NaN` volume means the in-memory trace was
/// built by hand. A trace line can name a peer or communicator size
/// past the intern range; every replay reader rejects that line with
/// this error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactError {
    /// A peer rank or communicator size exceeds the `u32` intern range.
    PeerTooLarge {
        /// The offending rank or communicator size.
        value: usize,
    },
    /// A volume is `NaN`, which the encoding reserves as the sentinel
    /// for "receive without a byte annotation".
    NanVolume,
    /// More `reduce`/`allReduce` actions than the side table can index.
    TooManyReduces,
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::PeerTooLarge { value } => {
                write!(f, "rank or communicator size {value} exceeds the u32 intern range")
            }
            CompactError::NanVolume => {
                write!(f, "NaN volume (reserved for unannotated receives)")
            }
            CompactError::TooManyReduces => {
                write!(f, "too many reduce actions for the u32 side-table index")
            }
        }
    }
}

impl std::error::Error for CompactError {}

/// A time-independent trace in struct-of-arrays form: 16 bytes per
/// action instead of a boxed [`Action`] list per rank.
///
/// Each rank owns one resident [`SegmentColumns`] — the same columns a
/// `TIB2` segment decodes into, with the rank's own side table — shared
/// through an [`Arc`], so a replay cursor holds its rank's columns the
/// way it holds a paged-in segment. Build one with
/// [`CompactTrace::from_trace`], or incrementally with
/// [`CompactTrace::begin_process`] / [`CompactTrace::push`].
///
/// ```
/// use tit_core::{Action, TiTrace};
/// use tit_core::compact::CompactTrace;
///
/// let mut c = CompactTrace::new();
/// c.begin_process(); // opens rank 0
/// c.push(&Action::Compute { flops: 1e6 }).unwrap();
/// c.begin_process(); // opens rank 1
/// c.push(&Action::Reduce { vcomm: 64.0, vcomp: 1000.0 }).unwrap();
/// assert_eq!(c.num_processes(), 2);
/// assert_eq!(c.get(1, 0), Some(Action::Reduce { vcomm: 64.0, vcomp: 1000.0 }));
/// assert_eq!(c.get(0, 1), None);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompactTrace {
    /// One resident segment per rank.
    ranks: Vec<Arc<SegmentColumns>>,
}

impl CompactTrace {
    /// An empty compact trace (no processes, no actions).
    pub fn new() -> Self {
        CompactTrace { ranks: Vec::new() }
    }

    /// Interns a boxed trace. Fails only on traces no trace file can
    /// produce (see [`CompactError`]).
    pub fn from_trace(t: &TiTrace) -> Result<Self, CompactError> {
        let ranks = t.actions.iter().map(|a| SegmentColumns::from_actions(a).map(Arc::new));
        Ok(CompactTrace { ranks: ranks.collect::<Result<_, _>>()? })
    }

    /// One rank per column set, in rank order.
    pub(crate) fn from_ranks(ranks: Vec<SegmentColumns>) -> Self {
        CompactTrace { ranks: ranks.into_iter().map(Arc::new).collect() }
    }

    /// Expands back to the boxed per-rank form (the exact inverse of
    /// [`CompactTrace::from_trace`]).
    pub fn to_trace(&self) -> TiTrace {
        let mut t = TiTrace::new(self.num_processes());
        for (rank, actions) in t.actions.iter_mut().enumerate() {
            actions.extend(self.iter_rank(rank));
        }
        t
    }

    /// Opens the action list of the next rank; subsequent
    /// [`CompactTrace::push`] calls append to it.
    pub fn begin_process(&mut self) {
        self.ranks.push(Arc::default());
    }

    /// Appends an action to the most recently opened rank (opening rank
    /// 0 implicitly if none is).
    pub fn push(&mut self, action: &Action) -> Result<(), CompactError> {
        if self.ranks.is_empty() {
            self.begin_process();
        }
        let last = self.ranks.len() - 1;
        Arc::make_mut(&mut self.ranks[last]).push(action)
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.ranks.len()
    }

    /// Total number of actions across all processes.
    pub fn num_actions(&self) -> usize {
        self.ranks.iter().map(|c| c.len()).sum()
    }

    /// Every rank's columns, in rank order: what replay cursors read.
    pub fn columns(&self) -> &[Arc<SegmentColumns>] {
        &self.ranks
    }

    /// `rank`'s `index`-th action, or `None` out of range.
    pub fn get(&self, rank: usize, index: usize) -> Option<Action> {
        let cols = self.ranks.get(rank)?;
        (index < cols.len()).then(|| cols.action(index))
    }

    /// Iterates one rank's actions in order (empty for out-of-range
    /// ranks), decoding on the fly.
    pub fn iter_rank(&self, rank: usize) -> impl Iterator<Item = Action> + '_ {
        self.ranks.get(rank).into_iter().flat_map(|c| (0..c.len()).map(move |i| c.action(i)))
    }

    /// Bytes of heap behind the columns — the number the Section 6.5
    /// memory argument is about (a boxed [`TiTrace`] costs
    /// `24 * num_actions()` plus a `Vec` header per rank).
    pub fn heap_bytes(&self) -> usize {
        self.ranks.iter().map(|c| c.heap_bytes()).sum()
    }
}

/// Encodes one action into its interned `(tag, peer, volume)` triple,
/// appending any secondary volume to `aux` — the peer slot of a
/// `reduce`/`allReduce` entry is the side-table index it landed at.
/// Every [`SegmentColumns`] interns through it, with its own side table.
pub(crate) fn encode_parts(
    a: &Action,
    aux: &mut Vec<f64>,
) -> Result<(u32, u32, f64), CompactError> {
    fn peer(p: Pid) -> Result<u32, CompactError> {
        match u32::try_from(p) {
            Ok(v) if v != NO_PEER => Ok(v),
            _ => Err(CompactError::PeerTooLarge { value: p }),
        }
    }
    fn finite(v: f64) -> Result<f64, CompactError> {
        if v.is_nan() {
            Err(CompactError::NanVolume)
        } else {
            Ok(v)
        }
    }
    let mut second = |vcomp: f64| -> Result<u32, CompactError> {
        let idx = u32::try_from(aux.len())
            .ok()
            .filter(|&v| v != NO_PEER)
            .ok_or(CompactError::TooManyReduces)?;
        aux.push(finite(vcomp)?);
        Ok(idx)
    };
    Ok(match *a {
        Action::Compute { flops } => (tag::COMPUTE, NO_PEER, finite(flops)?),
        Action::Send { dst, bytes } => (tag::SEND, peer(dst)?, finite(bytes)?),
        Action::Isend { dst, bytes } => (tag::ISEND, peer(dst)?, finite(bytes)?),
        Action::Recv { src, bytes } => {
            (tag::RECV, peer(src)?, bytes.map_or(Ok(f64::NAN), finite)?)
        }
        Action::Irecv { src, bytes } => {
            (tag::IRECV, peer(src)?, bytes.map_or(Ok(f64::NAN), finite)?)
        }
        Action::Bcast { bytes } => (tag::BCAST, NO_PEER, finite(bytes)?),
        Action::Reduce { vcomm, vcomp } => (tag::REDUCE, second(vcomp)?, finite(vcomm)?),
        Action::AllReduce { vcomm, vcomp } => {
            (tag::ALLREDUCE, second(vcomp)?, finite(vcomm)?)
        }
        Action::Barrier => (tag::BARRIER, NO_PEER, 0.0),
        Action::CommSize { nproc } => (tag::COMM_SIZE, peer(nproc)?, 0.0),
        Action::Wait => (tag::WAIT, NO_PEER, 0.0),
    })
}

/// The exact inverse of [`encode_parts`] for one entry. `aux` is the
/// side table the entry's `reduce`/`allReduce` index points into.
/// Callers must have validated the tag and index (the compact arrays
/// by construction, TIB2 segments at read time).
pub(crate) fn decode_parts(tag_id: u32, peer: u32, vol: f64, aux: &[f64]) -> Action {
    let peer = peer as usize;
    let opt_vol = if vol.is_nan() { None } else { Some(vol) };
    match tag_id {
        tag::COMPUTE => Action::Compute { flops: vol },
        tag::SEND => Action::Send { dst: peer, bytes: vol },
        tag::ISEND => Action::Isend { dst: peer, bytes: vol },
        tag::RECV => Action::Recv { src: peer, bytes: opt_vol },
        tag::IRECV => Action::Irecv { src: peer, bytes: opt_vol },
        tag::BCAST => Action::Bcast { bytes: vol },
        tag::REDUCE => Action::Reduce { vcomm: vol, vcomp: aux[peer] },
        tag::ALLREDUCE => Action::AllReduce { vcomm: vol, vcomp: aux[peer] },
        tag::BARRIER => Action::Barrier,
        tag::COMM_SIZE => Action::CommSize { nproc: peer },
        tag::WAIT => Action::Wait,
        // panics: callers only pass ids produced by `encode_parts`
        other => unreachable!("uninterned tag {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_action() -> Vec<Action> {
        vec![
            Action::Compute { flops: 1e6 },
            Action::Send { dst: 1, bytes: 1024.0 },
            Action::Isend { dst: 2, bytes: 0.5 },
            Action::Recv { src: 3, bytes: None },
            Action::Recv { src: 3, bytes: Some(64.0) },
            Action::Irecv { src: 0, bytes: None },
            Action::Irecv { src: 0, bytes: Some(0.0) },
            Action::Bcast { bytes: 4096.0 },
            Action::Reduce { vcomm: 64.0, vcomp: 1000.0 },
            Action::AllReduce { vcomm: 40.0, vcomp: 500.0 },
            Action::Barrier,
            Action::CommSize { nproc: 8 },
            Action::Wait,
        ]
    }

    #[test]
    fn every_action_round_trips() {
        let mut t = TiTrace::new(3);
        for (i, a) in every_action().into_iter().enumerate() {
            t.push(i % 3, a);
        }
        let c = CompactTrace::from_trace(&t).unwrap();
        assert_eq!(c.num_processes(), 3);
        assert_eq!(c.num_actions(), 13);
        assert_eq!(c.to_trace(), t);
    }

    #[test]
    fn empty_ranks_survive() {
        let mut t = TiTrace::new(4);
        t.push(2, Action::Barrier);
        let c = CompactTrace::from_trace(&t).unwrap();
        assert_eq!(c.num_processes(), 4);
        assert_eq!(c.columns()[0].len(), 0);
        assert_eq!(c.columns()[2].len(), 1);
        assert_eq!(c.to_trace(), t);
    }

    #[test]
    fn get_and_iter_agree() {
        let mut t = TiTrace::new(2);
        for a in every_action() {
            t.push(1, a);
        }
        let c = CompactTrace::from_trace(&t).unwrap();
        let via_iter: Vec<Action> = c.iter_rank(1).collect();
        let n = t.actions[1].len();
        let via_get: Vec<Action> = (0..n).map(|i| c.get(1, i).unwrap()).collect();
        assert_eq!(via_iter, via_get);
        assert_eq!(via_iter, t.actions[1]);
        assert_eq!(c.get(1, n), None);
        assert_eq!(c.get(7, 0), None);
        assert_eq!(c.iter_rank(7).count(), 0);
    }

    #[test]
    fn unannotated_and_annotated_receives_stay_distinct() {
        let mut t = TiTrace::new(1);
        t.push(0, Action::Recv { src: 0, bytes: None });
        t.push(0, Action::Recv { src: 0, bytes: Some(0.0) });
        let c = CompactTrace::from_trace(&t).unwrap();
        assert_eq!(c.get(0, 0), Some(Action::Recv { src: 0, bytes: None }));
        assert_eq!(c.get(0, 1), Some(Action::Recv { src: 0, bytes: Some(0.0) }));
    }

    #[test]
    fn nan_volume_and_huge_peer_are_rejected() {
        let mut t = TiTrace::new(1);
        t.push(0, Action::Compute { flops: f64::NAN });
        assert_eq!(CompactTrace::from_trace(&t), Err(CompactError::NanVolume));
        let mut t = TiTrace::new(1);
        t.push(0, Action::Recv { src: 0, bytes: Some(f64::NAN) });
        assert_eq!(CompactTrace::from_trace(&t), Err(CompactError::NanVolume));
        if usize::BITS > 32 {
            let mut t = TiTrace::new(1);
            t.push(0, Action::Send { dst: u32::MAX as usize, bytes: 1.0 });
            assert_eq!(
                CompactTrace::from_trace(&t),
                Err(CompactError::PeerTooLarge { value: u32::MAX as usize })
            );
        }
    }

    #[test]
    fn compact_is_smaller_than_boxed() {
        let mut t = TiTrace::new(8);
        for r in 0..8 {
            for i in 0..1000 {
                t.push(r, Action::Send { dst: (r + 1) % 8, bytes: i as f64 });
            }
        }
        let c = CompactTrace::from_trace(&t).unwrap();
        let boxed = t.num_actions() * std::mem::size_of::<Action>();
        assert!(
            c.heap_bytes() < boxed,
            "compact {} vs boxed {boxed}",
            c.heap_bytes()
        );
    }

    #[test]
    fn tag_keyword_matches_action_keyword() {
        for a in every_action() {
            assert_eq!(tag::keyword(tag::of(&a)), Some(a.keyword()));
            assert_eq!(tag::from_keyword(a.keyword()), Some(tag::of(&a)));
        }
        assert_eq!(tag::keyword(0), None);
        assert_eq!(tag::keyword(99), None);
        assert_eq!(tag::from_keyword("frobnicate"), None);
    }
}
