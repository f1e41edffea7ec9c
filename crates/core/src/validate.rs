//! The structural primitives of trace checking.
//!
//! A trace that violates the replay's structural rules cannot replay
//! (it would deadlock or crash the replayer). The `titlint` static
//! analyzer checks those rules — send/receive balance, `comm_size`
//! discipline, collective agreement, wait/request discipline, rank
//! ranges — and more (deadlock cycles, volume sanity), with severities
//! and source locations. This module holds the two primitives it builds
//! on: ordered per-pair point-to-point matching ([`match_p2p`], which
//! `titanalyze`'s happens-before graph reuses) and per-rank collective
//! sequences ([`collective_sequences`]).

use crate::action::Action;
use crate::trace::TiTrace;
use std::collections::BTreeMap;

/// One endpoint (the send side or the receive side) of a point-to-point
/// communication, located in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pEndpoint {
    /// Rank performing the operation.
    pub rank: usize,
    /// Index of the action in `rank`'s action list.
    pub index: usize,
    /// The other side: destination for sends, source for receives.
    pub peer: usize,
    /// Byte volume: always known for sends, optional for receives.
    pub bytes: Option<f64>,
    /// True for `Isend`/`Irecv`.
    pub nonblocking: bool,
}

/// A send matched to its receive in per-ordered-pair FIFO order (the
/// replayer's mailbox discipline: the k-th send from `src` to `dst`
/// pairs with the k-th receive posted by `dst` from `src`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedPair {
    /// The send side (`send` or `Isend`).
    pub send: P2pEndpoint,
    /// The receive side (`recv` or `Irecv`).
    pub recv: P2pEndpoint,
}

/// Result of ordered point-to-point matching over a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct P2pMatching {
    /// Send/receive pairs matched in per-pair FIFO order.
    pub matched: Vec<MatchedPair>,
    /// Sends with no matching receive (the peer posts too few).
    pub unmatched_sends: Vec<P2pEndpoint>,
    /// Receives with no matching send.
    pub unmatched_recvs: Vec<P2pEndpoint>,
}

/// Matches every point-to-point send to its receive in per-ordered-pair
/// FIFO order, the discipline the replayer's mailboxes implement.
///
/// Unlike an aggregate count this pins each leftover operation to a
/// `(rank, action index)` location, which is what the static analyzer
/// reports.
pub fn match_p2p(trace: &TiTrace) -> P2pMatching {
    // (src, dst) -> (sends in program order, recvs in program order).
    let mut pairs: BTreeMap<(usize, usize), (Vec<P2pEndpoint>, Vec<P2pEndpoint>)> =
        BTreeMap::new();
    for (rank, actions) in trace.actions.iter().enumerate() {
        for (index, a) in actions.iter().enumerate() {
            match *a {
                Action::Send { dst, bytes } | Action::Isend { dst, bytes } => {
                    let ep = P2pEndpoint {
                        rank,
                        index,
                        peer: dst,
                        bytes: Some(bytes),
                        nonblocking: matches!(a, Action::Isend { .. }),
                    };
                    pairs.entry((rank, dst)).or_default().0.push(ep);
                }
                Action::Recv { src, bytes } | Action::Irecv { src, bytes } => {
                    let ep = P2pEndpoint {
                        rank,
                        index,
                        peer: src,
                        bytes,
                        nonblocking: matches!(a, Action::Irecv { .. }),
                    };
                    pairs.entry((src, rank)).or_default().1.push(ep);
                }
                _ => {}
            }
        }
    }
    let mut out = P2pMatching::default();
    for (_, (sends, recvs)) in pairs {
        let paired = sends.len().min(recvs.len());
        for (s, r) in sends.iter().zip(recvs.iter()) {
            out.matched.push(MatchedPair { send: *s, recv: *r });
        }
        out.unmatched_sends.extend_from_slice(&sends[paired..]);
        out.unmatched_recvs.extend_from_slice(&recvs[paired..]);
    }
    out
}

/// Per-rank collective sequences: for each rank, the ordered list of
/// `(action index, keyword)` of its collective operations. Replay
/// requires these sequences to agree across the communicator.
pub fn collective_sequences(trace: &TiTrace) -> Vec<Vec<(usize, &'static str)>> {
    trace
        .actions
        .iter()
        .map(|actions| {
            actions
                .iter()
                .enumerate()
                .filter(|(_, a)| a.is_collective())
                .map(|(i, a)| (i, a.keyword()))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_p2p_pairs_in_fifo_order_and_reports_leftovers() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Send { dst: 1, bytes: 10.0 });
        t.push(0, Action::Isend { dst: 1, bytes: 20.0 });
        t.push(1, Action::Recv { src: 0, bytes: Some(10.0) });
        t.push(1, Action::Irecv { src: 0, bytes: None });
        t.push(1, Action::Wait);
        t.push(0, Action::Send { dst: 1, bytes: 30.0 }); // no matching recv
        t.push(1, Action::Recv { src: 1, bytes: None }); // self, no send
        let m = match_p2p(&t);
        assert_eq!(m.matched.len(), 2);
        // FIFO: first send pairs with first posted receive.
        assert_eq!(m.matched[0].send.bytes, Some(10.0));
        assert_eq!(m.matched[0].recv.index, 0);
        assert_eq!(m.matched[1].send.bytes, Some(20.0));
        assert!(m.matched[1].recv.nonblocking);
        assert_eq!(m.unmatched_sends.len(), 1);
        assert_eq!(m.unmatched_sends[0].index, 2);
        assert_eq!(m.unmatched_recvs.len(), 1);
        assert_eq!(m.unmatched_recvs[0].peer, 1);
    }

    #[test]
    fn collective_sequences_carry_action_indices() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::CommSize { nproc: 2 });
        t.push(0, Action::Barrier);
        t.push(0, Action::Compute { flops: 1.0 });
        t.push(0, Action::Bcast { bytes: 8.0 });
        t.push(1, Action::Barrier);
        let seqs = collective_sequences(&t);
        assert_eq!(seqs[0], vec![(1, "barrier"), (3, "bcast")]);
        assert_eq!(seqs[1], vec![(0, "barrier")]);
    }
}
