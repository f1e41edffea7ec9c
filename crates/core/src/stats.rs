//! Trace statistics: action counts, volumes, byte sizes.
//!
//! Table 3 of the paper reports, per benchmark instance, the
//! time-independent trace size in MiB and the number of actions in
//! millions; this module computes both (and more) from in-memory traces.

use crate::action::Action;
use crate::codec::format_action_into;
use crate::trace::TiTrace;
use std::collections::BTreeMap;

/// Aggregate statistics over a time-independent trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Number of processes in the trace.
    pub num_processes: usize,
    /// Total number of actions across all processes.
    pub num_actions: u64,
    /// Actions per keyword (`compute`, `send`, ...).
    pub per_keyword: BTreeMap<&'static str, u64>,
    /// Total computation volume, flops.
    pub total_flops: f64,
    /// Total communication volume, bytes (send-side + collectives).
    pub total_bytes: f64,
    /// Receive-side volume, bytes, summed over receives that carry a
    /// byte annotation. In a complete trace every transfer is counted
    /// once in [`TraceStats::total_bytes`]; when only a subset of ranks
    /// is streamed (per-rank statistics), this is the only visibility
    /// into inbound traffic.
    pub recv_bytes: f64,
    /// Receives whose byte volume is unknown (no annotation in the
    /// trace; only the matching send carries the size). Previously these
    /// were silently counted as zero bytes.
    pub unsized_recvs: u64,
    /// Size of the canonical text encoding, bytes.
    pub encoded_bytes: u64,
}

impl TraceStats {
    /// Computes statistics for an in-memory trace.
    pub fn of(trace: &TiTrace) -> Self {
        let mut s = TraceStats { num_processes: trace.num_processes(), ..Default::default() };
        let mut line = String::with_capacity(64);
        for (rank, actions) in trace.actions.iter().enumerate() {
            for a in actions {
                s.add(rank, a, &mut line);
            }
        }
        s
    }

    fn add(&mut self, rank: usize, a: &Action, scratch: &mut String) {
        self.num_actions += 1;
        *self.per_keyword.entry(a.keyword()).or_insert(0) += 1;
        self.total_flops += a.flops();
        match a {
            // Count transfers once in `total_bytes`, on the sender side;
            // account the receive side separately so a partial trace
            // (per-rank streaming) does not lose inbound volume, and so
            // unknown receive volumes are counted, not zeroed.
            Action::Recv { .. } | Action::Irecv { .. } => match a.comm_bytes() {
                Some(b) => self.recv_bytes += b,
                None => self.unsized_recvs += 1,
            },
            other => self.total_bytes += other.bytes(),
        }
        scratch.clear();
        format_action_into(scratch, rank, a);
        self.encoded_bytes += scratch.len() as u64 + 1; // + newline
    }

    /// Encoded size in MiB (the unit of Table 3).
    pub fn encoded_mib(&self) -> f64 {
        self.encoded_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Actions in millions (the unit of Table 3).
    pub fn actions_millions(&self) -> f64 {
        self.num_actions as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TiTrace {
        let mut t = TiTrace::new(2);
        t.push(0, Action::CommSize { nproc: 2 });
        t.push(0, Action::Compute { flops: 100.0 });
        t.push(0, Action::Send { dst: 1, bytes: 50.0 });
        t.push(0, Action::AllReduce { vcomm: 8.0, vcomp: 4.0 });
        t.push(1, Action::CommSize { nproc: 2 });
        t.push(1, Action::Recv { src: 0, bytes: None });
        t.push(1, Action::AllReduce { vcomm: 8.0, vcomp: 4.0 });
        t
    }

    #[test]
    fn counts_and_volumes() {
        let s = TraceStats::of(&sample());
        assert_eq!(s.num_processes, 2);
        assert_eq!(s.num_actions, 7);
        assert_eq!(s.per_keyword["comm_size"], 2);
        assert_eq!(s.per_keyword["allReduce"], 2);
        assert_eq!(s.per_keyword["send"], 1);
        assert!((s.total_flops - 108.0).abs() < 1e-12);
        // 50 (send) + 8 + 8 (allReduce on both ranks); recv not counted.
        assert!((s.total_bytes - 66.0).abs() < 1e-12);
        // The unannotated recv is reported as unsized, not silently 0.
        assert_eq!(s.unsized_recvs, 1);
        assert_eq!(s.recv_bytes, 0.0);
    }

    #[test]
    fn annotated_recvs_are_accounted_receive_side() {
        let mut t = TiTrace::new(1);
        t.push(0, Action::Recv { src: 0, bytes: Some(32.0) });
        t.push(0, Action::Irecv { src: 0, bytes: Some(8.0) });
        t.push(0, Action::Irecv { src: 0, bytes: None });
        let s = TraceStats::of(&t);
        assert_eq!(s.total_bytes, 0.0);
        assert!((s.recv_bytes - 40.0).abs() < 1e-12);
        assert_eq!(s.unsized_recvs, 1);
    }

    #[test]
    fn encoded_size_matches_serialization() {
        let t = sample();
        let s = TraceStats::of(&t);
        let mut buf = Vec::new();
        t.write_merged(&mut buf).unwrap();
        assert_eq!(s.encoded_bytes, buf.len() as u64);
    }

    #[test]
    fn unit_helpers() {
        let s = TraceStats { encoded_bytes: 2 * 1024 * 1024, num_actions: 3_000_000, ..Default::default() };
        assert!((s.encoded_mib() - 2.0).abs() < 1e-12);
        assert!((s.actions_millions() - 3.0).abs() < 1e-12);
    }
}
