//! Analysis result types and their deterministic renderings.
//!
//! Everything here is computed once by [`crate::analyze`] and is pure
//! data: the static makespan bounds, the critical path digest, the
//! per-rank summaries and the communication-structure report. Both
//! renderings are deterministic — JSON object keys are emitted in a
//! fixed order and the document goes through the one
//! [`tit_core::json`] serializer, so a non-finite value renders as
//! `null` and can never corrupt the document.

use tit_core::json::Json;
use tit_core::json_obj;
use tit_core::{Action, TiTrace};

use crate::cost::clamp;

/// Communication pattern classes the analyzer recognises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// No communication at all.
    ComputeOnly,
    /// Unidirectional ring: every rank talks to exactly one neighbour,
    /// all in the same direction.
    Ring,
    /// Symmetric nearest-neighbour exchange with at most two distinct
    /// offsets (1D or 2D decomposition).
    Stencil,
    /// Collective traffic dominates and most of it is `allReduce`.
    AllreduceDominated,
    /// All point-to-point traffic flows through rank 0.
    MasterWorker,
    /// Anything else.
    Irregular,
}

impl Pattern {
    /// Stable lower-snake identifier used in both renderings.
    pub fn as_str(&self) -> &'static str {
        match self {
            Pattern::ComputeOnly => "compute_only",
            Pattern::Ring => "ring",
            Pattern::Stencil => "stencil",
            Pattern::AllreduceDominated => "allreduce_dominated",
            Pattern::MasterWorker => "master_worker",
            Pattern::Irregular => "irregular",
        }
    }
}

/// One `(rank, action class)` aggregate along the critical path.
#[derive(Debug, Clone)]
pub struct Dominator {
    /// Rank owning the actions.
    pub rank: usize,
    /// Action class (a `tit_replay::tags` name).
    pub action: &'static str,
    /// Seconds this aggregate contributes to the path length.
    pub seconds: f64,
    /// Number of path nodes aggregated.
    pub count: u64,
}

/// Digest of one longest weighted path through the graph.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Path length in seconds (equals the lower bound).
    pub length: f64,
    /// Number of events on the path.
    pub hops: usize,
    /// Largest contributors, sorted by descending seconds.
    pub dominators: Vec<Dominator>,
}

/// Per-rank summary of volumes, lower-bound costs and slack.
#[derive(Debug, Clone, Copy)]
pub struct RankSummary {
    /// The rank.
    pub rank: usize,
    /// Minimum slack over the rank's events against the lower bound:
    /// 0 means the rank sits on the critical path.
    pub slack: f64,
    /// Lower-bound seconds of compute.
    pub compute_seconds: f64,
    /// Lower-bound seconds of flows this rank originates.
    pub comm_seconds: f64,
    /// Total floating-point operations.
    pub flops: f64,
    /// Total bytes sent (both channels).
    pub bytes_sent: f64,
    /// Messages originated (both channels).
    pub msgs_sent: u64,
}

/// Communication-structure report.
#[derive(Debug, Clone)]
pub struct Structure {
    /// Recognised pattern class.
    pub pattern: Pattern,
    /// `max / mean` of per-rank flops (0 when there is no compute).
    pub load_imbalance: f64,
    /// Total lower-bound comm seconds over total compute seconds
    /// (non-finite when there is no compute; rendered as `null`).
    pub comm_compute_ratio: f64,
    /// Total application-channel point-to-point bytes.
    pub p2p_bytes: f64,
    /// Total collective payload bytes.
    pub collective_bytes: f64,
    /// `matrix[src][dst]` = p2p bytes, omitted above 128 ranks.
    pub matrix: Option<Vec<Vec<f64>>>,
}

/// Complete result of a static trace analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Number of processes.
    pub nproc: usize,
    /// Number of trace actions analysed.
    pub actions: u64,
    /// Happens-before graph size.
    pub nodes: usize,
    /// Happens-before edge count.
    pub edges: usize,
    /// Network flows the engine would launch.
    pub flows: usize,
    /// Sends with no matching receive.
    pub unmatched_sends: usize,
    /// Receives with no matching send.
    pub unmatched_recvs: usize,
    /// `wait` operations with no pending request.
    pub wait_underflows: usize,
    /// Static makespan lower bound, seconds.
    pub lower_bound: f64,
    /// Static makespan upper bound, seconds.
    pub upper_bound: f64,
    /// Critical path digest.
    pub critical_path: CriticalPath,
    /// One summary per rank.
    pub per_rank: Vec<RankSummary>,
    /// Communication structure.
    pub structure: Structure,
}

/// Ranks above which the JSON matrix is suppressed (quadratic size).
const MATRIX_LIMIT: usize = 128;

/// Classifies the communication structure of `trace`.
/// `comm_seconds`/`compute_seconds` are the whole-trace lower-bound
/// totals (for the comm/compute ratio).
pub(crate) fn structure(trace: &TiTrace, comm_seconds: f64, compute_seconds: f64) -> Structure {
    let np = trace.num_processes();
    let mut matrix = vec![vec![0.0f64; np]; np];
    let mut p2p_bytes = 0.0f64;
    let mut coll_bytes = 0.0f64;
    let mut allreduce_bytes = 0.0f64;
    let mut coll_ops = 0u64;
    let mut flops = vec![0.0f64; np];
    for (rank, actions) in trace.actions.iter().enumerate() {
        for a in actions {
            flops[rank] += clamp(a.flops());
            match *a {
                Action::Send { dst, bytes } | Action::Isend { dst, bytes } if dst < np => {
                    let b = clamp(bytes);
                    matrix[rank][dst] += b;
                    p2p_bytes += b;
                }
                _ => {}
            }
            if a.is_collective() {
                coll_ops += 1;
                let b = clamp(a.comm_bytes().unwrap_or(0.0));
                coll_bytes += b;
                if matches!(a, Action::AllReduce { .. }) {
                    allreduce_bytes += b;
                }
            }
        }
    }
    let pattern = classify(&matrix, np, p2p_bytes, coll_bytes, allreduce_bytes, coll_ops);
    let mean = flops.iter().sum::<f64>() / np.max(1) as f64;
    let max = flops.iter().fold(0.0f64, |a, &b| a.max(b));
    Structure {
        pattern,
        load_imbalance: if mean > 0.0 { max / mean } else { 0.0 },
        comm_compute_ratio: comm_seconds / compute_seconds,
        p2p_bytes,
        collective_bytes: coll_bytes,
        matrix: (np <= MATRIX_LIMIT).then_some(matrix),
    }
}

fn classify(
    matrix: &[Vec<f64>],
    np: usize,
    p2p_bytes: f64,
    coll_bytes: f64,
    allreduce_bytes: f64,
    coll_ops: u64,
) -> Pattern {
    if p2p_bytes == 0.0 && coll_bytes == 0.0 && coll_ops == 0 {
        return Pattern::ComputeOnly;
    }
    if coll_bytes > p2p_bytes {
        return if allreduce_bytes * 2.0 >= coll_bytes {
            Pattern::AllreduceDominated
        } else {
            Pattern::Irregular
        };
    }

    // Boolean out-neighbour sets drive the topology tests.
    let peers: Vec<Vec<usize>> = (0..np)
        .map(|i| (0..np).filter(|&j| matrix[i][j] > 0.0 && i != j).collect())
        .collect();

    // Ring: n ≥ 3, out-degree exactly 1, one consistent direction.
    if np >= 3 && peers.iter().all(|p| p.len() == 1) {
        let fwd = peers.iter().enumerate().all(|(i, p)| p[0] == (i + 1) % np);
        let bwd = peers.iter().enumerate().all(|(i, p)| p[0] == (i + np - 1) % np);
        if fwd || bwd {
            return Pattern::Ring;
        }
    }

    // Master/worker: every p2p edge touches rank 0, which has ≥ 2
    // peers in either direction. Tested before the stencil shape — on
    // tiny rank counts a star also has few distinct offsets.
    if np >= 3 {
        let through_root = (1..np).all(|i| (1..np).all(|j| matrix[i][j] == 0.0));
        let fanout = peers[0].len() + (1..np).filter(|&i| matrix[i][0] > 0.0).count();
        if through_root && fanout >= 2 {
            return Pattern::MasterWorker;
        }
    }

    // Stencil: symmetric edges, ≤ 2 distinct wrap-around offsets,
    // degree ≤ 4 (1D chains/rings and 2D grids/tori).
    let symmetric = (0..np)
        .all(|i| (0..np).all(|j| (matrix[i][j] > 0.0) == (matrix[j][i] > 0.0)));
    if np >= 3 && symmetric && peers.iter().all(|p| !p.is_empty() && p.len() <= 4) {
        let mut offsets: Vec<usize> = Vec::new();
        for (i, p) in peers.iter().enumerate() {
            for &j in p {
                let d = (j + np - i) % np;
                let d = d.min(np - d);
                if !offsets.contains(&d) {
                    offsets.push(d);
                }
            }
        }
        if offsets.len() <= 2 {
            return Pattern::Stencil;
        }
    }
    Pattern::Irregular
}

impl Analysis {
    /// Renders the `tit-analyze-v1` JSON document as one line.
    pub fn to_json(&self) -> String {
        let (cp, st) = (&self.critical_path, &self.structure);
        let dominators = cp.dominators.iter().map(|d| json_obj!(d; rank, action, seconds, count));
        let ranks = self.per_rank.iter().map(|r| {
            json_obj!(r; rank, slack_s = r.slack, compute_s = r.compute_seconds,
                comm_s = r.comm_seconds, flops, bytes_sent, msgs_sent)
        });
        let matrix = st.matrix.as_ref().map(|m| {
            Json::Arr(m.iter().map(|row| Json::Arr(row.iter().map(|&v| v.into()).collect())).collect())
        });
        let doc = json_obj!(self; schema = "tit-analyze-v1", processes = self.nproc, actions,
            graph = json_obj!(self; nodes, edges, flows, unmatched_sends, unmatched_recvs,
                wait_underflows),
            bounds = json_obj!(self; lower_s = self.lower_bound, upper_s = self.upper_bound),
            critical_path = json_obj!(cp; length_s = cp.length, hops,
                dominators = Json::Arr(dominators.collect())),
            ranks = Json::Arr(ranks.collect()),
            structure = json_obj!(st; pattern = st.pattern.as_str(), load_imbalance,
                comm_compute_ratio, p2p_bytes, collective_bytes, matrix = matrix));
        format!("{doc}\n")
    }

    /// Renders the human-readable text report (trailing newline).
    pub fn render_text(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str(&format!(
            "analysis: {} process(es), {} action(s)\n",
            self.nproc, self.actions
        ));
        o.push_str(&format!(
            "graph: {} node(s), {} edge(s), {} flow(s)\n",
            self.nodes, self.edges, self.flows
        ));
        if self.unmatched_sends + self.unmatched_recvs + self.wait_underflows > 0 {
            o.push_str(&format!(
                "warnings: {} unmatched send(s), {} unmatched recv(s), {} wait underflow(s)\n",
                self.unmatched_sends, self.unmatched_recvs, self.wait_underflows
            ));
        }
        o.push_str(&format!(
            "bounds: {:.6e} s <= makespan <= {:.6e} s\n",
            self.lower_bound, self.upper_bound
        ));
        o.push_str(&format!(
            "critical path: {:.6e} s over {} event(s)\n",
            self.critical_path.length, self.critical_path.hops
        ));
        for d in &self.critical_path.dominators {
            o.push_str(&format!(
                "  p{} {:<9} {:.6e} s over {} event(s)\n",
                d.rank, d.action, d.seconds, d.count
            ));
        }
        o.push_str(&format!(
            "structure: {} (p2p {:.3e} B, collectives {:.3e} B, imbalance {:.3}, comm/compute {})\n",
            self.structure.pattern.as_str(),
            self.structure.p2p_bytes,
            self.structure.collective_bytes,
            self.structure.load_imbalance,
            if self.structure.comm_compute_ratio.is_finite() {
                format!("{:.3}", self.structure.comm_compute_ratio)
            } else {
                "n/a".to_string()
            }
        ));
        o.push_str("rank  slack_s       compute_s     comm_s        msgs\n");
        for r in &self.per_rank {
            o.push_str(&format!(
                "p{:<4} {:<13.6e} {:<13.6e} {:<13.6e} {}\n",
                r.rank, r.slack, r.compute_seconds, r.comm_seconds, r.msgs_sent
            ));
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis_with(structure: Structure) -> Analysis {
        Analysis {
            nproc: 2,
            actions: 4,
            nodes: 6,
            edges: 5,
            flows: 1,
            unmatched_sends: 0,
            unmatched_recvs: 0,
            wait_underflows: 0,
            lower_bound: 1.0,
            upper_bound: 2.0,
            critical_path: CriticalPath {
                length: 1.0,
                hops: 3,
                dominators: vec![Dominator {
                    rank: 0,
                    action: "compute",
                    seconds: 0.9,
                    count: 2,
                }],
            },
            per_rank: vec![
                RankSummary {
                    rank: 0,
                    slack: 0.0,
                    compute_seconds: 0.9,
                    comm_seconds: 0.1,
                    flops: 9e8,
                    bytes_sent: 1e6,
                    msgs_sent: 1,
                },
                RankSummary {
                    rank: 1,
                    slack: 0.5,
                    compute_seconds: 0.4,
                    comm_seconds: 0.0,
                    flops: 4e8,
                    bytes_sent: 0.0,
                    msgs_sent: 0,
                },
            ],
            structure,
        }
    }

    fn trace_of(lines: &[&[Action]]) -> TiTrace {
        TiTrace { actions: lines.iter().map(|r| r.to_vec()).collect() }
    }

    #[test]
    fn ring_and_compute_only_classification() {
        use Action::*;
        let ring = trace_of(&[
            &[Send { dst: 1, bytes: 8.0 }, Recv { src: 3, bytes: None }],
            &[Send { dst: 2, bytes: 8.0 }, Recv { src: 0, bytes: None }],
            &[Send { dst: 3, bytes: 8.0 }, Recv { src: 1, bytes: None }],
            &[Send { dst: 0, bytes: 8.0 }, Recv { src: 2, bytes: None }],
        ]);
        assert_eq!(structure(&ring, 1.0, 1.0).pattern, Pattern::Ring);

        let pure = trace_of(&[&[Compute { flops: 1.0 }], &[Compute { flops: 2.0 }]]);
        let s = structure(&pure, 0.0, 3.0 / 1e9);
        assert_eq!(s.pattern, Pattern::ComputeOnly);
        assert!((s.load_imbalance - 2.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn stencil_master_worker_and_allreduce_classification() {
        use Action::*;
        // 1D symmetric chain with wrap-around: offsets {1}.
        let chain: Vec<Vec<Action>> = (0..4)
            .map(|i: usize| {
                vec![
                    Send { dst: (i + 1) % 4, bytes: 8.0 },
                    Send { dst: (i + 3) % 4, bytes: 8.0 },
                ]
            })
            .collect();
        let t = trace_of(&chain.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(structure(&t, 1.0, 1.0).pattern, Pattern::Stencil);

        let mw = trace_of(&[
            &[Send { dst: 1, bytes: 8.0 }, Send { dst: 2, bytes: 8.0 }],
            &[Send { dst: 0, bytes: 8.0 }],
            &[Send { dst: 0, bytes: 8.0 }],
        ]);
        assert_eq!(structure(&mw, 1.0, 1.0).pattern, Pattern::MasterWorker);

        let ar = trace_of(&[
            &[CommSize { nproc: 2 }, AllReduce { vcomm: 64.0, vcomp: 1.0 }],
            &[CommSize { nproc: 2 }, AllReduce { vcomm: 64.0, vcomp: 1.0 }],
        ]);
        assert_eq!(structure(&ar, 1.0, 1.0).pattern, Pattern::AllreduceDominated);
    }

    #[test]
    fn json_is_deterministic_and_null_safe() {
        let mut s = Structure {
            pattern: Pattern::Ring,
            load_imbalance: 1.0,
            comm_compute_ratio: f64::INFINITY,
            p2p_bytes: 32.0,
            collective_bytes: 0.0,
            matrix: None,
        };
        let a = analysis_with(s.clone());
        let j = a.to_json();
        assert!(j.contains("\"schema\":\"tit-analyze-v1\""));
        assert!(j.contains("\"comm_compute_ratio\":null"));
        assert!(j.contains("\"matrix\":null"));
        assert!(!j.contains("inf"));
        assert_eq!(j, analysis_with(s.clone()).to_json());

        s.matrix = Some(vec![vec![0.0, 8.0], vec![8.0, 0.0]]);
        let j = analysis_with(s).to_json();
        assert!(j.contains("\"matrix\":[[0,8],[8,0]]"));
    }

    #[test]
    fn text_report_mentions_bounds_and_pattern() {
        let a = analysis_with(Structure {
            pattern: Pattern::Stencil,
            load_imbalance: 1.1,
            comm_compute_ratio: 0.25,
            p2p_bytes: 1e6,
            collective_bytes: 0.0,
            matrix: None,
        });
        let t = a.render_text();
        assert!(t.contains("<= makespan <="));
        assert!(t.contains("stencil"));
        assert!(t.contains("p0"));
    }
}
