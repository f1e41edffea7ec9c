//! `titanalyze` — static analysis of time-independent traces.
//!
//! Where `tit-replay` *simulates* a trace against a platform model,
//! this crate *analyses* it: it builds the cross-rank happens-before
//! DAG (program order + FIFO point-to-point matching + collective
//! synchronization, using the same action expansion as the replayer),
//! extracts the critical path under the platform cost model, and
//! computes static makespan bounds that provably sandwich any replay
//! result:
//!
//! ```text
//! lower  =  longest weighted path     (infinitely parallel comms)
//! upper  =  fully serialized budget   (everything contends)
//! lower  <=  simulated makespan  <=  upper
//! ```
//!
//! The sandwich is what makes the analyzer useful as a *differential
//! oracle* for the replay engine: any simulated time outside the
//! bounds is a bug in one of the two, and the repository's tests
//! assert the invariant for every engine run. The structure report
//! (communication matrix, pattern class, imbalance) doubles as a cheap
//! pre-filter before expensive replay sweeps.
//!
//! Entry points: [`analyze`] for the full report, [`bounds`] when only
//! the sandwich is needed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cost;
mod hb;
pub mod report;

pub use report::{Analysis, CriticalPath, Dominator, Pattern, RankSummary, Structure};

use simkern::netmodel::NetworkConfig;
use simkern::resource::HostId;
use simkern::Platform;
use tit_core::TiTrace;
use tit_replay::collectives::CollectiveAlgo;
use tit_replay::tags;

/// Analysis parameters; the network model and collectives default to
/// [`tit_replay::ReplayConfig::default`]'s (contention-aware MPI model,
/// binomial collectives).
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Network cost model.
    pub network: NetworkConfig,
    /// Collective decomposition shape (must match the replay under
    /// test for the bounds to apply).
    pub algo: CollectiveAlgo,
    /// Worker threads for the per-rank graph-construction pass
    /// (`0` = one per CPU). The result is identical for every value.
    pub jobs: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        let replay = tit_replay::ReplayConfig::default();
        AnalyzeConfig { network: replay.network, algo: replay.algo, jobs: 1 }
    }
}

/// Why a trace could not be analysed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// Trace and deployment disagree on the number of processes.
    Deployment {
        /// Processes in the trace.
        procs: usize,
        /// Hosts in the deployment.
        hosts: usize,
    },
    /// An action could not be expanded into micro-ops.
    Expand {
        /// Rank owning the action.
        rank: usize,
        /// Action index within the rank.
        index: usize,
        /// Handler-provided reason.
        detail: String,
    },
    /// The happens-before graph has a cycle: the trace is guaranteed
    /// to deadlock under the replayer's matching discipline.
    Deadlock {
        /// Up to 16 `(rank, action index)` pairs stuck in or behind
        /// the cycle (`usize::MAX` index marks a rank start event).
        nodes: Vec<(usize, usize)>,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Deployment { procs, hosts } => {
                write!(f, "trace has {procs} process(es) but the deployment maps {hosts}")
            }
            AnalyzeError::Expand { rank, index, detail } => {
                write!(f, "p{rank} action {index}: {detail}")
            }
            AnalyzeError::Deadlock { nodes } => {
                write!(f, "guaranteed deadlock; stuck at")?;
                for (i, (rank, index)) in nodes.iter().enumerate() {
                    let sep = if i == 0 { ' ' } else { ',' };
                    if *index == u32::MAX as usize {
                        write!(f, "{sep}p{rank}:start")?;
                    } else {
                        write!(f, "{sep}p{rank}:{index}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Maximum number of dominator aggregates reported per path.
const MAX_DOMINATORS: usize = 12;

/// Runs the full static analysis of `trace` deployed as `hosts` on
/// `platform`.
pub fn analyze(
    trace: &TiTrace,
    platform: &Platform,
    hosts: &[HostId],
    cfg: &AnalyzeConfig,
) -> Result<Analysis, AnalyzeError> {
    let np = trace.num_processes();
    if hosts.len() != np {
        return Err(AnalyzeError::Deployment { procs: np, hosts: hosts.len() });
    }
    let hb = hb::build(trace, platform, &cfg.network, hosts, cfg.algo, cfg.jobs)?;

    let earliest = hb.dag.earliest();
    let lower = hb.dag.longest_path(&earliest.times);
    // Guard against floating-point drift on traces where the two
    // bounds coincide (e.g. a single serial chain).
    let upper = hb.upper.max(lower);

    // Critical path digest: per-(rank, tag) contribution aggregates.
    let path = hb.dag.critical_path(&earliest);
    let mut agg: std::collections::BTreeMap<(u32, u32), (f64, u64)> =
        std::collections::BTreeMap::new();
    let mut prev = 0.0f64;
    for &v in &path {
        let e = earliest.times[v as usize];
        let contrib = e - prev;
        prev = e;
        let ev = hb.events.get(v);
        if contrib > 0.0 && ev.tag != 0 {
            let slot = agg.entry((ev.rank, ev.tag)).or_insert((0.0, 0));
            slot.0 += contrib;
            slot.1 += 1;
        }
    }
    let mut dominators: Vec<Dominator> = agg
        .into_iter()
        .map(|((rank, tag), (seconds, count))| Dominator {
            rank: rank as usize,
            action: tags::name(tag),
            seconds,
            count,
        })
        .collect();
    dominators.sort_by(|a, b| {
        b.seconds
            .partial_cmp(&a.seconds)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.rank.cmp(&b.rank))
    });
    dominators.truncate(MAX_DOMINATORS);

    // Per-rank slack: minimum over the rank's events.
    let latest = hb.dag.latest(lower);
    let mut slack = vec![f64::INFINITY; np];
    for (v, ev) in hb.events.iter().enumerate() {
        let s = latest[v] - earliest.times[v];
        let r = ev.rank as usize;
        if s < slack[r] {
            slack[r] = s;
        }
    }
    let per_rank: Vec<RankSummary> = hb
        .per_rank
        .iter()
        .enumerate()
        .map(|(rank, a)| RankSummary {
            rank,
            slack: if slack[rank].is_finite() { slack[rank].max(0.0) } else { 0.0 },
            compute_seconds: a.compute_seconds,
            comm_seconds: a.comm_seconds,
            flops: a.flops,
            bytes_sent: a.bytes_sent,
            msgs_sent: a.msgs_sent,
        })
        .collect();

    let comm_total: f64 = per_rank.iter().map(|r| r.comm_seconds).sum();
    let compute_total: f64 = per_rank.iter().map(|r| r.compute_seconds).sum();
    let structure = report::structure(trace, comm_total, compute_total);

    Ok(Analysis {
        nproc: np,
        actions: trace.num_actions() as u64,
        nodes: hb.dag.num_nodes(),
        edges: hb.dag.num_edges(),
        flows: hb.flows,
        unmatched_sends: hb.unmatched_sends,
        unmatched_recvs: hb.unmatched_recvs,
        wait_underflows: hb.wait_underflows,
        lower_bound: lower,
        upper_bound: upper,
        critical_path: CriticalPath { length: lower, hops: path.len(), dominators },
        per_rank,
        structure,
    })
}

/// Computes only the `(lower, upper)` makespan bounds — the
/// differential-oracle entry point for engine tests.
pub fn bounds(
    trace: &TiTrace,
    platform: &Platform,
    hosts: &[HostId],
    cfg: &AnalyzeConfig,
) -> Result<(f64, f64), AnalyzeError> {
    let np = trace.num_processes();
    if hosts.len() != np {
        return Err(AnalyzeError::Deployment { procs: np, hosts: hosts.len() });
    }
    let hb = hb::build(trace, platform, &cfg.network, hosts, cfg.algo, cfg.jobs)?;
    let lower = hb.dag.longest_path(&hb.dag.earliest().times);
    Ok((lower, hb.upper.max(lower)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tit_core::Action;
    use tit_platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};
    use tit_replay::{replay_memory, ReplayConfig};

    fn mycluster(n: u32) -> Platform {
        // The Figure 5 platform, scaled to n nodes.
        let spec = ClusterSpec {
            id: "mycluster".into(),
            prefix: "mycluster-".into(),
            suffix: ".mysite.fr".into(),
            count: n as usize,
            power: 1.17e9,
            cores: 1,
            bw: 1.25e8,
            lat: 16.67e-6,
            bb_bw: 1.25e9,
            bb_lat: 16.67e-6,
            topology: ClusterTopology::Flat,
        };
        PlatformDesc::single(spec).build()
    }

    fn host_ids(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    fn ring_trace(nproc: usize, bytes: f64, flops: f64) -> TiTrace {
        // The Figure 1 shape: rank 0 kicks off, the others receive
        // first (send-first everywhere would deadlock in rendezvous).
        let mut t = TiTrace::new(nproc);
        t.push(0, Action::Compute { flops });
        t.push(0, Action::Send { dst: 1 % nproc, bytes });
        t.push(0, Action::Recv { src: nproc - 1, bytes: None });
        for r in 1..nproc {
            t.push(r, Action::Recv { src: r - 1, bytes: None });
            t.push(r, Action::Compute { flops });
            t.push(r, Action::Send { dst: (r + 1) % nproc, bytes });
        }
        t
    }

    fn plain_cfg() -> AnalyzeConfig {
        AnalyzeConfig { network: NetworkConfig::default(), ..Default::default() }
    }

    #[test]
    fn ring_bounds_sandwich_the_replay() {
        let t = ring_trace(4, 1e6, 1e6);
        let a = analyze(&t, &mycluster(4), &host_ids(4), &plain_cfg()).unwrap();
        let out = replay_memory(
            &t,
            mycluster(4),
            &host_ids(4),
            &ReplayConfig { network: NetworkConfig::default(), ..Default::default() },
        )
        .unwrap();
        assert!(
            a.lower_bound <= out.simulated_time * (1.0 + 1e-9),
            "lower {} > simulated {}",
            a.lower_bound,
            out.simulated_time
        );
        assert!(
            out.simulated_time <= a.upper_bound * (1.0 + 1e-9),
            "simulated {} > upper {}",
            out.simulated_time,
            a.upper_bound
        );
        assert!(a.lower_bound > 0.0);
        assert_eq!(a.structure.pattern, Pattern::Ring);
        assert_eq!(a.flows, 4);
        assert_eq!(a.unmatched_sends, 0);
    }

    #[test]
    fn compute_only_lower_bound_is_exact() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Compute { flops: 2.34e9 });
        t.push(1, Action::Compute { flops: 1.17e9 });
        let a = analyze(&t, &mycluster(2), &host_ids(2), &plain_cfg()).unwrap();
        // 2.34e9 flops at 1.17e9 flop/s = 2 s on the slow rank.
        assert!((a.lower_bound - 2.0).abs() < 1e-12);
        assert_eq!(a.structure.pattern, Pattern::ComputeOnly);
        // Rank 1 finishes in 1 s: slack 1 s; rank 0 is critical.
        assert!((a.per_rank[1].slack - 1.0).abs() < 1e-12);
        assert!(a.per_rank[0].slack.abs() < 1e-12);
        assert_eq!(a.critical_path.dominators[0].action, "compute");
        assert_eq!(a.critical_path.dominators[0].rank, 0);
    }

    #[test]
    fn recv_recv_cycle_is_a_deadlock_error() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Recv { src: 1, bytes: None });
        t.push(0, Action::Send { dst: 1, bytes: 8.0 });
        t.push(1, Action::Recv { src: 0, bytes: None });
        t.push(1, Action::Send { dst: 0, bytes: 8.0 });
        let err = analyze(&t, &mycluster(2), &host_ids(2), &plain_cfg()).unwrap_err();
        let AnalyzeError::Deadlock { nodes } = &err else {
            panic!("expected deadlock, got {err}");
        };
        assert!(!nodes.is_empty());
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn nonblocking_ring_does_not_deadlock() {
        // The classic Irecv-first ring: safe, and the analyzer agrees.
        let n = 4;
        let mut t = TiTrace::new(n);
        for r in 0..n {
            t.push(r, Action::Irecv { src: (r + n - 1) % n, bytes: None });
            t.push(r, Action::Send { dst: (r + 1) % n, bytes: 1e5 });
            t.push(r, Action::Wait);
            t.push(r, Action::Compute { flops: 1e6 });
        }
        let a = analyze(&t, &mycluster(4), &host_ids(4), &plain_cfg()).unwrap();
        assert!(a.lower_bound > 0.0);
        assert_eq!(a.wait_underflows, 0);
        assert_eq!(a.unmatched_recvs, 0);
    }

    #[test]
    fn collectives_are_matched_on_their_own_channel() {
        let n = 4;
        let mut t = TiTrace::new(n);
        for r in 0..n {
            t.push(r, Action::CommSize { nproc: n });
            t.push(r, Action::Compute { flops: 1e6 });
            t.push(r, Action::AllReduce { vcomm: 1e5, vcomp: 1e4 });
            t.push(r, Action::Barrier);
        }
        let a = analyze(&t, &mycluster(4), &host_ids(4), &plain_cfg()).unwrap();
        assert_eq!(a.unmatched_sends, 0, "collective trees must self-match");
        assert_eq!(a.unmatched_recvs, 0);
        let out = replay_memory(
            &t,
            mycluster(4),
            &host_ids(4),
            &ReplayConfig { network: NetworkConfig::default(), ..Default::default() },
        )
        .unwrap();
        assert!(a.lower_bound <= out.simulated_time * (1.0 + 1e-9));
        assert!(out.simulated_time <= a.upper_bound * (1.0 + 1e-9));
    }

    #[test]
    fn deployment_mismatch_and_missing_comm_size_are_typed() {
        let t = ring_trace(4, 8.0, 1.0);
        let err = analyze(&t, &mycluster(2), &host_ids(2), &plain_cfg()).unwrap_err();
        assert!(matches!(err, AnalyzeError::Deployment { procs: 4, hosts: 2 }));

        let mut t = TiTrace::new(2);
        t.push(0, Action::Bcast { bytes: 8.0 });
        t.push(1, Action::Bcast { bytes: 8.0 });
        let err = analyze(&t, &mycluster(2), &host_ids(2), &plain_cfg()).unwrap_err();
        assert!(matches!(err, AnalyzeError::Expand { rank: 0, index: 0, .. }));
    }

    #[test]
    fn unmatched_and_underflow_counters_fire() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Send { dst: 1, bytes: 64.0 });
        t.push(0, Action::Wait);
        t.push(1, Action::Compute { flops: 1.0 });
        let a = analyze(&t, &mycluster(2), &host_ids(2), &plain_cfg()).unwrap();
        assert_eq!(a.unmatched_sends, 1);
        assert_eq!(a.wait_underflows, 1);
        // The eager unmatched send still launches a (buffered) flow.
        assert_eq!(a.flows, 1);
    }

    #[test]
    fn default_config_analyses_the_default_replay_model() {
        // A 1e8-byte send on bordereau: the MPI model's piecewise
        // factors move both bounds ~2.5 % away from the flow model's.
        let mut t = TiTrace::new(2);
        t.push(0, Action::Send { dst: 1, bytes: 1e8 });
        t.push(1, Action::Recv { src: 0, bytes: None });
        let platform = PlatformDesc::single(tit_platform::presets::bordereau(2)).build();
        let mpi = AnalyzeConfig { network: NetworkConfig::mpi_cluster(), ..plain_cfg() };
        let got = bounds(&t, &platform, &host_ids(2), &AnalyzeConfig::default()).unwrap();
        let want = bounds(&t, &platform, &host_ids(2), &mpi).unwrap();
        assert_eq!(got, want);
        assert_ne!(want, bounds(&t, &platform, &host_ids(2), &plain_cfg()).unwrap());
    }

    #[test]
    fn bounds_agrees_with_analyze() {
        let t = ring_trace(4, 1e6, 1e6);
        let a = analyze(&t, &mycluster(4), &host_ids(4), &plain_cfg()).unwrap();
        let (lo, hi) = bounds(&t, &mycluster(4), &host_ids(4), &plain_cfg()).unwrap();
        assert_eq!(lo, a.lower_bound);
        assert_eq!(hi, a.upper_bound);
    }
}
