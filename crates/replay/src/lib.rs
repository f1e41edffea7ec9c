//! `tit-replay` — the time-independent trace replay tool.
//!
//! This is the paper's simulator (Section 5): it takes a time-independent
//! trace, a platform description and a deployment, and replays the trace
//! on top of the simulation kernel, producing the simulated execution
//! time. Figure 4's other outputs, a timed trace and a profile, are
//! observer sinks attached to the run ([`Replay::observer`]).
//!
//! Mirroring the MSG-based prototype, every action keyword is bound to a
//! handler — here one arm of the exhaustive [`handlers::expand`] match
//! (the analogue of `MSG_action_register`). A handler expands an action
//! into a short sequence of kernel micro-operations executed by the
//! per-process [`process::ReplayActor`]. Collective operations are
//! decomposed into point-to-point messages rooted at process 0
//! ([`collectives`]), and non-blocking operations feed a FIFO request
//! queue consumed by `wait` ([`process`]).
//!
//! Every replay goes through one driver, [`Replay`]: an [`Input`] built
//! by a source constructor (memory, files, compact, store, or a
//! `--degraded` salvage scan) plus independent options (observer, pause
//! interval, deadline, checkpoint file, stop-after count, preempt flag,
//! resume state, damage tolerance), returning one [`ReplayOutcome`].
//! Every input feeds each rank through the same column cursor; inputs
//! differ only in where the cursor's next chunk comes from. The model
//! options around it — platform, placement, network, collectives,
//! kernel, wall budget — are one [`Spec`], which the CLI fills from
//! flags and the daemon from request fields.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod collectives;
pub mod degraded;
pub mod error;
pub mod handlers;
pub mod process;
pub mod resume;
pub mod simulator;
pub mod spec;
pub mod store;
pub mod tags;

pub use degraded::{DegradationReason, RankDegradation};
pub use error::ReplayError;
pub use handlers::{expand, ExpandError, MicroOp};
pub use resume::ReplayCheckpoint;
pub use simulator::{
    replay_compact, replay_compact_observed, replay_memory, run_checkpointed, CheckpointedStatus,
    Input, Replay, ReplayConfig, ReplayOutcome, Status, Stop,
};
pub use spec::{Placement, PlatformSource, Spec, SpecError};
pub use store::{replay_store, store_sources, SegmentCache};

/// Fixtures shared by the crate's tests: one platform, one config and
/// two traces.
#[cfg(test)]
mod testkit {
    use crate::simulator::ReplayConfig;
    use simkern::netmodel::NetworkConfig;
    use simkern::resource::HostId;
    use simkern::Platform;
    use std::path::PathBuf;
    use tit_core::{Action, TiTrace};
    use tit_platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};

    /// The Figure 5 platform, scaled to `n` nodes, with rank `i` on host `i`.
    pub fn mycluster(n: usize) -> (Platform, Vec<HostId>) {
        let spec = ClusterSpec {
            id: "mycluster".into(),
            prefix: "mycluster-".into(),
            suffix: ".mysite.fr".into(),
            count: n,
            power: 1.17e9,
            cores: 1,
            bw: 1.25e8,
            lat: 16.67e-6,
            bb_bw: 1.25e9,
            bb_lat: 16.67e-6,
            topology: ClusterTopology::Flat,
        };
        let p = PlatformDesc::single(spec).build();
        let hosts = (0..n as u32).map(HostId).collect();
        (p, hosts)
    }

    /// Identity network model for analytically-checkable timings.
    pub fn plain_cfg() -> ReplayConfig {
        ReplayConfig { network: NetworkConfig::default(), ..Default::default() }
    }

    /// The paper's Figure 1 ring (single iteration, 12 actions).
    pub fn ring_trace() -> TiTrace {
        let mut t = TiTrace::new(4);
        t.push(0, Action::Compute { flops: 1e6 });
        t.push(0, Action::Send { dst: 1, bytes: 1e6 });
        t.push(0, Action::Recv { src: 3, bytes: None });
        for p in 1..4usize {
            t.push(p, Action::Recv { src: p - 1, bytes: None });
            t.push(p, Action::Compute { flops: 1e6 });
            t.push(p, Action::Send { dst: (p + 1) % 4, bytes: 1e6 });
        }
        t
    }

    /// A 4-rank trace with enough structure to exercise p2p, nonblocking
    /// and collective paths across many safe points.
    pub fn busy_trace(iters: usize) -> TiTrace {
        let n = 4;
        let mut t = TiTrace::new(n);
        for r in 0..n {
            t.push(r, Action::CommSize { nproc: n });
        }
        for _ in 0..iters {
            t.push(0, Action::Compute { flops: 1e6 });
            t.push(0, Action::Send { dst: 1, bytes: 1e6 });
            t.push(0, Action::Recv { src: 3, bytes: None });
            for p in 1..n {
                t.push(p, Action::Irecv { src: p - 1, bytes: None });
                t.push(p, Action::Compute { flops: 5e5 });
                t.push(p, Action::Wait);
                t.push(p, Action::Send { dst: (p + 1) % n, bytes: 1e6 });
            }
            for r in 0..n {
                t.push(r, Action::AllReduce { vcomm: 1e4, vcomp: 1e5 });
            }
        }
        t
    }

    /// A fresh, empty scratch directory unique to this process and `tag`.
    pub fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("titr-replay-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
