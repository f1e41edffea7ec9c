//! The static-analysis differential oracle: for every trace, platform,
//! and network model, `tit-analyze`'s makespan bounds must sandwich the
//! replay engine's simulated time (`lower <= simulated <= upper`).
//!
//! This is the contract DESIGN.md §5h documents: the lower bound is the
//! weighted critical path of the happens-before graph (no resource can
//! make an action finish before all its dependencies plus its own best
//! case), the upper bound is fully serialized execution (every action in
//! sequence, every flow charged its worst shared-link rate). A replay
//! that escapes the sandwich means either the analyzer's cost model or
//! the engine has drifted — both are bugs.

use proptest::prelude::*;
use titr::analyze::{analyze, bounds, Pattern};
use titr::npb::ring::RingConfig;
use titr::npb::stencil::StencilConfig;
use titr::npb::{program_trace, Class, LuConfig};
use titr::platform::deployment::Deployment;
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::collectives::CollectiveAlgo;
use titr::replay::{replay_memory, ReplayConfig};
use titr::simkern::netmodel::NetworkConfig;
use titr::trace::{Action, TiTrace};

/// Relative slop for float drift between the analyzer's and the
/// engine's arithmetic over the same model.
const EPS: f64 = 1e-9;

type NamedNet = (&'static str, fn() -> NetworkConfig);

fn networks() -> [NamedNet; 3] {
    [
        ("mpi", NetworkConfig::mpi_cluster),
        ("flow", NetworkConfig::default),
        ("constant", NetworkConfig::constant),
    ]
}

/// Replays `trace` and checks the sandwich under every network model ×
/// both collective algorithms. Returns the analyses for extra checks.
fn assert_sandwich(trace: &TiTrace, tag: &str) {
    let np = trace.num_processes();
    let desc = PlatformDesc::single(presets::bordereau_one_core(np));
    let deployment = Deployment::round_robin(&desc.host_names(), np);
    for (net_name, net) in networks() {
        for algo in [CollectiveAlgo::Binomial, CollectiveAlgo::Flat] {
            let platform = desc.build();
            let hosts = deployment.host_ids(&platform);
            let cfg = ReplayConfig { network: net(), algo, ..ReplayConfig::default() };
            let (lower, upper) = bounds(trace, &platform, &hosts, &cfg, 1)
                .unwrap_or_else(|e| panic!("{tag}/{net_name}: analysis failed: {e}"));
            let out = replay_memory(trace, platform, &hosts, &cfg)
                .unwrap_or_else(|e| panic!("{tag}/{net_name}: replay failed: {e}"));
            let sim = out.simulated_time;
            let slop = EPS * sim.abs().max(1.0);
            assert!(
                lower <= sim + slop,
                "{tag}/{net_name}/{algo:?}: lower bound {lower} exceeds simulated {sim}"
            );
            assert!(
                sim <= upper + slop,
                "{tag}/{net_name}/{algo:?}: simulated {sim} exceeds upper bound {upper}"
            );
            assert!(lower.is_finite() && upper.is_finite() && lower >= 0.0);
        }
    }
}

#[test]
fn ring_traces_stay_in_the_sandwich() {
    for (nproc, iters) in [(2, 1), (4, 4), (8, 3)] {
        let cfg = RingConfig { nproc, iters, ..Default::default() };
        assert_sandwich(&cfg.trace(), &format!("ring{nproc}x{iters}"));
    }
}

#[test]
fn stencil_traces_stay_in_the_sandwich() {
    let cfg = StencilConfig { n: 64, px: 2, py: 2, iters: 4, check_every: 2, ..Default::default() };
    assert_sandwich(&cfg.trace(), "stencil2x2");
    let cfg = StencilConfig { n: 64, px: 4, py: 2, iters: 2, check_every: 1, ..Default::default() };
    assert_sandwich(&cfg.trace(), "stencil4x2");
}

#[test]
fn lu_traces_stay_in_the_sandwich() {
    for nproc in [4, 8] {
        let lu = LuConfig::new(Class::S, nproc).with_itmax(2);
        let trace = program_trace(&lu.program(), nproc);
        assert_sandwich(&trace, &format!("lu.S.{nproc}"));
    }
}

#[test]
fn collective_heavy_trace_stays_in_the_sandwich() {
    let np = 6;
    let mut t = TiTrace::new(np);
    for rank in 0..np {
        t.push(rank, Action::CommSize { nproc: np });
        t.push(rank, Action::Compute { flops: 1e7 * (rank as f64 + 1.0) });
        t.push(rank, Action::Bcast { bytes: 1e5 });
        t.push(rank, Action::AllReduce { vcomm: 2e5, vcomp: 1e4 });
        t.push(rank, Action::Barrier);
        t.push(rank, Action::Reduce { vcomm: 5e4, vcomp: 1e3 });
    }
    assert_sandwich(&t, "collectives");
}

#[test]
fn classifier_recognizes_the_seeded_workloads() {
    let np = 4;
    let desc = PlatformDesc::single(presets::bordereau_one_core(np));
    let platform = desc.build();
    let hosts = Deployment::round_robin(&desc.host_names(), np).host_ids(&platform);
    let cfg = ReplayConfig::default();

    let ring = RingConfig { nproc: np, iters: 2, ..Default::default() }.trace();
    let a = analyze(&ring, &platform, &hosts, &cfg, 1).unwrap();
    assert_eq!(a.structure.pattern, Pattern::Ring);

    let st = StencilConfig { n: 64, px: 2, py: 2, iters: 2, check_every: 1, ..Default::default() };
    let a = analyze(&st.trace(), &platform, &hosts, &cfg, 1).unwrap();
    assert_eq!(a.structure.pattern, Pattern::Stencil);
}

/// One deadlock-free "round" of activity shared by every rank.
#[derive(Debug, Clone)]
enum Round {
    /// Per-rank compute bursts (len == nproc).
    Compute(Vec<f64>),
    Bcast(f64),
    Reduce(f64, f64),
    AllReduce(f64, f64),
    Barrier,
    /// Ring shift: Irecv from prev (pre-posted), send to next, wait.
    Shift(f64),
}

fn arb_round(np: usize) -> impl Strategy<Value = Round> {
    let vol = 0.0..1e7f64;
    prop_oneof![
        proptest::collection::vec(0.0..1e8f64, np..np + 1).prop_map(Round::Compute),
        vol.clone().prop_map(Round::Bcast),
        (vol.clone(), vol.clone()).prop_map(|(c, f)| Round::Reduce(c, f)),
        (vol.clone(), vol.clone()).prop_map(|(c, f)| Round::AllReduce(c, f)),
        Just(Round::Barrier),
        vol.prop_map(Round::Shift),
    ]
}

fn trace_of_rounds(np: usize, rounds: &[Round]) -> TiTrace {
    let mut t = TiTrace::new(np);
    for rank in 0..np {
        t.push(rank, Action::CommSize { nproc: np });
    }
    for round in rounds {
        for rank in 0..np {
            match round {
                Round::Compute(flops) => t.push(rank, Action::Compute { flops: flops[rank] }),
                Round::Bcast(b) => t.push(rank, Action::Bcast { bytes: *b }),
                Round::Reduce(c, f) => t.push(rank, Action::Reduce { vcomm: *c, vcomp: *f }),
                Round::AllReduce(c, f) => t.push(rank, Action::AllReduce { vcomm: *c, vcomp: *f }),
                Round::Barrier => t.push(rank, Action::Barrier),
                Round::Shift(b) => {
                    // The Irecv is posted before the (possibly
                    // rendezvous) send anywhere blocks, so the shift
                    // can never deadlock.
                    t.push(rank, Action::Irecv { src: (rank + np - 1) % np, bytes: None });
                    t.push(rank, Action::Send { dst: (rank + 1) % np, bytes: *b });
                    t.push(rank, Action::Wait);
                }
            }
        }
    }
    t
}

proptest! {
    /// Random deadlock-free traces stay inside the bounds under every
    /// network model and collective algorithm.
    #[test]
    fn random_traces_stay_in_the_sandwich(
        np in 2usize..6,
        seed_rounds in proptest::collection::vec(arb_round(8), 1..8),
    ) {
        // Rounds were generated for up to 8 ranks; slice the per-rank
        // vectors down to the drawn size.
        let rounds: Vec<Round> = seed_rounds
            .into_iter()
            .map(|r| match r {
                Round::Compute(mut v) => {
                    v.truncate(np);
                    v.resize(np, 0.0);
                    Round::Compute(v)
                }
                other => other,
            })
            .collect();
        let trace = trace_of_rounds(np, &rounds);
        assert_sandwich(&trace, "proptest");
    }
}
