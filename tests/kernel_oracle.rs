//! Differential oracle for the scale-invariant replay kernel
//! (docs/KERNEL.md).
//!
//! The engine ships two kernel implementations behind
//! [`titr::simkern::KernelMode`]: the `Reference` kernel (full LMM
//! solve after every state change, eager completion re-keying) and the
//! `Incremental` kernel (dirty-island partial solves, lazy completion
//! re-keying); both queue timed events in the same binary heap. The
//! incremental kernel's entire claim is that it produces the **same
//! simulation, bit for bit** — not "close enough": simulated times and
//! the full completion-ordered timeline must be identical down to the
//! last float bit on every workload. These tests enforce that claim on
//! the paper's LU benchmark plus the repo's other generators (ring,
//! stencil, allreduce-heavy CG) under all three network models, and on
//! randomized balanced traces via proptest. Both kernels pause to the
//! same checkpoint bytes, and a checkpoint taken under one resumes
//! under the other to the same bits (`checkpoints_resume_across_kernels`).

use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use titr::npb::ring::RingConfig;
use titr::npb::stencil::StencilConfig;
use titr::npb::{CgConfig, Class, LuConfig};
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::collectives::CollectiveAlgo;
use titr::replay::{Input, Replay, ReplayConfig};
use titr::simkern::lmm::SolverStats;
use titr::simkern::netmodel::NetworkConfig;
use titr::simkern::observer::Collector;
use titr::simkern::resource::HostId;
use titr::simkern::{KernelMode, WallPhases};
use titr::trace::{Action, TiTrace};

/// A replay outcome reduced to exactly-comparable integers: the
/// simulated time's bit pattern, the action count, and the timeline as
/// `(actor, tag, start_bits, end_bits, volume_bits)` rows in delivery
/// order. Two kernels agree iff these are `==`.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    simulated_time_bits: u64,
    actions_replayed: u64,
    timeline: Vec<(usize, u32, u64, u64, u64)>,
}

/// Replays `trace` and returns its fingerprint and solver counters.
fn replay_fingerprint(trace: &TiTrace, cfg: &ReplayConfig) -> (Fingerprint, SolverStats) {
    let nproc = trace.num_processes();
    let desc = PlatformDesc::single(presets::bordereau_one_core(nproc));
    let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
    let records = Collector::new();
    let out = Replay::new(Input::memory(trace), desc.build(), &hosts, cfg)
        .observer(Some(records.sink()))
        .run()
        .expect("replay succeeds");
    let fingerprint = Fingerprint {
        simulated_time_bits: out.simulated_time.to_bits(),
        actions_replayed: out.actions_replayed,
        timeline: timeline(&records),
    };
    (fingerprint, out.kernel_profile.expect("kernel_profile was set").solver)
}

/// The records collected so far as exactly-comparable rows.
fn timeline(records: &Collector) -> Vec<(usize, u32, u64, u64, u64)> {
    records
        .take()
        .iter()
        .map(|r| (r.actor, r.tag, r.start.to_bits(), r.end.to_bits(), r.volume.to_bits()))
        .collect()
}

/// Replays `trace` under both kernels and asserts the fingerprints are
/// identical. Returns the (shared) simulated time and the incremental
/// kernel's solver counters so callers can add workload-specific
/// sanity checks.
fn assert_modes_agree(
    trace: &TiTrace,
    network: NetworkConfig,
    algo: CollectiveAlgo,
) -> (f64, SolverStats) {
    let cfg = |kernel| ReplayConfig { network: network.clone(), algo, kernel_profile: true, kernel };
    let (reference, _) = replay_fingerprint(trace, &cfg(KernelMode::Reference));
    let (incremental, solver) = replay_fingerprint(trace, &cfg(KernelMode::Incremental));
    assert!(!reference.timeline.is_empty(), "oracle replayed an empty timeline");
    assert_eq!(reference, incremental, "incremental kernel diverged from the full-solve reference");
    (f64::from_bits(reference.simulated_time_bits), solver)
}

#[test]
fn ring_agrees_across_kernels_and_networks() {
    let trace = RingConfig { nproc: 8, iters: 6, flops: 2e6, bytes: 8e5 }.trace();
    for network in
        [NetworkConfig::mpi_cluster(), NetworkConfig::default(), NetworkConfig::constant()]
    {
        let (t, _) = assert_modes_agree(&trace, network, CollectiveAlgo::Binomial);
        assert!(t > 0.0);
    }
}

#[test]
fn stencil_agrees_across_kernels() {
    let cfg =
        StencilConfig { n: 256, px: 2, py: 2, iters: 8, check_every: 2, ..Default::default() };
    let (t, _) =
        assert_modes_agree(&cfg.trace(), NetworkConfig::mpi_cluster(), CollectiveAlgo::Binomial);
    assert!(t > 0.0);
}

#[test]
fn allreduce_heavy_cg_agrees_across_kernels() {
    let cfg = CgConfig::new(Class::S, 8).with_niter(2);
    let trace = titr::npb::program_trace(&cfg.program(), 8);
    for algo in [CollectiveAlgo::Binomial, CollectiveAlgo::Flat] {
        let (t, _) = assert_modes_agree(&trace, NetworkConfig::mpi_cluster(), algo);
        assert!(t > 0.0);
    }
}

/// At ×8 LU's islands are NIC pairs; at ×64 the wavefront couples
/// flows through shared NICs into islands of about a dozen constraints
/// (docs/KERNEL.md §2), where the incremental kernel's packed island
/// fill does its real work.
#[test]
fn lu_agrees_across_kernels() {
    for (nproc, itmax, min_island) in [(8, 3, 0.0), (64, 1, 10.0)] {
        let cfg = LuConfig::new(Class::S, nproc).with_itmax(itmax);
        let trace = titr::npb::program_trace(&cfg.program(), nproc);
        let (t, solver) =
            assert_modes_agree(&trace, NetworkConfig::mpi_cluster(), CollectiveAlgo::Binomial);
        assert!(t > 0.0);
        let per_solve = solver.constraints_touched as f64 / solver.solves as f64;
        assert!(per_solve >= min_island, "x{nproc}: {per_solve:.2} constraints per solve");
    }
}

/// A checkpoint is kernel-agnostic (docs/KERNEL.md §1): LU paused at
/// one action count encodes to the same bytes under either kernel, and
/// paused under one kernel, with flows in their latency phase queued
/// as timed events, and resumed under the other it reaches the
/// uninterrupted run's simulated-time bits, action count and timeline.
#[test]
fn checkpoints_resume_across_kernels() {
    let nproc = 16;
    let lu = LuConfig::new(Class::S, nproc).with_itmax(2);
    let trace = titr::npb::program_trace(&lu.program(), nproc);
    let desc = PlatformDesc::single(presets::bordereau_one_core(nproc));
    let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
    let cfg = |kernel| ReplayConfig { kernel, ..ReplayConfig::default() };
    let profiled = ReplayConfig { kernel_profile: true, ..cfg(KernelMode::Incremental) };
    let (whole, _) = replay_fingerprint(&trace, &profiled);
    let always = AtomicBool::new(true);
    let kernels = [KernelMode::Reference, KernelMode::Incremental].map(cfg);
    let pairs = [(&kernels[0], &kernels[1]), (&kernels[1], &kernels[0])];
    for every in [500, 1500, 2500] {
        let mut bytes = Vec::new();
        for (paused_under, resumed_under) in pairs {
            let records = Collector::new();
            let paused = Replay::new(Input::memory(&trace), desc.build(), &hosts, paused_under)
                .observer(Some(records.sink()))
                .pause_every(every)
                .preempt(Some(&always))
                .run()
                .expect("paused replay");
            let state = paused.paused.expect("preempted at the first pause");
            let context = format!("paused under {:?} after {every} actions", paused_under.kernel);
            assert!(!state.engine.events.is_empty(), "{context}: no timed event queued");
            bytes.push(state.encode());
            let out = Replay::new(Input::memory(&trace), desc.build(), &hosts, resumed_under)
                .observer(Some(records.sink()))
                .resume(Some(state))
                .run()
                .expect("resumed replay");
            let resumed = Fingerprint {
                simulated_time_bits: out.simulated_time.to_bits(),
                actions_replayed: out.actions_replayed,
                timeline: timeline(&records),
            };
            assert_eq!(resumed, whole, "{context}, resumed under {:?}", resumed_under.kernel);
        }
        let differ = bytes[0].iter().zip(&bytes[1]).filter(|(a, b)| a != b).count();
        let sizes = (bytes[0].len(), bytes[1].len());
        assert!(bytes[0] == bytes[1], "after {every} actions: {differ} bytes differ, {sizes:?}");
    }
}

/// Pausing is invisible to the kernel profile: under either kernel, LU
/// paused every 500 actions and continued in place counts the same
/// solves, heap operations and completion updates, lazy re-keys and
/// stale pops included, as the run that never pauses.
#[test]
fn pausing_leaves_the_kernel_profile_unchanged() {
    let nproc = 16;
    let lu = LuConfig::new(Class::S, nproc).with_itmax(2);
    let trace = titr::npb::program_trace(&lu.program(), nproc);
    let desc = PlatformDesc::single(presets::bordereau_one_core(nproc));
    let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
    for kernel in [KernelMode::Reference, KernelMode::Incremental] {
        let cfg = ReplayConfig { kernel, kernel_profile: true, ..ReplayConfig::default() };
        let counters = |every: u64| {
            let out = Replay::new(Input::memory(&trace), desc.build(), &hosts, &cfg)
                .pause_every(every)
                .run()
                .expect("replay");
            let mut kp = out.kernel_profile.expect("kernel profile");
            kp.wall = WallPhases::default();
            kp
        };
        let plain = counters(0);
        assert!(plain.lazy_rekeys > 0 || kernel == KernelMode::Reference, "{plain:?}");
        assert_eq!(counters(500), plain, "{kernel:?}");
    }
}

/// Same balanced-trace generator contract as `proptests.rs`: every send
/// is matched, per-pair ordering is FIFO, every Irecv is waited on.
fn balanced_trace(nproc: usize, ops: &[(usize, usize, u32, bool)]) -> TiTrace {
    let mut t = TiTrace::new(nproc);
    for r in 0..nproc {
        t.push(r, Action::CommSize { nproc });
    }
    for &(src, dst, vol, nonblocking) in ops {
        let src = src % nproc;
        let dst = dst % nproc;
        if src == dst {
            t.push(src, Action::Compute { flops: vol as f64 });
            continue;
        }
        let bytes = vol as f64;
        t.push(src, Action::Send { dst, bytes });
        if nonblocking {
            t.push(dst, Action::Irecv { src, bytes: None });
            t.push(dst, Action::Wait);
        } else {
            t.push(dst, Action::Recv { src, bytes: None });
        }
    }
    for r in 0..nproc {
        t.push(r, Action::Barrier);
    }
    t
}

proptest! {
    /// Random balanced traces replay bit-identically under both
    /// kernels — times and full timelines. This is the adversarial leg
    /// of the oracle: arbitrary message graphs, mixed blocking and
    /// nonblocking receives, degenerate volumes.
    #[test]
    fn random_traces_agree_across_kernels(
        nproc in 2usize..6,
        ops in proptest::collection::vec(
            (0usize..8, 0usize..8, 1u32..2_000_000, proptest::bool::ANY),
            1..50,
        ),
    ) {
        let t = balanced_trace(nproc, &ops);
        let (time, _) =
            assert_modes_agree(&t, NetworkConfig::mpi_cluster(), CollectiveAlgo::Binomial);
        prop_assert!(time.is_finite() && time > 0.0);
    }
}
