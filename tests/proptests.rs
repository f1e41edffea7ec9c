//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;
use titr::npb::ring::RingConfig;
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::{replay_memory, ReplayConfig};
use titr::simkern::resource::HostId;
use titr::trace::{Action, TiTrace};

fn arb_action() -> impl Strategy<Value = Action> {
    let vol = 0.0..1e9f64;
    let pid = 0usize..16;
    prop_oneof![
        vol.clone().prop_map(|flops| Action::Compute { flops }),
        (pid.clone(), vol.clone()).prop_map(|(dst, bytes)| Action::Send { dst, bytes }),
        (pid.clone(), vol.clone()).prop_map(|(dst, bytes)| Action::Isend { dst, bytes }),
        pid.clone().prop_map(|src| Action::Recv { src, bytes: None }),
        pid.clone().prop_map(|src| Action::Irecv { src, bytes: None }),
        vol.clone().prop_map(|bytes| Action::Bcast { bytes }),
        (vol.clone(), vol.clone()).prop_map(|(vcomm, vcomp)| Action::Reduce { vcomm, vcomp }),
        (vol.clone(), vol).prop_map(|(vcomm, vcomp)| Action::AllReduce { vcomm, vcomp }),
        Just(Action::Barrier),
        (1usize..1024).prop_map(|nproc| Action::CommSize { nproc }),
        Just(Action::Wait),
    ]
}

proptest! {
    /// Any action round-trips through the text codec.
    #[test]
    fn codec_roundtrips_arbitrary_actions(pid in 0usize..4096, action in arb_action()) {
        let line = titr::trace::format_action(pid, &action);
        let (p2, a2) = titr::trace::parse_line(&line, 1).unwrap().unwrap();
        prop_assert_eq!(p2, pid);
        // Volumes may lose the integer fast-path formatting but must
        // stay bit-identical (we only print integers when exact).
        prop_assert_eq!(a2, action);
    }

    /// Serialising any trace and parsing it back is the identity.
    #[test]
    fn merged_file_roundtrip(actions in proptest::collection::vec((0usize..8, arb_action()), 0..200)) {
        let mut t = TiTrace::new(8);
        for (pid, a) in actions {
            t.push(pid, a);
        }
        let mut buf = Vec::new();
        t.write_merged(&mut buf).unwrap();
        let back = TiTrace::from_reader(&buf[..]).unwrap();
        // Processes with no actions at the tail are not reconstructed;
        // compare the prefix that exists.
        for (rank, acts) in back.actions.iter().enumerate() {
            prop_assert_eq!(acts, &t.actions[rank]);
        }
    }

    /// Ring replay time scales linearly in both volumes and iterations.
    #[test]
    fn ring_replay_scales(iters in 1usize..5, mult in 1u32..4) {
        let base = RingConfig { nproc: 4, iters, flops: 1e6, bytes: 1e6 };
        let scaled = RingConfig {
            flops: base.flops * mult as f64,
            bytes: base.bytes * mult as f64,
            ..base
        };
        let run = |cfg: &RingConfig| {
            let trace = cfg.trace();
            let desc = PlatformDesc::single(presets::bordereau_one_core(4));
            let platform = desc.build();
            let hosts: Vec<HostId> = (0..4).map(HostId).collect();
            // Identity network model so scaling is exact.
            let rc = ReplayConfig {
                network: titr::simkern::netmodel::NetworkConfig::default(),
                ..Default::default()
            };
            replay_memory(&trace, platform, &hosts, &rc)
                .unwrap()
                .simulated_time
        };
        let t1 = run(&base);
        let tm = run(&scaled);
        // Larger volumes with the same latency count: slightly sublinear.
        let max = mult as f64 * t1;
        prop_assert!(tm <= max * (1.0 + 1e-9), "tm={tm} max={max}");
        prop_assert!(tm >= t1, "bigger volumes cannot be faster");
    }

    /// The static analyzer accepts every trace the workload generators
    /// emit: no error-severity findings on them.
    #[test]
    fn generated_traces_always_validate(nproc_pow in 1u32..4, itmax in 1usize..4) {
        let nproc = 1usize << nproc_pow;
        let lu = titr::npb::LuConfig::new(titr::npb::Class::S, nproc).with_itmax(itmax);
        let trace = titr::npb::program_trace(&lu.program(), nproc);
        let report = titr::lint::analyze(&trace);
        prop_assert!(
            !report.has_errors(),
            "generated LU trace got error lints:\n{}",
            report.render_text()
        );
    }

    /// Replay is deterministic: same trace, same platform, same time.
    #[test]
    fn replay_is_deterministic(iters in 1usize..6) {
        let cfg = RingConfig { nproc: 4, iters, ..Default::default() };
        let trace = cfg.trace();
        let run = || {
            let desc = PlatformDesc::single(presets::bordereau_one_core(4));
            let platform = desc.build();
            let hosts: Vec<HostId> = (0..4).map(HostId).collect();
            replay_memory(&trace, platform, &hosts, &ReplayConfig::default())
            .unwrap()
            .simulated_time
        };
        prop_assert_eq!(run(), run());
    }
}

/// Generates a random *balanced* trace: every send has a matching
/// receive posted on the destination, messages per ordered pair are
/// FIFO-consistent, and every Irecv gets a Wait.
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
    // A final barrier keeps every rank alive to the end.
    for r in 0..nproc {
        t.push(r, Action::Barrier);
    }
    t
}

proptest! {
    /// Any balanced trace replays to completion (no deadlock, no panic)
    /// with a simulated time bounded below by each rank's own compute
    /// work and above by the fully-serialised sum of all volumes.
    #[test]
    fn balanced_traces_always_terminate(
        nproc in 2usize..6,
        ops in proptest::collection::vec(
            (0usize..8, 0usize..8, 1u32..2_000_000, proptest::bool::ANY),
            1..60,
        ),
    ) {
        let t = balanced_trace(nproc, &ops);
        prop_assert!(!titr::lint::analyze(&t).has_errors());
        let desc = PlatformDesc::single(presets::bordereau_one_core(nproc));
        let platform = desc.build();
        let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
        let out = replay_memory(&t, platform, &hosts, &ReplayConfig::default()).unwrap();

        let speed = presets::BORDEREAU_POWER;
        let bw_worst = 1.25e8 * 0.4; // worst piecewise bandwidth factor
        // Lower bound: the busiest rank's own compute work.
        let stats = titr::trace::TraceStats::of(&t);
        let lower = t
            .actions
            .iter()
            .map(|acts| acts.iter().map(Action::flops).sum::<f64>() / speed)
            .fold(0.0_f64, f64::max);
        prop_assert!(
            out.simulated_time >= lower * (1.0 - 1e-9),
            "time {} below compute bound {lower}",
            out.simulated_time
        );
        // Upper bound: everything serialised end to end, generously.
        let per_msg_overhead = 1e-3; // latencies, rendezvous, barriers
        let upper = stats.total_flops / speed
            + stats.total_bytes / bw_worst
            + stats.num_actions as f64 * per_msg_overhead
            + 1.0;
        prop_assert!(
            out.simulated_time <= upper,
            "time {} above serial bound {upper}",
            out.simulated_time
        );
    }

    /// The incremental engine is deterministic on random balanced traces.
    #[test]
    fn random_traces_replay_deterministically(
        nproc in 2usize..5,
        ops in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u32..500_000, proptest::bool::ANY),
            1..30,
        ),
    ) {
        let t = balanced_trace(nproc, &ops);
        let run = || {
            let desc = PlatformDesc::single(presets::bordereau_one_core(nproc));
            let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
            replay_memory(&t, desc.build(), &hosts, &ReplayConfig::default())
                .unwrap()
                .simulated_time
        };
        prop_assert_eq!(run(), run());
    }

    /// The static analyzer reports nothing at all on balanced traces:
    /// no errors (those would make the `tit-replay --lint` preflight
    /// refuse the run) and no warnings either, since the generator
    /// emits no self-messages, zero volumes, or empty ranks.
    #[test]
    fn lint_accepts_balanced_traces(
        nproc in 2usize..6,
        ops in proptest::collection::vec(
            (0usize..8, 0usize..8, 1u32..2_000_000, proptest::bool::ANY),
            0..60,
        ),
    ) {
        let t = balanced_trace(nproc, &ops);
        let report = titr::lint::analyze(&t);
        prop_assert!(
            report.findings.is_empty(),
            "balanced trace got findings:\n{}",
            report.render_text()
        );
    }
}

// ---------------------------------------------------------------------------
// Fault-injection closure: every corruption class the extract-stage
// injector can produce is caught downstream — by the static analyzer or
// by a typed pipeline error — and the lint report for a given seed is
// bit-for-bit reproducible. The seeds are fixed constants, so these are
// deterministic replays, not random sampling.
// ---------------------------------------------------------------------------

use std::path::{Path, PathBuf};
use titr::extract::faultinject::{FaultSpec, Injector};
use titr::lint::{LintCode, LintConfig, Report, Severity};
use titr::trace::trace::process_trace_filename;

/// How many fixed seeds each corruption class is driven with.
const FAULT_SEEDS: u64 = 24;

/// A two-rank exchange in which every trace line is load-bearing: each
/// file *ends* with a receive whose matching send lives in the other
/// file, and every receive declares its expected volume. Cutting or
/// corrupting any line therefore either leaves the trace semantically
/// identical (e.g. only the trailing newline went) or breaks a
/// cross-file invariant the linter checks.
fn sentinel_trace() -> TiTrace {
    let mut t = TiTrace::new(2);
    for r in 0..2 {
        t.push(r, Action::CommSize { nproc: 2 });
    }
    t.push(0, Action::Send { dst: 1, bytes: 1_000_000.0 });
    t.push(1, Action::Send { dst: 0, bytes: 2_000_000.0 });
    t.push(0, Action::Recv { src: 1, bytes: Some(2_000_000.0) });
    t.push(1, Action::Recv { src: 0, bytes: Some(1_000_000.0) });
    t
}

/// Lint policy for the fault tests: volume mismatches between matched
/// endpoints are escalated to errors, so single-bit damage to a volume
/// digit cannot slip through as a mere warning.
fn strict_lints() -> LintConfig {
    let mut cfg = LintConfig::default();
    cfg.set_level(LintCode::RecvBytesMismatch, Severity::Error);
    cfg
}

/// A fault case's scratch directory, removed when the case drops it.
struct SentinelDir(PathBuf);

impl std::ops::Deref for SentinelDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for SentinelDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a pristine copy of the sentinel trace into a fresh directory.
fn fresh_sentinel_dir(tag: &str) -> SentinelDir {
    let dir = std::env::temp_dir().join(format!("titr-faultlint-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    sentinel_trace().save_per_process(&dir).unwrap();
    SentinelDir(dir)
}

/// True when `dir` still loads and replays exactly like the sentinel
/// trace — the fault clipped nothing replay-relevant. Declared receive
/// volumes are advisory cross-checks (replay always moves the sender's
/// volume), so a fault that merely strips that annotation — truncation
/// landing right after `p1 recv p0`, say — is harmless; a fault that
/// *changes* it to a different value raises TL0014 instead.
fn semantically_intact(dir: &Path) -> bool {
    fn strip_advisory(mut t: TiTrace) -> TiTrace {
        for acts in &mut t.actions {
            for a in acts.iter_mut() {
                if let Action::Recv { bytes, .. } | Action::Irecv { bytes, .. } = a {
                    *bytes = None;
                }
            }
        }
        t
    }
    titr::trace::load_exact(dir, 2, 1)
        .map(|t| strip_advisory(t).actions == strip_advisory(sentinel_trace()).actions)
        .unwrap_or(false)
}

/// Lints `dir` twice under the strict policy and checks the rendered
/// reports agree bit for bit; returns one of them.
fn lint_twice(dir: &Path) -> Report {
    let cfg = strict_lints();
    let a = titr::lint::lint_dir(dir, 2, &cfg);
    let b = titr::lint::lint_dir(dir, 2, &cfg);
    assert_eq!(a.to_json(), b.to_json(), "lint output must be deterministic");
    a
}

/// Truncation: for every seed, either the damage was semantically void
/// or the linter reports at least one error — and re-corrupting a fresh
/// copy with the same seed yields the identical report.
#[test]
fn lint_catches_truncated_rank_files() {
    let mut detected = 0;
    for seed in 0..FAULT_SEEDS {
        let run = |n: u32| {
            let dir = fresh_sentinel_dir(&format!("trunc-{seed}-{n}"));
            let victim = dir.join(process_trace_filename((seed % 2) as usize));
            Injector::new(seed).truncate_file(&victim).unwrap();
            let report = lint_twice(&dir);
            // The report embeds absolute file locations; normalise the
            // per-run temp dir away so two runs compare bit for bit.
            let json = report.to_json().replace(&dir.display().to_string(), "<dir>");
            (report.has_errors(), semantically_intact(&dir), json)
        };
        let (errs, intact, json) = run(0);
        let (_, _, json2) = run(1);
        assert_eq!(json, json2, "seed {seed}: same seed must lint identically");
        assert!(
            errs || intact,
            "seed {seed}: truncation silently changed the trace:\n{json}"
        );
        detected += u64::from(errs);
    }
    assert!(detected > 0, "no truncation seed was ever detected");
}

/// Bit flips: same contract as truncation. On the sentinel fixture a
/// flipped byte lands in a process id (TL0018 if it still parses),
/// keyword, volume digit, separator, or newline — all of which the
/// linter or the parser objects to.
#[test]
fn lint_catches_bit_flips() {
    let mut detected = 0;
    for seed in 0..FAULT_SEEDS {
        let run = |n: u32| {
            let dir = fresh_sentinel_dir(&format!("flip-{seed}-{n}"));
            let victim = dir.join(process_trace_filename((seed % 2) as usize));
            Injector::new(seed).flip_bit(&victim).unwrap();
            let report = lint_twice(&dir);
            // The report embeds absolute file locations; normalise the
            // per-run temp dir away so two runs compare bit for bit.
            let json = report.to_json().replace(&dir.display().to_string(), "<dir>");
            (report.has_errors(), semantically_intact(&dir), json)
        };
        let (errs, intact, json) = run(0);
        let (_, _, json2) = run(1);
        assert_eq!(json, json2, "seed {seed}: same seed must lint identically");
        assert!(
            errs || intact,
            "seed {seed}: bit flip silently changed the trace:\n{json}"
        );
        detected += u64::from(errs);
    }
    assert!(detected > 0, "no bit-flip seed was ever detected");
}

/// A dropped rank always maps to TL0015 (missing rank file), whichever
/// rank went missing.
#[test]
fn lint_catches_dropped_ranks() {
    for rank in 0..2usize {
        let dir = fresh_sentinel_dir(&format!("drop-{rank}"));
        Injector::new(7).drop_rank(&dir, rank).unwrap();
        let report = lint_twice(&dir);
        assert!(report.has_errors(), "dropped rank {rank} went unnoticed");
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == LintCode::MissingRankFile),
            "dropped rank {rank} did not yield TL0015:\n{}",
            report.render_text()
        );
    }
}

/// The one-call `inject` sweep (truncate + flip every file) is caught,
/// and the resulting lint report is a pure function of the seed.
#[test]
fn lint_catches_injected_sweeps() {
    for seed in 0..FAULT_SEEDS {
        let run = |n: u32| {
            let dir = fresh_sentinel_dir(&format!("sweep-{seed}-{n}"));
            let spec = FaultSpec { seed, truncate: 1.0, bit_flip: 1.0, drop_rank: 0.0 };
            titr::extract::faultinject::inject(&dir, 2, &spec).unwrap();
            let report = lint_twice(&dir);
            // The report embeds absolute file locations; normalise the
            // per-run temp dir away so two runs compare bit for bit.
            let json = report.to_json().replace(&dir.display().to_string(), "<dir>");
            (report.has_errors(), semantically_intact(&dir), json)
        };
        let (errs, intact, json) = run(0);
        let (_, _, json2) = run(1);
        assert_eq!(json, json2, "seed {seed}: same seed must lint identically");
        assert!(
            errs || intact,
            "seed {seed}: injected sweep went unnoticed:\n{json}"
        );
    }
}

/// A short gather transfer is never silent: either the unbundler
/// reports the damage as a typed pipeline error, or the linter flags
/// the partially-materialised directory (typically TL0015), or the
/// decoded traces are semantically intact.
#[test]
fn lint_or_pipeline_catches_short_transfers() {
    let mut caught_by_lint = 0;
    for seed in 0..FAULT_SEEDS {
        let dir = fresh_sentinel_dir(&format!("short-{seed}"));
        let files: Vec<PathBuf> = (0..2).map(|r| dir.join(process_trace_filename(r))).collect();
        let bundle = dir.join("gather.bundle");
        titr::extract::gather::bundle(&files, &bundle).unwrap();
        let out = dir.join("unbundled");
        std::fs::create_dir_all(&out).unwrap();
        Injector::new(seed).short_transfer(&bundle).unwrap();
        let res = titr::extract::gather::unbundle(&bundle, &out);
        let report = lint_twice(&out);
        assert!(
            res.is_err() || report.has_errors() || semantically_intact(&out),
            "seed {seed}: short transfer went unnoticed:\n{}",
            report.render_text()
        );
        caught_by_lint += u64::from(report.has_errors());
    }
    assert!(caught_by_lint > 0, "no short transfer ever reached the linter");
}
