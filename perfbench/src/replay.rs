//! The three replay workloads: trace bytes on disk → simulated time,
//! through the same library entry points `tit-replay` calls.
//!
//! One *iteration* is one complete replay: set-up (text ingest or store
//! open, platform and deployment build) then the replay call and any
//! output writes. The untraced run replays once to warm up, then
//! repeats iterations for the run's seconds, each between two runs of
//! the host-speed probe (`calib.rs`), and reports medians of the
//! calibrated times. The traced run alternates an untraced
//! iteration with a traced one (kernel self-profiling on, plus the
//! decode and observer-off side passes) and reads every layer timing
//! from around the public calls.

use crate::calib::Probe;
use crate::inputs::{store_path, trace_dir, work_root};
use crate::report::Measured;
use crate::spec::{Params, Workload};
use crate::stats::{median, quantile, sum};
use simkern::resource::HostId;
use simkern::{KernelProfile, Platform};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tit_core::{MemBudget, Tib2Store};
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;
use tit_platform::Deployment;
use tit_replay::{
    replay_compact, replay_compact_observed, replay_store, run_checkpointed, store_sources, tags,
    CheckpointedStatus, ReplayConfig, SegmentCache,
};
use titobs::Profile;

/// Fewest iterations a run reports a median over, however long they take.
const MIN_ITERS: usize = 3;

/// Extra set-up-only repetitions per iteration for the store workloads,
/// whose set-up is a millisecond or less: their `setup_s` median is
/// taken over these too, so the first, cache-cold one after each replay
/// does not set it.
const STORE_SETUP_REPS: usize = 50;

/// One workload run's fixed context.
pub struct Ctx {
    pub workload: Workload,
    pub params: Params,
    pub dir: PathBuf,
    pub seconds: f64,
    /// Ingest workers for lu-text (`nproc`).
    pub jobs: usize,
}

/// One replay, timed around each layer call.
#[derive(Debug, Default)]
struct Iter {
    setup_s: f64,
    run_s: f64,
    simulated_time: f64,
    actions: u64,
    /// `load_compact_exact` or `Tib2Store::open`.
    load_s: f64,
    /// `PlatformDesc::build` + `Deployment::host_ids`.
    platform_s: f64,
    /// The replay entry-point call (`replay_compact_observed` / `replay_store`).
    call_s: f64,
    /// `ReplayOutcome.wall_time`.
    engine_run_s: f64,
    /// Profile render + write (lu-text).
    emit_s: f64,
    kprof: Option<KernelProfile>,
    segment_peak: u64,
    /// Traced side passes (not part of the iteration's wall).
    observer_off_engine_s: Option<f64>,
    decode_s: Option<f64>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The default platform and deployment `tit-replay` builds for `--np N`
/// with no platform or deployment file.
fn build_platform(ranks: usize) -> (Platform, Vec<HostId>) {
    let desc = PlatformDesc::single(presets::bordereau_one_core(ranks));
    let platform = desc.build();
    let hosts = Deployment::round_robin(&desc.host_names(), ranks).host_ids(&platform);
    (platform, hosts)
}

fn config(traced: bool) -> ReplayConfig {
    ReplayConfig {
        kernel_profile: traced,
        ..ReplayConfig::default()
    }
}

fn profile_path() -> PathBuf {
    work_root().join("out").join("lu-text-profile.json")
}

/// Decode-only pass: `Tib2Store::read_segment` over every segment.
fn decode_pass(store: &Tib2Store) -> Result<f64, String> {
    let t = Instant::now();
    let mut actions = 0u64;
    for rank in 0..store.num_ranks() {
        for seg in 0..store.num_segments(rank) {
            actions += store
                .read_segment(rank, seg)
                .map_err(|e| e.to_string())?
                .len() as u64;
        }
    }
    let s = secs(t);
    if actions != store.num_actions() {
        return Err(format!(
            "decode pass saw {actions} of {} actions",
            store.num_actions()
        ));
    }
    Ok(s)
}

fn iteration(ctx: &Ctx, traced: bool) -> Result<Iter, String> {
    let ranks = ctx.params.source.ranks();
    let cfg = config(traced);
    match ctx.workload {
        Workload::LuText => {
            let t0 = Instant::now();
            let compact = tit_core::load_compact_exact(&trace_dir(&ctx.dir), ranks, ctx.jobs)
                .map_err(|e| e.to_string())?;
            let load_s = secs(t0);
            let tp = Instant::now();
            let (platform, hosts) = build_platform(ranks);
            let platform_s = secs(tp);
            let setup_s = secs(t0);
            let trace = Arc::new(compact);
            let profile = Profile::new(ranks, tags::name, tags::is_comm);
            let td = Instant::now();
            let out = replay_compact_observed(&trace, platform, &hosts, &cfg, Some(profile.sink()))
                .map_err(|e| e.to_string())?;
            let call_s = secs(td);
            let te = Instant::now();
            tit_core::write_atomic(&profile_path(), profile.snapshot().to_json().as_bytes())
                .map_err(|e| format!("write profile: {e}"))?;
            let emit_s = secs(te);
            let total = secs(t0);
            let mut it = Iter {
                setup_s,
                run_s: total - setup_s,
                simulated_time: out.simulated_time,
                actions: out.actions_replayed,
                load_s,
                platform_s,
                call_s,
                engine_run_s: out.wall_time.as_secs_f64(),
                emit_s,
                kprof: out.kernel_profile,
                ..Iter::default()
            };
            if traced {
                // The same replay without the observer, on the trace
                // already loaded: the observer's share of engine time.
                let (platform, hosts) = build_platform(ranks);
                let off =
                    replay_compact(&trace, platform, &hosts, &cfg).map_err(|e| e.to_string())?;
                if off.simulated_time.to_bits() != out.simulated_time.to_bits() {
                    return Err("observer-off replay changed the simulated time".into());
                }
                it.observer_off_engine_s = Some(off.wall_time.as_secs_f64());
            }
            Ok(it)
        }
        Workload::LuWideStore | Workload::PairsStore => {
            let t0 = Instant::now();
            let store =
                Arc::new(Tib2Store::open(&store_path(&ctx.dir)).map_err(|e| e.to_string())?);
            let load_s = secs(t0);
            let tp = Instant::now();
            let (platform, hosts) = build_platform(ranks);
            let platform_s = secs(tp);
            let setup_s = secs(t0);
            let budget = Arc::new(MemBudget::new(ctx.params.budget_bytes));
            let td = Instant::now();
            let out = replay_store(&store, Arc::clone(&budget), platform, &hosts, &cfg)
                .map_err(|e| e.to_string())?;
            let call_s = secs(td);
            let total = secs(t0);
            let decode_s = if traced {
                Some(decode_pass(&store)?)
            } else {
                None
            };
            Ok(Iter {
                setup_s,
                run_s: total - setup_s,
                simulated_time: out.simulated_time,
                actions: out.actions_replayed,
                load_s,
                platform_s,
                call_s,
                engine_run_s: out.wall_time.as_secs_f64(),
                kprof: out.kernel_profile,
                segment_peak: budget.peak(),
                decode_s,
                ..Iter::default()
            })
        }
        Workload::ServeWhatif => unreachable!("serve-whatif is not a replay workload"),
    }
}

/// Set-up only (store open + platform build), for the store workloads'
/// extra `setup_s` samples.
fn store_setup(ctx: &Ctx) -> Result<f64, String> {
    let t0 = Instant::now();
    let store = Tib2Store::open(&store_path(&ctx.dir)).map_err(|e| e.to_string())?;
    let built = build_platform(ctx.params.source.ranks());
    let s = secs(t0);
    drop((store, built));
    Ok(s)
}

/// Segment-cache counters: the same store replay through a cache this
/// side owns, so `fault_count`/`eviction_count` can be read back. The
/// engine is deterministic, so the counts equal the measured replays'.
fn cache_counters(ctx: &Ctx) -> Result<(f64, u64, u64), String> {
    let store = Arc::new(Tib2Store::open(&store_path(&ctx.dir)).map_err(|e| e.to_string())?);
    let budget = Arc::new(MemBudget::new(ctx.params.budget_bytes));
    let cache = Arc::new(SegmentCache::new(Arc::clone(&store), budget));
    let (platform, hosts) = build_platform(ctx.params.source.ranks());
    let out = run_checkpointed(
        store_sources(&cache),
        platform,
        &hosts,
        &config(false),
        None,
        None,
        None,
    )
    .map_err(|e| e.to_string())?;
    let CheckpointedStatus::Finished { simulated_time } = out.status else {
        return Err("counter pass paused without a checkpoint policy".into());
    };
    Ok((simulated_time, cache.fault_count(), cache.eviction_count()))
}

/// Decoded size of the whole store, bytes (the budget's yardstick).
fn decoded_bytes(path: &Path) -> Result<u64, String> {
    let store = Tib2Store::open(path).map_err(|e| e.to_string())?;
    Ok((0..store.num_ranks())
        .flat_map(|r| (0..store.num_segments(r)).map(move |s| (r, s)))
        .map(|(r, s)| {
            store
                .segment_meta(r, s)
                .map_or(0, tit_core::tib2::SegMeta::decoded_bytes)
        })
        .sum())
}

fn text_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Whether a replay returned the workload's anchor, bit for bit.
fn anchor_ok(ctx: &Ctx, got: f64) -> bool {
    let ok = ctx
        .params
        .anchor
        .is_some_and(|a| a.to_bits() == got.to_bits());
    if !ok {
        eprintln!(
            "perfbench: simulated time {got:?} differs from the anchor {:?}",
            ctx.params.anchor
        );
    }
    ok
}

/// Runs a replay workload for `ctx.seconds` and reports its metrics.
pub fn run(ctx: &Ctx, traced: bool) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut setups = Vec::new();
    let store = matches!(ctx.workload, Workload::LuWideStore | Workload::PairsStore);
    if store {
        let path = store_path(&ctx.dir);
        let decoded = decoded_bytes(&path)?;
        m.facts.push((
            "store_bytes",
            std::fs::metadata(&path).map_or(0, |md| md.len()) as f64,
        ));
        m.facts.push(("decoded_bytes", decoded as f64));
        m.facts
            .push(("budget_bytes", ctx.params.budget_bytes as f64));
    }
    // The untraced run: one warm-up replay, then the peak RSS, read
    // before the calibration probe first runs so it holds the workload's
    // memory alone; every later sample sits between two probe runs.
    let mut probe = None;
    if !traced {
        let it = iteration(ctx, false)?;
        m.check(anchor_ok(ctx, it.simulated_time));
        m.set("peak_rss_mb", peak_rss_mb());
        let mut p = Probe::new();
        p.run();
        probe = Some(p);
    }
    let start = Instant::now();
    let mut plain: Vec<Iter> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut traced_iters: Vec<Iter> = Vec::new();
    while plain.len() < MIN_ITERS || start.elapsed().as_secs_f64() < ctx.seconds {
        // Spread over the run, like the iterations, so the host's slow
        // and fast spells weigh on set-up as they do on the replays.
        let mut pass_setups = Vec::new();
        if store && !traced {
            for _ in 0..STORE_SETUP_REPS {
                pass_setups.push(store_setup(ctx)?);
            }
        }
        let it = iteration(ctx, false)?;
        m.check(anchor_ok(ctx, it.simulated_time));
        plain.push(it);
        if let Some(p) = &mut probe {
            p.run();
            let slow = p.slowdown();
            setups.extend(pass_setups.iter().map(|s| s / slow));
            slowdowns.push(slow);
        }
        if traced {
            let it = iteration(ctx, true)?;
            // A traced replay must return the untraced bits.
            m.check(anchor_ok(ctx, it.simulated_time));
            traced_iters.push(it);
        }
    }
    m.runs.push(("iterations", plain.len() as u64));
    if traced {
        m.runs
            .push(("traced_iterations", traced_iters.len() as u64));
        layer_metrics(ctx, &plain, &traced_iters, &mut m)?;
    } else {
        setups.extend(plain.iter().zip(&slowdowns).map(|(i, s)| i.setup_s / s));
        m.runs.push(("setups", setups.len() as u64));
        let raw_run: Vec<f64> = plain.iter().map(|i| i.run_s).collect();
        m.facts.push(("raw_run_s", median(&raw_run)));
        m.facts.push(("host_slowdown", median(&slowdowns)));
        end_to_end(&plain, &slowdowns, &setups, &mut m);
    }
    Ok(m)
}

/// The end-to-end metrics from calibrated times: each iteration's
/// times ÷ the host slowdown measured around it.
fn end_to_end(iters: &[Iter], slowdowns: &[f64], setups: &[f64], m: &mut Measured) {
    let run: Vec<f64> = iters
        .iter()
        .zip(slowdowns)
        .map(|(i, s)| i.run_s / s)
        .collect();
    let whole: Vec<f64> = iters
        .iter()
        .zip(slowdowns)
        .map(|(i, s)| (i.setup_s + i.run_s) / s)
        .collect();
    let rate: Vec<f64> = iters
        .iter()
        .zip(&whole)
        .map(|(i, w)| i.actions as f64 / w)
        .collect();
    m.set("setup_s", median(setups));
    m.set("run_s", median(&run));
    m.set("actions_per_s", median(&rate));
    m.set("req_per_s", iters.len() as f64 / sum(&whole));
    m.set("req_p50_ms", median(&whole) * 1e3);
    m.set("req_p95_ms", quantile(&whole, 0.95) * 1e3);
}

pub fn peak_rss_mb() -> f64 {
    tit_core::rss::peak_rss_bytes().unwrap_or(0) as f64 / f64::from(1 << 20)
}

fn layer_metrics(
    ctx: &Ctx,
    plain: &[Iter],
    traced: &[Iter],
    m: &mut Measured,
) -> Result<(), String> {
    let med = |f: &dyn Fn(&Iter) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let load_s = med(&|i| i.load_s);
    match ctx.workload {
        Workload::LuText => {
            m.set("core.text_load_s", load_s);
            m.set(
                "core.text_mb_per_s",
                text_bytes(&trace_dir(&ctx.dir)) as f64 / 1e6 / load_s,
            );
            m.set("telemetry.emit_s", med(&|i| i.emit_s));
            m.set(
                "telemetry.observer_overhead",
                med(&|i| i.engine_run_s / i.observer_off_engine_s.unwrap_or(i.engine_run_s)),
            );
        }
        _ => {
            m.set("core.store_open_s", load_s);
            m.set("core.segment_decode_s", med(&|i| i.decode_s.unwrap_or(0.0)));
            m.set(
                "core.segment_peak_mb",
                med(&|i| i.segment_peak as f64) / f64::from(1 << 20),
            );
            let (sim, faults, evictions) = cache_counters(ctx)?;
            m.check(anchor_ok(ctx, sim));
            m.set("core.segment_faults", faults as f64);
            m.set("core.segment_evictions", evictions as f64);
        }
    }
    m.set("platform.build_s", med(&|i| i.platform_s));
    m.set("replay.engine_run_s", med(&|i| i.engine_run_s));
    m.set("replay.engine_build_s", med(&|i| i.call_s - i.engine_run_s));

    let last = traced.last().ok_or("no traced iteration")?;
    let kp = last
        .kprof
        .ok_or("kernel profile missing from a traced replay")?;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    m.set("simkern.actor_steps", kp.actor_steps as f64);
    m.set(
        "simkern.heap_ops_per_action",
        ratio(kp.heap_pushes + kp.heap_pops, last.actions),
    );
    m.set("simkern.stale_pops", kp.stale_pops as f64);
    m.set("simkern.lazy_rekeys", kp.lazy_rekeys as f64);
    m.set("simkern.solves", kp.solver.solves as f64);
    m.set(
        "simkern.constraints_per_solve",
        ratio(kp.solver.constraints_touched, kp.solver.solves),
    );
    m.set(
        "simkern.vars_per_solve",
        ratio(kp.solver.vars_touched, kp.solver.solves),
    );
    m.set("simkern.rate_changes", kp.solver.rate_changes as f64);
    let wall = |f: &dyn Fn(&KernelProfile) -> f64| med(&|i| i.kprof.as_ref().map_or(0.0, f));
    m.set("simkern.drain_s", wall(&|k| k.wall.drain_s));
    m.set("simkern.solve_s", wall(&|k| k.wall.solve_s));
    m.set("simkern.events_s", wall(&|k| k.wall.events_s));
    m.set("simkern.completions_s", wall(&|k| k.wall.completions_s));

    let plain_run = median(&plain.iter().map(|i| i.run_s).collect::<Vec<_>>());
    m.set("bench.trace_overhead", med(&|i| i.run_s) / plain_run);
    m.set(
        "bench.unattributed_frac",
        med(&|i| {
            let wall = i.setup_s + i.run_s;
            (wall - (i.load_s + i.platform_s + i.call_s + i.emit_s)) / wall
        }),
    );
    Ok(())
}
