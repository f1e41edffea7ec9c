//! Kernel self-profiling sweep: *why* does replay throughput fall as
//! ranks grow?
//!
//! `BENCH_replay.json` records the symptom — LU.B throughput drops from
//! ~2.3M records/s at 8 ranks to ~1.1M at 64 — but a headline number
//! cannot say where the time went. This experiment replays the Figure 9
//! LU.B sweep with the engine's kernel profiler attached
//! (`ReplayConfig::kernel_profile`) and writes `KPROF_replay.json`: one
//! full [`titobs::KernelReport`] per rank count, wall phases included,
//! so the committed baseline quantifies how LMM-solver work (solves ×
//! constraints touched) and event-heap traffic scale relative to the
//! action count. docs/OBSERVABILITY.md walks through reading the ×64
//! entry.

use crate::table::Table;
use npb::Class;
use simkern::resource::HostId;
use tit_core::json::{obj, Json};
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;
use tit_replay::{replay_memory, ReplayConfig};
use titobs::KernelReport;

/// One profiled measurement point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The full kernel report (counters + wall phases).
    pub report: KernelReport,
    /// Replay wall-clock, seconds (whole replay, not just the engine).
    pub wall: f64,
}

/// Replays LU `class`×`nproc` at `scale` with kernel profiling on.
/// Rows beyond ×64 use generator-fed traces with itmax shrunk to hold
/// action volume constant ([`crate::lu_sweep_instance`]).
pub fn measure(class: Class, nproc: usize, scale: f64) -> Point {
    let lu = crate::lu_sweep_instance(class, nproc, scale);
    let trace = npb::program_trace(&lu.program(), nproc);
    let platform = PlatformDesc::single(presets::bordereau_one_core(nproc)).build();
    let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
    let cfg = ReplayConfig { kernel_profile: true, ..ReplayConfig::default() };
    let out = replay_memory(&trace, platform, &hosts, &cfg)
        // panics: experiment inputs are generated, so failure is a bench bug
        .expect("replay of a well-formed generated trace");
    let profile = out
        .kernel_profile
        // panics: kernel_profile=true on the plain path always yields a profile
        .expect("kernel profile from a profiled replay");
    Point {
        report: KernelReport {
            profile,
            num_ranks: nproc,
            actions_replayed: out.actions_replayed,
            simulated_time: out.simulated_time,
        },
        wall: out.wall_time.as_secs_f64(),
    }
}

/// Runs the digest-sized sweep (capped at
/// [`super::fig9::DIGEST_MAX_RANKS`]) and renders the text exhibit.
pub fn run(scale: f64) -> String {
    sweep(scale, super::fig9::DIGEST_MAX_RANKS).0
}

/// Like [`run`], also returning the raw points (so the binary can emit
/// `KPROF_replay.json`). Rows with more than `max_ranks` ranks are
/// skipped.
pub fn sweep(scale: f64, max_ranks: usize) -> (String, Vec<Point>) {
    let mut out = String::new();
    out.push_str(&format!(
        "Kernel profile — LU class B sweep (scale {scale}, itmax {} up to x64, \
         shrunk beyond to hold action volume)\n\n",
        crate::scaled_itmax(Class::B, scale)
    ));
    let mut t = Table::new(&[
        "procs",
        "actions",
        "solves",
        "cons/solve",
        "heap ops/act",
        "solve %",
        "drain %",
        "events %",
        "compl %",
        "krec/s",
    ]);
    let mut points = Vec::new();
    for nproc in super::fig9::SWEEP_RANKS_B.into_iter().filter(|&n| n <= max_ranks) {
        let p = measure(Class::B, nproc, scale);
        let k = &p.report.profile;
        let w = &k.wall;
        let pct = |x: f64| {
            if w.total_s > 0.0 { format!("{:.0}%", 100.0 * x / w.total_s) } else { "-".into() }
        };
        #[allow(clippy::cast_precision_loss)]
        let per = |num: u64, den: u64| {
            if den > 0 { num as f64 / den as f64 } else { 0.0 }
        };
        #[allow(clippy::cast_precision_loss)]
        let krec = format!("{:.0}k", p.report.actions_replayed as f64 / p.wall / 1e3);
        t.row(&[
            nproc.to_string(),
            p.report.actions_replayed.to_string(),
            k.solver.solves.to_string(),
            format!("{:.1}", per(k.solver.constraints_touched, k.solver.solves)),
            format!("{:.1}", per(k.heap_pushes + k.heap_pops, p.report.actions_replayed)),
            pct(w.solve_s),
            pct(w.drain_s),
            pct(w.events_s),
            pct(w.completions_s),
            krec,
        ]);
        points.push(p);
    }
    out.push_str(&t.render());
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        #[allow(clippy::cast_precision_loss)]
        let growth = |f: &dyn Fn(&Point) -> u64| {
            let (a, b) = (f(first), f(last));
            let (aa, ba) = (first.report.actions_replayed, last.report.actions_replayed);
            if a > 0 && aa > 0 {
                (b as f64 / a as f64) / (ba as f64 / aa as f64)
            } else {
                0.0
            }
        };
        out.push_str(&format!(
            "\nper-action growth x{}->x{}: solver constraints {:.2}x, heap ops {:.2}x\n\
             (values > 1 name superlinear kernel work — the throughput-drop culprit)\n",
            first.report.num_ranks,
            last.report.num_ranks,
            growth(&|p| p.report.profile.solver.constraints_touched),
            growth(&|p| p.report.profile.heap_pushes + p.report.profile.heap_pops),
        ));
    }
    (out, points)
}

/// Serializes the sweep as `KPROF_replay.json`: the [`KernelReport`]
/// walls-included documents in one `tit-kprof-sweep-v1` envelope,
/// newest schema first so `scripts/check_telemetry.py --kprof` can
/// validate each run.
pub fn sweep_json(points: &[Point]) -> String {
    let runs = points.iter().map(|p| p.report.to_json_value(true)).collect();
    let doc = obj(vec![
        ("schema", "tit-kprof-sweep-v1".into()),
        ("bench", "kprof".into()),
        ("runs", Json::Arr(runs)),
    ]);
    format!("{doc}\n")
}
