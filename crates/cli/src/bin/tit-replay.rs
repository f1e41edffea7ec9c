//! The trace replay tool: time-independent traces + platform +
//! deployment → simulated execution time (Figure 4 of the paper).
//!
//! The flags are those of the `USAGE` line, which every usage error
//! prints; any other flag exits 2. The model flags fill a
//! `tit_replay::Spec`, the one set of model options `tit-analyze` and
//! `tit-serve` requests fill too. Without `--platform`, a
//! bordereau-like cluster of `--nodes` (default `N`) single-core nodes
//! is used; without `--deploy`, ranks map round-robin. With `--lint`,
//! the trace set is statically analyzed first (`tit-lint`) and the
//! replay refuses to start when error findings are present — catching
//! deadlocks and structural defects before any simulation time is
//! spent.
//!
//! The observability outputs stream during the replay (O(ranks)
//! memory, no record buffering): `--timeline` writes Chrome trace-event
//! JSON (load in `chrome://tracing` or Perfetto), `--timed-trace`
//! writes the `rank,action,start,end,volume` CSV, `--profile FILE`
//! writes the per-rank profile as JSON (a bare `--profile` prints the
//! text table), and `--metrics` writes a deterministic metrics JSON.
//! Only `--paje` buffers records: Paje wants states in start order and
//! the engine delivers them in completion order, so its file is written
//! from the collected run. Every output is an observer sink, so it is
//! available in every mode: a paused, resumed or degraded run's file
//! describes what this process replayed. Every file output is written
//! atomically (tmp + rename): a crash mid-replay never leaves a
//! half-written artifact behind.
//!
//! `--time-resolved FILE` adds the windowed view: simulated time is
//! segmented at phase boundaries (every rank completed a collective)
//! and, with `--window SECS`, at fixed-width marks; each window
//! reports per-rank compute/comm time, bytes, operation counts,
//! active-flow peaks and derived comm-ratio/imbalance metrics
//! (`tit-timeres-v1` JSON; `--time-resolved-csv FILE` streams the
//! per-rank rows). `--kernel-profile FILE` turns on the simulator's
//! self-profiling — LMM solver work, event-heap traffic, wall time per
//! engine phase printed to stdout; the file holds the deterministic
//! counter core, byte-identical across runs and `--jobs` values. It is
//! available in every mode, but a paused or resumed run's profile
//! covers only this process's part of the run.
//!
//! `--kernel reference` swaps the scale-invariant incremental kernel
//! (the default) for the full-solve reference kernel it is
//! differentially tested against, in every mode (checkpointed, resumed
//! and degraded runs included). Both simulate bit-identically; the
//! reference path exists as an oracle and for triaging suspected
//! kernel bugs (docs/KERNEL.md).
//!
//! `--jobs N` selects the parallel ingestion fast path: the per-rank
//! trace files are parsed by N worker threads (`--jobs 0` = one per
//! CPU) into the compact struct-of-arrays form and replayed from
//! memory. The default `--jobs 1` streams the files serially during the
//! replay (constant memory). Both paths produce identical results; the
//! ingest counters (`ingest.files`, `ingest.actions`, `ingest.bytes`,
//! `ingest.jobs`, `wall.ingest`) land in `--metrics` output.
//!
//! # Checkpoint / resume (DESIGN.md §5f)
//!
//! `--checkpoint FILE --checkpoint-every N` snapshots the full replay
//! state into a versioned `TICK1` file (atomically replaced) every `N`
//! replayed actions; `--resume FILE` restarts from such a snapshot and
//! reaches the **bit-identical** final simulated time of an
//! uninterrupted run. `--max-wall SECS` is a watchdog: when the budget
//! (a finite, non-negative number of seconds, counted from the start of
//! the simulation, after set-up and any restore) expires the replay
//! writes a final checkpoint and exits with code 3 (partial success)
//! instead of being lost.
//! `--stop-after-checkpoints K` pauses deterministically after the K-th
//! snapshot (the hook the chaos harness uses to simulate crashes).
//! Checkpointing requires the serial path (`--jobs 1`).
//!
//! # Segmented stores (`--store`, DESIGN.md §5i)
//!
//! `--store FILE` replays a `TIB2` segmented store (docs/FORMATS.md)
//! instead of a trace directory: segments fault in on demand with
//! O(ranks + resident segments) peak memory, every segment is
//! checksum-verified before a byte of it reaches the kernel, and the
//! simulated time is bit-identical to the `--trace-dir` path. `--np`
//! is optional (the store knows its rank count) and must match when
//! given. `--mem-budget BYTES` (suffixes `K`/`M`/`G` accepted) puts a
//! hard cap on resident decoded segments: the cache evicts and
//! re-faults under pressure, and an unmeetable cap is a typed refusal
//! — never an OOM kill. The run self-reports its peak RSS (`VmHWM`)
//! next to the budget. Checkpoints taken with `--store` embed the
//! store's footer hash: `--resume` refuses a store whose content
//! changed, not just a different platform. With `--degraded`, damaged
//! segments are trimmed at segment granularity using the footer
//! index's exact per-segment action counts.
//!
//! # Degraded mode
//!
//! `--degraded` replays whatever a damaged trace directory still
//! carries instead of failing hard: unparseable file tails are trimmed,
//! missing ranks are stubbed out, and the run reports a completeness
//! ratio (actions replayed / actions expected) plus per-rank
//! degradation reasons (also in `--metrics` output). Exit code 3 when
//! the ratio is below 1.0, 0 for an undamaged input.
//!
//! # Exit codes
//!
//! `0` success — `1` runtime failure — `2` usage error (a flag the
//! usage line does not list, a value its flag does not take, or two
//! flags that cannot be combined; the message names them) — `3`
//! partial success (watchdog pause or degraded replay with
//! completeness < 1).

use simkern::observer::Collector;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tit_cli::{or_exit, write_atomic_or_die, Args};
use tit_core::{AtomicFile, MemBudget, Tib2Store};
use tit_replay::{
    tags, DegradationReason, Input, Replay, ReplayCheckpoint, SegmentCache, Status, Stop,
};
use titobs::{
    KernelReport, Metrics, Profile, TimeResolved, Timeline, TimelineFormat, TimelineSummary,
    WindowSpec,
};

const USAGE: &str = "tit-replay (--trace-dir DIR --np N | --store FILE [--mem-budget BYTES]) [--platform FILE] [--deploy FILE] [--nodes N] [--collectives binomial|flat] [--network mpi|flow|constant] [--kernel incremental|reference] [--timed-trace FILE] [--timeline FILE] [--profile [FILE]] [--metrics FILE] [--time-resolved FILE] [--time-resolved-csv FILE] [--window SECS] [--kernel-profile FILE] [--paje FILE] [--lint] [--jobs N] [--checkpoint FILE] [--checkpoint-every N] [--resume FILE] [--max-wall SECS] [--stop-after-checkpoints K] [--degraded]";

/// Exit code for partial success: a watchdog pause or a degraded
/// replay that lost actions.
const EXIT_PARTIAL: i32 = 3;

fn open_atomic(path: &str) -> BufWriter<AtomicFile> {
    let file = or_exit(AtomicFile::create(Path::new(path)), format_args!("cannot create {path}"));
    BufWriter::with_capacity(1 << 16, file)
}

/// Flushes and atomically publishes the `what` output file at `path`.
/// `w` is its writer, reclaimed from the sink that streamed it: `None`
/// (a sink still shares it) exits 1, as does a failed write.
fn commit_atomic(w: Option<BufWriter<AtomicFile>>, what: &str, path: &str) {
    let Some(w) = w else {
        eprintln!("cannot write {what} {path}: writer still shared");
        std::process::exit(1);
    };
    let r = w.into_inner().map_err(std::io::IntoInnerError::into_error).and_then(AtomicFile::commit);
    or_exit(r, format_args!("cannot write {path}"));
}

/// Writes a timeline's trailer and publishes its file.
fn commit_timeline(tl: Timeline<BufWriter<AtomicFile>>, what: &str, path: &str) -> TimelineSummary {
    let summary = or_exit(tl.finish(), format_args!("cannot write {what} {path}"));
    commit_atomic(tl.into_writer(), what, path);
    summary
}

/// The checkpointing flags, which pause, write or read a `TICK1` file.
const CHECKPOINTING: [&str; 5] =
    ["checkpoint", "resume", "checkpoint-every", "max-wall", "stop-after-checkpoints"];

/// Flags the replay cannot combine: with the first, none of the others,
/// for the reason given. A refusal names every flag involved.
const CONFLICTS: [(&str, &[&str], &str); 6] = [
    ("degraded", &CHECKPOINTING, "a degraded replay writes and reads no checkpoint"),
    ("degraded", &["lint"], "--lint refuses the damaged traces --degraded salvages"),
    ("jobs", &CHECKPOINTING, "checkpointing needs the serial path (--jobs 1)"),
    ("jobs", &["degraded"], "--degraded needs the serial path (--jobs 1)"),
    ("jobs", &["store", "mem-budget"], "a store streams its segments; --jobs is for --trace-dir"),
    ("lint", &["store", "mem-budget"], "--lint analyzes a trace directory, not a store"),
];

fn main() {
    let args = Args::from_env(USAGE);
    // Input selection: a per-rank trace directory or a TIB2 store.
    let store_path = args.get("store").map(str::to_owned);
    if store_path.is_some() && args.get("trace-dir").is_some() {
        args.usage_error("--store and --trace-dir are mutually exclusive");
    }
    let dir = match &store_path {
        Some(_) => PathBuf::new(),
        None => PathBuf::from(args.require("trace-dir")),
    };

    // Robustness-mode flags and their interactions (exit 2 on misuse).
    let degraded = args.has_flag("degraded");
    let lint = args.has_flag("lint");
    let checkpoint = args.get("checkpoint").map(str::to_owned);
    let resume = args.get("resume").map(str::to_owned);
    let every: u64 = args.get_or("checkpoint-every", 0);
    let stop_after: Option<u64> = args.get("stop-after-checkpoints").map(|s| match s.parse() {
        Ok(v) => v,
        Err(_) => args.usage_error("--stop-after-checkpoints wants a count"),
    });
    let jobs: usize = args.get_or("jobs", 1);
    let given = |flag: &str| match flag {
        "jobs" => jobs != 1,
        "checkpoint-every" => every != 0,
        _ => args.has_flag(flag),
    };
    for (flag, others, why) in CONFLICTS {
        let with: Vec<String> =
            others.iter().filter(|o| given(o)).map(|o| format!("--{o}")).collect();
        if given(flag) && !with.is_empty() {
            args.usage_error(&format!("--{flag} cannot be combined with {}: {why}", with.join(" ")));
        }
    }
    for flag in &CHECKPOINTING[2..] {
        if given(flag) && checkpoint.is_none() {
            args.usage_error(&format!("--{flag} needs --checkpoint FILE"));
        }
    }
    let checkpointing = checkpoint.is_some() || resume.is_some();

    // Fail closed: a store whose footer index does not verify has no
    // trustworthy salvage map.
    let store = store_path.as_ref().map(|p| {
        Arc::new(or_exit(Tib2Store::open(Path::new(p)), format_args!("cannot open store {p}")))
    });
    let np: usize = match &store {
        Some(s) => {
            let n = s.num_ranks();
            let asked: usize = args.get_or("np", n);
            if asked != n {
                args.usage_error(&format!("--np {asked} does not match the store's {n} rank(s)"));
            }
            n
        }
        None => {
            let np = args.get_or("np", 0);
            if np == 0 {
                args.usage_error("missing --np");
            }
            np
        }
    };
    let mem_budget: Option<u64> = args.get("mem-budget").map(|s| {
        match tit_cli::parse_byte_size(s) {
            Ok(v) if v > 0 => v,
            Ok(_) => args.usage_error("--mem-budget wants a positive byte size"),
            Err(e) => args.usage_error(&e),
        }
    });
    if mem_budget.is_some() && store.is_none() {
        args.usage_error("--mem-budget needs --store (directory replays stream at O(ranks) anyway)");
    }
    let budget = Arc::new(mem_budget.map_or_else(MemBudget::unlimited, MemBudget::new));

    // Time-resolved metrics and kernel self-profiling flags.
    let time_resolved = args.get("time-resolved").map(str::to_owned);
    let time_resolved_csv = args.get("time-resolved-csv").map(str::to_owned);
    let want_timeres = time_resolved.is_some() || time_resolved_csv.is_some();
    let window: Option<f64> = args.get("window").map(|s| match s.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => v,
        _ => args.usage_error("--window wants a positive number of simulated seconds"),
    });
    if window.is_some() && !want_timeres {
        args.usage_error("--window needs --time-resolved or --time-resolved-csv");
    }
    let kernel_profile_path = args.get("kernel-profile").map(str::to_owned);
    let spec = tit_cli::spec(&args);

    let metrics = Metrics::new();
    if lint {
        let report = metrics.time("wall.lint", || {
            titlint::lint_dir(&dir, np, &titlint::LintConfig::default())
        });
        metrics.incr("lint.findings", report.findings.len() as u64);
        if !report.findings.is_empty() {
            eprint!("{}", report.render_text());
        }
        if report.has_errors() {
            eprintln!("refusing to replay: the static analysis found error(s) above");
            std::process::exit(1);
        }
    }

    let (platform, hosts, mut cfg) = tit_cli::build(&spec, np);
    cfg.kernel_profile = kernel_profile_path.is_some();

    // Assemble the streaming observer set. `--profile` doubles as a
    // flag (text table to stdout) and a `--profile FILE` pair (JSON).
    let want_profile = args.has_flag("profile");
    let want_metrics_file = args.get("metrics").is_some();
    let mut fan = simkern::observer::Fanout::new();
    let mut stream = |flag: &str, format, what: &str| {
        args.get(flag).map(|path| {
            let tl = Timeline::new(open_atomic(path), np, format, tags::name);
            let tl = or_exit(tl, format_args!("cannot start {what} {path}"));
            fan.push(tl.sink());
            (tl, path)
        })
    };
    let timeline = stream("timeline", TimelineFormat::ChromeJson, "timeline");
    let timed = stream("timed-trace", TimelineFormat::Csv, "timed trace");
    let profile = want_profile.then(|| {
        let p = Profile::new(np, tags::name, tags::is_comm);
        fan.push(p.sink());
        p
    });
    let timeres = want_timeres.then(|| {
        let csv = time_resolved_csv.as_deref().map(open_atomic);
        let windows = WindowSpec { width: window, phases: true };
        let tr = TimeResolved::new(csv, np, windows, tags::is_comm, tags::is_collective);
        let tr = or_exit(tr, "cannot start time-resolved metrics");
        fan.push(tr.sink());
        tr
    });
    if want_metrics_file {
        fan = fan.with(metrics.observer("replay"));
    }
    let paje = args.get("paje").map(|path| {
        let records = Collector::new();
        fan.push(records.sink());
        (records, path)
    });
    let extra: Option<Box<dyn simkern::observer::Observer>> =
        if fan.is_empty() { None } else { Some(Box::new(fan)) };

    // The input: the trace directory or the store, strict or salvaged.
    let input = match &store {
        Some(s) => {
            let cache = Arc::new(SegmentCache::new(Arc::clone(s), Arc::clone(&budget)));
            if degraded {
                Input::salvage_store(&cache)
            } else {
                if !checkpointing {
                    metrics.incr("store.bytes", s.file_len());
                    metrics.incr("store.actions", s.num_actions());
                    metrics.set_note("store.fingerprint", &format!("{:#018x}", s.fingerprint()));
                }
                Input::store(&cache)
            }
        }
        None if degraded => Input::salvage_files(&dir, np),
        // `--jobs 1` (the default) streams each file during the replay;
        // any other value takes the parallel ingestion fast path.
        None if jobs == 1 => Input::files(&dir, np),
        None => {
            let loaded =
                metrics.time("wall.ingest", || tit_core::load_compact_exact(&dir, np, jobs));
            let compact = or_exit(loaded, "replay failed");
            metrics.incr("ingest.files", np as u64);
            metrics.incr("ingest.actions", compact.num_actions() as u64);
            metrics.incr("ingest.bytes", compact.heap_bytes() as u64);
            metrics.set_value("ingest.jobs", tit_core::ingest::effective_jobs(jobs) as f64);
            Input::compact(&Arc::new(compact))
        }
    };
    // Checkpoints taken with --store are keyed on the footer hash:
    // resume refuses a store whose content changed.
    let resume_state =
        resume.as_ref().map(|f| or_exit(ReplayCheckpoint::load(Path::new(f)), "replay failed"));
    let replay = Replay::new(input, platform, &hosts, &cfg)
        .observer(extra)
        .pause_every(every)
        .deadline(spec.budget)
        .checkpoint(checkpoint.as_ref().map(PathBuf::from))
        .stop_after(stop_after)
        .resume(resume_state)
        .tolerate_damage(degraded)
        .run();
    let out = or_exit(replay, "replay failed");

    let mut exit_code = 0;
    if degraded {
        let ratio = out.completeness();
        metrics.set_value("degraded.completeness", ratio);
        let mut stubbed = 0;
        let mut trimmed = 0;
        for r in &out.ranks {
            if r.reason == DegradationReason::MissingFile {
                stubbed += 1;
            }
            trimmed += r.lines_trimmed;
            metrics.set_note(
                &format!("degraded.rank{}", r.rank),
                &format!("{}: {}", r.reason, r.detail),
            );
        }
        metrics.incr("degraded.ranks_stubbed", stubbed);
        metrics.incr("degraded.actions_trimmed", trimmed);
        println!(
            "completeness:     {ratio:.6} ({}/{} actions)",
            out.actions_replayed, out.actions_expected
        );
        for r in &out.ranks {
            println!(
                "degraded rank {}:  {} ({} actions kept, {} lines trimmed) {}",
                r.rank, r.reason, r.actions_kept, r.lines_trimmed, r.detail
            );
        }
        if let Some(f) = &out.failure {
            println!("replay cut short: {f}");
        }
        if out.is_partial() {
            exit_code = EXIT_PARTIAL;
        }
    }
    if checkpointing {
        metrics.incr("checkpoint.writes", out.checkpoints_written);
        if let Some(ckfile) = &resume {
            metrics.incr("checkpoint.resume", 1);
            println!("resumed from:     {ckfile}");
        }
        if let Some(ckfile) = &checkpoint {
            println!("checkpoints:      {} written to {ckfile}", out.checkpoints_written);
        }
    }
    let paused = match out.status {
        Status::Stopped(Stop::Deadline) => Some("wall-clock budget expired"),
        Status::Stopped(Stop::StopAfter) => Some("checkpoint count reached"),
        _ => None,
    };
    if let Some(why) = paused {
        println!("paused:           {why}; resume with --resume");
        exit_code = EXIT_PARTIAL;
    }
    let (sim_time, actions, wall) = (out.simulated_time, out.actions_replayed, out.wall_time);
    println!("simulated time:   {sim_time:.6} s");
    println!("actions replayed: {actions}");
    println!("simulation wall:  {:.3} s", wall.as_secs_f64());
    if store.is_some() {
        // Self-report ground truth (the kernel's VmHWM high-water
        // mark), not the cache's own accounting, next to the cap.
        metrics.set_value("mem.segment_peak", budget.peak() as f64);
        if let Some(cap) = mem_budget {
            metrics.set_value("mem.budget", cap as f64);
        }
        if let Some(peak) = tit_core::rss::peak_rss_bytes() {
            metrics.set_value("mem.peak_rss", peak as f64);
            // The segment figures are exact bytes, as in `--metrics`:
            // a small budget would round to nothing in MiB.
            match mem_budget {
                Some(cap) => println!(
                    "peak rss:         {:.1} MiB (segment budget {cap} bytes, segment peak {} bytes)",
                    peak as f64 / (1 << 20) as f64,
                    budget.peak(),
                ),
                None => println!("peak rss:         {:.1} MiB", peak as f64 / (1 << 20) as f64),
            }
        }
    }

    // The observer fanout was consumed (and dropped) by the replay, so
    // the sinks' handles are the sole owners of their writers: finish
    // each one, reclaim the AtomicFile, and publish it. Partial runs
    // (pause, resume, degraded) still commit — the file describes what
    // this process replayed.
    if let Some((tl, path)) = timeline {
        let summary = commit_timeline(tl, "timeline", path);
        debug_assert!(summary.monotone, "engine emitted out-of-order records");
        println!("timeline:         {path} ({} events)", summary.events);
    }
    if let Some((tl, path)) = timed {
        commit_timeline(tl, "timed trace", path);
        println!("timed trace:      {path}");
    }
    if let Some(p) = &profile {
        let report = p.snapshot();
        match args.get("profile") {
            Some(path) => {
                write_atomic_or_die(path, &report.to_json());
                println!("profile:          {path}");
            }
            None => {
                print!("{}", report.render_text());
                print!("{}", report.render_tags_text());
            }
        }
    }
    if let Some(tr) = timeres {
        let report = or_exit(tr.finish(), "cannot write time-resolved metrics");
        if let Some(path) = &time_resolved {
            write_atomic_or_die(path, &report.to_json());
            println!("time-resolved:    {path} ({} windows)", report.windows.len());
        }
        if let Some(path) = &time_resolved_csv {
            commit_atomic(tr.into_writer(), "time-resolved CSV", path);
            println!("time-resolved csv: {path}");
        }
    }
    if let (Some(path), Some(kp)) = (&kernel_profile_path, out.kernel_profile) {
        let report = KernelReport {
            profile: kp,
            num_ranks: np,
            actions_replayed: actions,
            simulated_time: sim_time,
        };
        print!("{}", report.render_text());
        // The file holds the deterministic counter core (no wall
        // section) so CI can byte-diff it across runs and --jobs.
        write_atomic_or_die(path, &report.to_json());
        println!("kernel profile:   {path}");
    }
    if let Some(path) = args.get("metrics") {
        metrics.incr("replay.actions", actions);
        metrics.set_value("replay.simulated_time", sim_time);
        write_atomic_or_die(path, &metrics.to_json());
        println!("metrics:          {path}");
    }

    if let Some((records, path)) = paje {
        let mut w = open_atomic(path);
        let written = titobs::write_paje(&records.take(), np, sim_time, tags::name, &mut w);
        or_exit(written, format_args!("cannot write paje trace {path}"));
        commit_atomic(Some(w), "paje trace", path);
        println!("paje trace:       {path}");
    }
    std::process::exit(exit_code);
}
