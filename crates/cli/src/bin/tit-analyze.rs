//! Static trace analyzer: happens-before graph, critical path, and
//! makespan bounds — without running the replay. The flags are those
//! of the `USAGE` line, which every usage error prints; any other flag
//! exits 2, and the platform and model flags fill the same
//! `tit_replay::Spec` as `tit-replay`'s.
//!
//! The tool loads the per-rank `SG_process<N>.trace` text files (`--jobs N`
//! parses them on N worker threads, `0` = one per CPU), builds the
//! cross-rank happens-before DAG under the same platform/network cost
//! model the replay engine uses, and reports:
//!
//! - **makespan bounds** — a lower bound (the weighted critical path)
//!   and an upper bound (fully serialized execution) that sandwich the
//!   simulated time of any `tit-replay` run over the same trace,
//!   platform, deployment, and network model;
//! - **the critical path** — its length, hop count, and the top
//!   path-dominating `(rank, action)` pairs, plus per-rank slack;
//! - **structure** — communication matrix, pattern classification
//!   (ring / stencil / allreduce-dominated / master-worker / …),
//!   load imbalance and comm/compute ratios.
//!
//! The text report goes to stdout; `--json FILE` writes the full
//! deterministic `tit-analyze-v1` report, `--metrics FILE` the pipeline
//! metrics (graph sizes, bounds, wall timers). Both are written
//! atomically. A trace whose blocking pattern guarantees a deadlock is
//! reported as such (exit 1) instead of producing bogus bounds.
//!
//! Exit codes: `0` success, `1` analysis failure (unreadable trace or
//! input file, guaranteed deadlock), `2` usage error (an unknown flag
//! or a value its flag does not take).

use std::path::PathBuf;
use tit_cli::{or_exit, write_atomic_or_die, Args};
use titanalyze::analyze;
use titobs::Metrics;

const USAGE: &str = "tit-analyze --trace-dir DIR --np N [--platform FILE] [--deploy FILE] [--nodes N] [--collectives binomial|flat] [--network mpi|flow|constant] [--json FILE] [--metrics FILE] [--jobs N]";

fn main() {
    let args = Args::from_env(USAGE);
    let dir = PathBuf::from(args.require("trace-dir"));
    let np: usize = args.get_or("np", 0);
    if np == 0 {
        args.usage_error("missing --np");
    }
    let jobs: usize = args.get_or("jobs", 1);

    let (platform, hosts, cfg) = tit_cli::build(&tit_cli::spec(&args), np);

    let metrics = Metrics::new();
    let t0 = std::time::Instant::now();
    let trace = metrics.time("wall.ingest", || tit_core::load_exact(&dir, np, jobs));
    let trace = or_exit(trace, "cannot load trace");
    let ingest_wall = t0.elapsed();
    let t1 = std::time::Instant::now();
    let analysis = metrics.time("wall.analyze", || analyze(&trace, &platform, &hosts, &cfg, jobs));
    let analysis = or_exit(analysis, "analysis failed");
    let analyze_wall = t1.elapsed();

    print!("{}", analysis.render_text());
    println!("ingest wall:      {:.3} s", ingest_wall.as_secs_f64());
    println!("analysis wall:    {:.3} s", analyze_wall.as_secs_f64());
    if let Some(path) = args.get("json") {
        write_atomic_or_die(path, &analysis.to_json());
        println!("report:           {path}");
    }
    if let Some(path) = args.get("metrics") {
        metrics.incr("analyze.actions", analysis.actions);
        metrics.incr("analyze.nodes", analysis.nodes as u64);
        metrics.incr("analyze.edges", analysis.edges as u64);
        metrics.incr("analyze.flows", analysis.flows as u64);
        metrics.set_value("analyze.lower_s", analysis.lower_bound);
        metrics.set_value("analyze.upper_s", analysis.upper_bound);
        write_atomic_or_die(path, &metrics.to_json());
        println!("metrics:          {path}");
    }
}
