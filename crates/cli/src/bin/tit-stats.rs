//! Trace statistics and validation (the columns of Table 3).
//!
//! ```text
//! tit-stats --trace-dir DIR --np N [--validate] [--compress]
//! tit-stats --trace FILE [--validate] [--compress]
//! ```
//!
//! `--validate` runs the `titlint` static analyzer on the loaded trace:
//! `validation:       OK` (exit 0) when it finds no error, otherwise its
//! error findings (exit 1).

use std::path::PathBuf;
use tit_cli::{or_exit, Args};
use tit_core::{TiTrace, TraceStats};
use titlint::Severity;

const USAGE: &str = "tit-stats (--trace-dir DIR --np N | --trace FILE) [--validate] [--compress]";

fn main() {
    let args = Args::from_env(USAGE);
    let trace = if let Some(dir) = args.get("trace-dir") {
        let np: usize = args.get_or("np", 0);
        if np == 0 {
            args.usage_error("missing --np");
        }
        // Exactly ranks 0..np: a missing rank file is an error naming
        // the rank, and files past np are not read.
        or_exit(tit_core::load_exact(&PathBuf::from(dir), np, 1), "cannot load traces")
    } else if let Some(file) = args.get("trace") {
        or_exit(TiTrace::load_merged(&PathBuf::from(file)), "cannot load trace")
    } else {
        args.usage_error("missing --trace-dir or --trace");
    };

    let stats = TraceStats::of(&trace);
    println!("processes:        {}", stats.num_processes);
    println!("actions:          {} ({:.3} million)", stats.num_actions, stats.actions_millions());
    println!("encoded size:     {:.2} MiB", stats.encoded_mib());
    println!("total flops:      {:.4e}", stats.total_flops);
    println!("total bytes sent: {:.4e}", stats.total_bytes);
    println!("per action kind:");
    for (kw, n) in &stats.per_keyword {
        println!("  {kw:<10} {n}");
    }

    if args.has_flag("compress") {
        let mut buf = Vec::new();
        or_exit(trace.write_merged(&mut buf), "cannot serialise the trace");
        let compressed = tit_core::compress::compress(&buf);
        println!(
            "compressed:       {:.2} MiB ({:.1}x)",
            compressed.len() as f64 / (1 << 20) as f64,
            buf.len() as f64 / compressed.len() as f64
        );
    }

    if args.has_flag("validate") {
        let report = titlint::analyze(&trace);
        if !report.has_errors() {
            println!("validation:       OK");
        } else {
            println!("validation:       {} error(s)", report.errors());
            for f in report.findings.iter().filter(|f| f.severity == Severity::Error).take(20) {
                println!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
