//! Trace statistics and validation (the columns of Table 3).
//!
//! ```text
//! tit-stats --trace-dir DIR --np N [--validate] [--compress]
//! tit-stats --trace FILE [--validate] [--compress]
//! ```

use std::path::PathBuf;
use tit_cli::Args;
use tit_core::{validate, TiTrace, TraceStats};

const USAGE: &str = "tit-stats (--trace-dir DIR --np N | --trace FILE) [--validate] [--compress]";

fn main() {
    let args = Args::from_env();
    let trace = if let Some(dir) = args.get("trace-dir") {
        let np: usize = args.get_or("np", 0);
        if np == 0 {
            tit_cli::usage_error("missing --np", USAGE);
        }
        // Exactly ranks 0..np: a missing rank file is an error naming
        // the rank, and files past np are not read.
        tit_core::load_exact(&PathBuf::from(dir), np, 1).unwrap_or_else(|e| {
            eprintln!("cannot load traces: {e}");
            std::process::exit(1);
        })
    } else if let Some(file) = args.get("trace") {
        TiTrace::load_merged(&PathBuf::from(file)).unwrap_or_else(|e| {
            eprintln!("cannot load trace: {e}");
            std::process::exit(1);
        })
    } else {
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
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
        trace.write_merged(&mut buf).expect("serialise");
        let compressed = tit_core::compress::compress(&buf);
        println!(
            "compressed:       {:.2} MiB ({:.1}x)",
            compressed.len() as f64 / (1 << 20) as f64,
            buf.len() as f64 / compressed.len() as f64
        );
    }

    if args.has_flag("validate") {
        let errors = validate(&trace);
        if errors.is_empty() {
            println!("validation:       OK");
        } else {
            println!("validation:       {} error(s)", errors.len());
            for e in errors.iter().take(20) {
                println!("  {e}");
            }
            std::process::exit(1);
        }
    }
}
