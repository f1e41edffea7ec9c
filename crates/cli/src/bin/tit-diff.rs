//! Compares two time-independent trace sets (e.g. extractions of the
//! same application under different acquisition modes — the decoupling
//! check of Section 6.2).
//!
//! ```text
//! tit-diff --a DIR_A --b DIR_B [--coalesce] [--tolerance REL]
//! ```
//!
//! `--coalesce` merges adjacent compute bursts on both sides first;
//! `--tolerance` allows a relative difference on compute volumes (PAPI
//! counter jitter; the paper observes <1 % effects).

use std::path::PathBuf;
use tit_cli::{or_exit, Args};
use tit_core::{Action, TiTrace};

const USAGE: &str = "tit-diff --a DIR --b DIR [--coalesce] [--tolerance REL]";

fn volumes_match(a: &Action, b: &Action, tol: f64) -> bool {
    let close = |x: f64, y: f64| {
        x == y || (x - y).abs() <= tol * x.abs().max(y.abs())
    };
    match (a, b) {
        (Action::Compute { flops: x }, Action::Compute { flops: y }) => close(*x, *y),
        (Action::Reduce { vcomm: c1, vcomp: p1 }, Action::Reduce { vcomm: c2, vcomp: p2 })
        | (
            Action::AllReduce { vcomm: c1, vcomp: p1 },
            Action::AllReduce { vcomm: c2, vcomp: p2 },
        ) => c1 == c2 && close(*p1, *p2),
        _ => a == b,
    }
}

fn main() {
    let args = Args::from_env(USAGE);
    let a_dir = PathBuf::from(args.require("a"));
    let b_dir = PathBuf::from(args.require("b"));
    let tol: f64 = args.get_or("tolerance", 0.0);

    let load = |p: &PathBuf| {
        or_exit(TiTrace::load_per_process(p), format_args!("cannot load {}", p.display()))
    };
    let mut a = load(&a_dir);
    let mut b = load(&b_dir);
    if args.has_flag("coalesce") {
        a.coalesce_computes();
        b.coalesce_computes();
    }

    if a.num_processes() != b.num_processes() {
        println!(
            "DIFFER: {} vs {} processes",
            a.num_processes(),
            b.num_processes()
        );
        std::process::exit(1);
    }

    let mut diffs = 0u64;
    for (rank, (aa, ba)) in a.actions.iter().zip(&b.actions).enumerate() {
        if aa.len() != ba.len() {
            println!("p{rank}: {} vs {} actions", aa.len(), ba.len());
            diffs += 1;
            continue;
        }
        for (i, (x, y)) in aa.iter().zip(ba).enumerate() {
            if !volumes_match(x, y, tol) {
                if diffs < 10 {
                    println!("p{rank} action {i}: {x:?} vs {y:?}");
                }
                diffs += 1;
            }
        }
    }
    if diffs == 0 {
        println!(
            "IDENTICAL: {} processes, {} actions{}",
            a.num_processes(),
            a.num_actions(),
            if tol > 0.0 { format!(" (tolerance {tol})") } else { String::new() }
        );
    } else {
        println!("DIFFER: {diffs} mismatching action(s)");
        std::process::exit(1);
    }
}
