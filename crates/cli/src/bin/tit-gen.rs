//! Synthetic time-independent trace generator.
//!
//! ```text
//! tit-gen (--out DIR | --tib2 FILE [--seg-actions N]) --np N
//!         --pattern ring|stencil|allreduce|lu
//!         [--iters K] [--flops F] [--bytes B] [--class S|W|A|B|C|D]
//! ```
//!
//! Writes a per-process trace set (`trace_rank_N.txt` files) into
//! `--out DIR` for quick experiments with `tit-replay`, `tit-lint`,
//! and `tit-analyze` when no acquired trace is at hand. Patterns:
//!
//! - `ring` — the paper's Figure-1 shape: rank 0 computes, sends to
//!   rank 1 and receives from the last rank; every other rank
//!   receives, computes, forwards. Deadlock-free for any message size.
//! - `stencil` — 1-D periodic halo exchange: each iteration posts
//!   `Irecv` from both neighbours, sends both halos, waits twice, then
//!   computes. Deadlock-free because the receives are pre-posted.
//! - `allreduce` — compute + `allReduce` per iteration (collective-
//!   dominated traces for the pattern classifier);
//! - `lu` — the NPB LU skeleton for `--class` (default `S`; power-of-
//!   two `--np`), `--iters` overriding the class iteration count. This
//!   is how the `tit-analyze` acceptance measurement regenerates its
//!   LU.B trace sets (docs/ANALYSIS.md).
//!
//! Defaults: `--iters 1`, `--flops 1e6` per compute, `--bytes 1e4` per
//! message. Exit codes: `0` success, `1` I/O failure, `2` usage error.
//!
//! # Streaming store output (`--tib2`)
//!
//! `--tib2 FILE` writes a checksummed `TIB2` segmented store
//! (docs/FORMATS.md) instead of (or in addition to) the text trace
//! set. The `lu` pattern **streams**: each rank's `LuStream` feeds the
//! segmented writer op by op, so peak memory is O(one segment) however
//! large the class — a class-D store can exceed memory by orders of
//! magnitude and still generate in constant space. The store replays
//! with `tit-replay --store FILE [--mem-budget BYTES]`, giving an
//! arbitrarily large differential-test substrate with no trace-file
//! intermediary. `--seg-actions N` sets the segment size (default
//! 4096).

use std::io::BufWriter;
use std::path::{Path, PathBuf};
use tit_cli::{or_exit, Args};
use tit_core::tib2::Tib2Summary;
use tit_core::{Action, AtomicFile, CompactTrace, TiTrace, Tib2Writer};

const USAGE: &str = "tit-gen (--out DIR | --tib2 FILE [--seg-actions N]) --np N --pattern ring|stencil|allreduce|lu [--iters K] [--flops F] [--bytes B] [--class S|W|A|B|C|D]";

fn ring(np: usize, iters: usize, flops: f64, bytes: f64) -> TiTrace {
    let mut t = TiTrace::new(np);
    for _ in 0..iters {
        for rank in 0..np {
            let next = (rank + 1) % np;
            let prev = (rank + np - 1) % np;
            if rank == 0 {
                t.push(rank, Action::Compute { flops });
                t.push(rank, Action::Send { dst: next, bytes });
                t.push(rank, Action::Recv { src: prev, bytes: None });
            } else {
                t.push(rank, Action::Recv { src: prev, bytes: None });
                t.push(rank, Action::Compute { flops });
                t.push(rank, Action::Send { dst: next, bytes });
            }
        }
    }
    t
}

fn stencil(np: usize, iters: usize, flops: f64, bytes: f64) -> TiTrace {
    let mut t = TiTrace::new(np);
    for _ in 0..iters {
        for rank in 0..np {
            let left = (rank + np - 1) % np;
            let right = (rank + 1) % np;
            t.push(rank, Action::Irecv { src: left, bytes: None });
            t.push(rank, Action::Irecv { src: right, bytes: None });
            t.push(rank, Action::Send { dst: right, bytes });
            t.push(rank, Action::Send { dst: left, bytes });
            t.push(rank, Action::Wait);
            t.push(rank, Action::Wait);
            t.push(rank, Action::Compute { flops });
        }
    }
    t
}

fn allreduce(np: usize, iters: usize, flops: f64, bytes: f64) -> TiTrace {
    let mut t = TiTrace::new(np);
    for _ in 0..iters {
        for rank in 0..np {
            t.push(rank, Action::Compute { flops });
            t.push(rank, Action::AllReduce { vcomm: bytes, vcomp: bytes });
        }
    }
    t
}

/// Streams one rank program after another straight into a segmented
/// writer — nothing is ever materialized, so a class-D LU store
/// generates in O(one segment) memory.
fn stream_tib2(
    dest: &Path,
    np: usize,
    seg_actions: usize,
    program: &dyn Fn(usize, usize) -> Box<dyn mpi_emul::ops::OpStream>,
) -> std::io::Result<Tib2Summary> {
    let af = AtomicFile::create(dest)?;
    let mut w = Tib2Writer::new(BufWriter::with_capacity(1 << 16, af), seg_actions)?;
    for rank in 0..np {
        w.begin_rank()?;
        let mut s = program(rank, np);
        while let Some(op) = s.next_op() {
            let mut a = npb::op_to_action(&op);
            if let Action::CommSize { nproc } = &mut a {
                *nproc = np;
            }
            w.push(&a)?;
        }
    }
    let (out, summary) = w.finish()?;
    out.into_inner().map_err(|e| std::io::Error::other(e.to_string()))?.commit()?;
    Ok(summary)
}

fn main() {
    let args = Args::from_env(USAGE);
    let out = args.get("out").map(PathBuf::from);
    let tib2 = args.get("tib2").map(PathBuf::from);
    if out.is_none() && tib2.is_none() {
        args.usage_error("missing --out or --tib2");
    }
    let seg_actions: usize = args.get_or("seg-actions", tit_core::tib2::DEFAULT_SEG_ACTIONS);
    if seg_actions == 0 {
        args.usage_error("--seg-actions wants a positive action count");
    }
    let np: usize = args.get_or("np", 0);
    if np == 0 {
        args.usage_error("missing --np");
    }
    let iters: usize = args.get_or("iters", 1);
    let flops: f64 = args.get_or("flops", 1e6);
    let bytes: f64 = args.get_or("bytes", 1e4);
    if !(flops.is_finite() && flops >= 0.0 && bytes.is_finite() && bytes >= 0.0) {
        args.usage_error("--flops and --bytes want non-negative finite numbers");
    }

    let pattern = args.require("pattern");
    let lu_cfg = if pattern == "lu" {
        if np < 2 || !np.is_power_of_two() {
            args.usage_error("--pattern lu needs a power-of-two --np >= 2");
        }
        let class: npb::Class = match args.get_or("class", "S".to_string()).parse() {
            Ok(c) => c,
            Err(e) => args.usage_error(&e),
        };
        let mut cfg = npb::LuConfig::new(class, np);
        if args.get("iters").is_some() {
            cfg = cfg.with_itmax(iters);
        }
        Some(cfg)
    } else {
        None
    };

    // LU streams straight into the store; everything else (and any
    // text output) materializes first — those patterns are small.
    let trace = if out.is_some() || (tib2.is_some() && lu_cfg.is_none()) {
        let mut trace = match pattern.as_str() {
            "ring" => {
                if np < 2 {
                    args.usage_error("--pattern ring needs --np >= 2");
                }
                ring(np, iters, flops, bytes)
            }
            "stencil" => {
                if np < 3 {
                    args.usage_error("--pattern stencil needs --np >= 3");
                }
                stencil(np, iters, flops, bytes)
            }
            "allreduce" => allreduce(np, iters, flops, bytes),
            "lu" => {
                // panics: lu_cfg was just built for the lu pattern
                npb::program_trace(&lu_cfg.unwrap().program(), np)
            }
            other => args.usage_error(&format!("unknown pattern {other:?}")),
        };
        // Collectives (and tit-replay/tit-analyze) need the
        // communicator size declared before anything else; the LU
        // stream declares its own.
        if pattern != "lu" {
            for rank in (0..np).rev() {
                trace.actions[rank].insert(0, Action::CommSize { nproc: np });
            }
        }
        Some(trace)
    } else {
        if !["ring", "stencil", "allreduce", "lu"].contains(&pattern.as_str()) {
            args.usage_error(&format!("unknown pattern {pattern:?}"));
        }
        if pattern == "ring" && np < 2 {
            args.usage_error("--pattern ring needs --np >= 2");
        }
        if pattern == "stencil" && np < 3 {
            args.usage_error("--pattern stencil needs --np >= 3");
        }
        None
    };

    if let Some(dest) = &tib2 {
        let result = match (&lu_cfg, &trace) {
            // The streaming path: LuStream → Tib2Writer, op by op.
            (Some(cfg), _) => stream_tib2(dest, np, seg_actions, &cfg.program()),
            (None, Some(t)) => {
                let ct = or_exit(CompactTrace::from_trace(t), "cannot pack trace");
                tit_core::tib2::write_compact_atomic(dest, &ct, seg_actions)
            }
            // panics: non-lu with --tib2 always materializes above
            (None, None) => unreachable!("non-lu --tib2 without a trace"),
        };
        let s = or_exit(result, format_args!("cannot write store {}", dest.display()));
        println!(
            "tib2 store:       {} ({} ranks, {} actions, {} segments, {} bytes, fingerprint {:#018x})",
            dest.display(),
            s.ranks,
            s.actions,
            s.segments,
            s.bytes,
            s.fingerprint
        );
    }

    if let Some(out) = &out {
        // panics: --out always materializes the trace above
        let trace = trace.as_ref().unwrap();
        or_exit(std::fs::create_dir_all(out), format_args!("cannot create {}", out.display()));
        let files = or_exit(trace.save_per_process(out), "cannot write trace set");
        println!(
            "wrote {} ({} files, {} actions, pattern {pattern})",
            out.display(),
            files.len(),
            trace.num_actions()
        );
    }
}
