//! Synthetic time-independent trace generator.
//!
//! ```text
//! tit-gen (--out DIR | --tib2 FILE [--seg-actions N]) --np N
//!         --pattern ring|stencil|allreduce|lu
//!         [--iters K] [--flops F] [--bytes B] [--class S|W|A|B|C|D]
//! ```
//!
//! Writes a per-process trace set (`SG_process<N>.trace` files) into
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
//! # Streaming output
//!
//! Every pattern streams: each rank's actions go, one at a time, to
//! its text file and/or to the store writer, and are never
//! materialized, so peak memory is O(one segment) however large the
//! class — a class-D store can exceed memory by orders of magnitude
//! and still generate in constant space. `--tib2 FILE` writes a
//! checksummed `TIB2` segmented store (docs/FORMATS.md) instead of (or
//! in addition to) the text trace set; it replays with `tit-replay
//! --store FILE [--mem-budget BYTES]`, giving an arbitrarily large
//! differential-test substrate with no trace-file intermediary.
//! `--seg-actions N` sets the segment size (default 4096).

use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use tit_cli::Args;
use tit_core::tib2::Tib2Summary;
use tit_core::{Action, AtomicFile, ProcessTraceWriter, Tib2Writer};

const USAGE: &str = "tit-gen (--out DIR | --tib2 FILE [--seg-actions N]) --np N --pattern ring|stencil|allreduce|lu [--iters K] [--flops F] [--bytes B] [--class S|W|A|B|C|D]";

/// What the ranks run: a synthetic pattern's iteration, or the NPB LU
/// skeleton.
enum Program {
    Synthetic(fn(usize, usize, f64, f64) -> Vec<Action>),
    Lu(npb::LuConfig),
}

/// Rank `rank`'s actions in one ring iteration.
fn ring(rank: usize, np: usize, flops: f64, bytes: f64) -> Vec<Action> {
    let compute = Action::Compute { flops };
    let send = Action::Send { dst: (rank + 1) % np, bytes };
    let recv = Action::Recv { src: (rank + np - 1) % np, bytes: None };
    if rank == 0 {
        vec![compute, send, recv]
    } else {
        vec![recv, compute, send]
    }
}

/// Rank `rank`'s actions in one stencil iteration.
fn stencil(rank: usize, np: usize, flops: f64, bytes: f64) -> Vec<Action> {
    let left = (rank + np - 1) % np;
    let right = (rank + 1) % np;
    vec![
        Action::Irecv { src: left, bytes: None },
        Action::Irecv { src: right, bytes: None },
        Action::Send { dst: right, bytes },
        Action::Send { dst: left, bytes },
        Action::Wait,
        Action::Wait,
        Action::Compute { flops },
    ]
}

/// Rank `rank`'s actions in one allreduce iteration.
fn allreduce(_rank: usize, _np: usize, flops: f64, bytes: f64) -> Vec<Action> {
    vec![Action::Compute { flops }, Action::AllReduce { vcomm: bytes, vcomp: bytes }]
}

/// The one-line diagnostic of a failed write to `path`.
fn failed(path: &Path) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("cannot write {}: {e}", path.display())
}

/// Streams every rank's actions (`ranks(rank)`), rank after rank, to
/// its text file under `out` and to a store at `tib2`. The store is
/// committed only once complete. An error is the one-line diagnostic.
fn generate<I: Iterator<Item = Action>>(
    np: usize,
    out: Option<&Path>,
    tib2: Option<&Path>,
    seg_actions: usize,
    ranks: impl Fn(usize) -> I,
) -> Result<(u64, Option<Tib2Summary>), String> {
    let mut store = match tib2 {
        Some(dest) => {
            let af = AtomicFile::create(dest).map_err(failed(dest))?;
            let w = Tib2Writer::new(BufWriter::with_capacity(1 << 16, af), seg_actions);
            Some((dest, w.map_err(failed(dest))?))
        }
        None => None,
    };
    let mut actions = 0;
    for rank in 0..np {
        let mut text = match out {
            Some(dir) => Some((dir, ProcessTraceWriter::create(dir, rank).map_err(failed(dir))?)),
            None => None,
        };
        if let Some((dest, w)) = &mut store {
            w.begin_rank().map_err(failed(dest))?;
        }
        for a in ranks(rank) {
            if let Some((dir, w)) = &mut text {
                w.write(&a).map_err(failed(dir))?;
            }
            if let Some((dest, w)) = &mut store {
                w.push(&a).map_err(failed(dest))?;
            }
            actions += 1;
        }
        if let Some((dir, w)) = text {
            w.finish().map_err(failed(dir))?;
        }
    }
    let Some((dest, w)) = store else { return Ok((actions, None)) };
    let (buf, summary) = w.finish().map_err(failed(dest))?;
    let af = buf.into_inner().map_err(|e| failed(dest)(e.into_error()))?;
    af.commit().map_err(failed(dest))?;
    Ok((actions, Some(summary)))
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
    let program = match pattern.as_str() {
        "ring" if np < 2 => args.usage_error("--pattern ring needs --np >= 2"),
        "ring" => Program::Synthetic(ring),
        "stencil" if np < 3 => args.usage_error("--pattern stencil needs --np >= 3"),
        "stencil" => Program::Synthetic(stencil),
        "allreduce" => Program::Synthetic(allreduce),
        "lu" => {
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
            Program::Lu(cfg)
        }
        other => args.usage_error(&format!("unknown pattern {other:?}")),
    };

    let (dir, store) = (out.as_deref(), tib2.as_deref());
    let written = match program {
        // Collectives (and tit-replay/tit-analyze) need the communicator
        // size declared before anything else; the LU program declares
        // its own.
        Program::Synthetic(iteration) => generate(np, dir, store, seg_actions, |rank| {
            let body = iteration(rank, np, flops, bytes);
            std::iter::once(Action::CommSize { nproc: np })
                .chain(std::iter::repeat_n(body, iters).flatten())
        }),
        Program::Lu(cfg) => {
            let program = cfg.program();
            generate(np, dir, store, seg_actions, |rank| {
                let mut ops = program(rank, np);
                std::iter::from_fn(move || ops.next_op()).map(|op| match npb::op_to_action(&op) {
                    Action::CommSize { .. } => Action::CommSize { nproc: np },
                    a => a,
                })
            })
        }
    };
    let (actions, store) = written.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(1)
    });
    if let (Some(dest), Some(s)) = (&tib2, store) {
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
        println!("wrote {} ({np} files, {actions} actions, pattern {pattern})", out.display());
    }
}
