//! Workload inputs: generated once per checkout, cached on disk.
//!
//! Generation runs in a child process (`perfbench --prepare`) so the
//! measuring process's peak RSS holds only the workload itself, never
//! the generator's in-memory trace.

use crate::spec::{params, Size, Source, Workload};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::Command;
use tit_core::atomicio::AtomicFile;
use tit_core::tib2::Tib2Writer;
use tit_core::{Action, CompactTrace, ProcessTraceWriter};

/// Scratch root: under the cargo target dir, so it is build output.
pub fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-work")
}

/// Where a workload's inputs live: keyed by everything that shapes
/// them, the generating code included. The key holds a hash of this
/// executable, so a build of other code (another generator or trace
/// writer) never replays files it did not write itself.
pub fn input_dir(w: Workload, size: Size) -> Result<PathBuf, String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("read own executable: {e}"))?;
    let p = params(w, size);
    let key = format!("{:?}/{}", p.source, p.seg_actions);
    let hash = tit_core::checkpoint::fnv1a(key.as_bytes());
    Ok(work_root()
        .join(format!("inputs-{:016x}", tit_core::checkpoint::fnv1a(&exe)))
        .join(format!("{}-{}-{hash:016x}", w.name(), size.name())))
}

/// The per-rank text trace directory inside an input dir.
pub fn trace_dir(dir: &Path) -> PathBuf {
    dir.join("trace")
}

/// The TIB2 store inside an input dir.
pub fn store_path(dir: &Path) -> PathBuf {
    dir.join("store.tib2")
}

fn ready_marker(dir: &Path) -> PathBuf {
    dir.join("READY")
}

/// Returns the workload's input dir, generating it in a child process
/// first if it is missing.
pub fn ensure(w: Workload, size: Size) -> Result<PathBuf, String> {
    let dir = input_dir(w, size)?;
    if ready_marker(&dir).exists() {
        return Ok(dir);
    }
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let status = Command::new(exe)
        .args(["--prepare", w.name(), "--size", size.name()])
        .status()
        .map_err(|e| format!("spawn input generator: {e}"))?;
    if !status.success() || !ready_marker(&dir).exists() {
        return Err(format!(
            "input generation for {} failed ({status})",
            w.name()
        ));
    }
    Ok(dir)
}

/// Generates a workload's inputs (the `--prepare` child).
pub fn prepare(w: Workload, size: Size) -> std::io::Result<()> {
    let dir = input_dir(w, size).map_err(std::io::Error::other)?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let p = params(w, size);
    match (w, p.source) {
        (Workload::LuText | Workload::ServeWhatif, Source::Lu { .. }) => {
            let tdir = trace_dir(&dir);
            std::fs::create_dir_all(&tdir)?;
            for rank in 0..p.source.ranks() {
                let mut out = ProcessTraceWriter::create(&tdir, rank)?;
                for_each_action(p.source, rank, |a| out.write(a))?;
                out.finish()?;
            }
        }
        (Workload::LuWideStore, Source::Lu { .. }) => {
            let af = AtomicFile::create(&store_path(&dir))?;
            let mut out = Tib2Writer::new(BufWriter::with_capacity(1 << 16, af), p.seg_actions)?;
            for rank in 0..p.source.ranks() {
                out.begin_rank()?;
                for_each_action(p.source, rank, |a| out.push(a))?;
            }
            let (buf, _) = out.finish()?;
            buf.into_inner()
                .map_err(|e| std::io::Error::other(e.to_string()))?
                .commit()?;
        }
        (Workload::PairsStore, Source::Pairs { ranks, iters }) => {
            let trace = tit_bench::pairs_trace(ranks, iters);
            let compact = CompactTrace::from_trace(&trace).map_err(std::io::Error::other)?;
            tit_core::tib2::write_compact_atomic(&store_path(&dir), &compact, p.seg_actions)?;
        }
        _ => unreachable!("workload {} has no generator for {:?}", w.name(), p.source),
    }
    tit_core::write_atomic(&ready_marker(&dir), b"ok\n")
}

/// Streams one LU rank's actions (the `npb::program_trace` mapping,
/// without materialising the whole trace).
fn for_each_action(
    source: Source,
    rank: usize,
    mut f: impl FnMut(&Action) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let Source::Lu {
        class,
        ranks,
        itmax,
    } = source
    else {
        unreachable!("only LU sources stream")
    };
    let program = npb::LuConfig::new(class, ranks).with_itmax(itmax).program();
    let mut ops = program(rank, ranks);
    while let Some(op) = ops.next_op() {
        let mut a = npb::op_to_action(&op);
        if let Action::CommSize { nproc } = &mut a {
            *nproc = ranks;
        }
        f(&a)?;
    }
    Ok(())
}
