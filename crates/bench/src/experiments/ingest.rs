//! Parallel-ingestion benchmark: serial vs. concurrent loading of
//! per-rank trace files.
//!
//! The paper's Section 6.5 replay starts by reading 1024 per-rank trace
//! files; before PR 4 every loader was single-threaded. This experiment
//! times `tit_core::ingest::load_exact` at one worker (the serial
//! oracle) against one worker per CPU (scoped worker threads) on the
//! same directories, verifies the results are identical — the
//! benchmark doubles as a differential test — and reports the speedup.
//! On a single-core machine both runs take the serial path and the
//! speedup is 1.0 up to noise; the interesting numbers come from
//! multi-core CI runners.

use crate::perf::IngestRecord;
use crate::table::Table;
use npb::Class;
use std::path::Path;
use tit_core::ingest;

/// Load repetitions per path; the best (minimum) wall time is kept, the
/// usual way to suppress first-touch and page-cache noise.
const REPEATS: usize = 3;

fn dir_bytes(dir: &Path, nproc: usize) -> u64 {
    (0..nproc)
        .map(|r| {
            std::fs::metadata(dir.join(tit_core::trace::process_trace_filename(r)))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .sum()
}

/// Times both loaders on `dir` (best of `REPEATS` runs), checking that
/// they produce the same trace.
pub fn measure_dir(label: &str, dir: &Path, nproc: usize) -> IngestRecord {
    let jobs = ingest::effective_jobs(0);
    let mut serial_wall = f64::INFINITY;
    let mut parallel_wall = f64::INFINITY;
    let mut serial = None;
    let mut parallel = None;
    for _ in 0..REPEATS {
        let t0 = std::time::Instant::now();
        // panics: benchmark inputs are generated, so failure is a bench bug
        let s = ingest::load_exact(dir, nproc, 1).expect("serial load of a generated trace");
        serial_wall = serial_wall.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        // panics: benchmark inputs are generated, so failure is a bench bug
        let p = ingest::load_exact(dir, nproc, 0).expect("parallel load of a generated trace");
        parallel_wall = parallel_wall.min(t0.elapsed().as_secs_f64());
        serial = Some(s);
        parallel = Some(p);
    }
    let (serial, parallel) = (serial, parallel);
    assert_eq!(serial, parallel, "parallel ingestion must be bit-for-bit identical to serial");
    // panics: REPEATS >= 1, so the loop above always filled the slot
    let trace = serial.expect("at least one repeat ran");
    IngestRecord {
        label: label.to_string(),
        files: nproc,
        actions: trace.num_actions() as u64,
        bytes: dir_bytes(dir, nproc),
        serial_wall,
        parallel_wall,
        jobs,
    }
}

/// Generates LU `class`×`nproc` at `scale`, writes the per-rank files
/// to a scratch directory and measures both loaders on it.
pub fn measure_generated(class: Class, nproc: usize, scale: f64) -> IngestRecord {
    let lu = crate::lu_instance(class, nproc, scale);
    let trace = npb::program_trace(&lu.program(), nproc);
    let dir = crate::scratch_dir(&format!("ingest-{}-{nproc}", class.name()));
    // panics: benchmark scratch dirs are writable, so failure is a bench bug
    trace.save_per_process(&dir).expect("write generated trace");
    let rec =
        measure_dir(&format!("LU.{} x {nproc}", class.name()), &dir, nproc);
    let _ = std::fs::remove_dir_all(&dir);
    rec
}

/// Runs the ingestion sweep: the bundled ring4 example when present
/// (CI's smoke input), then generated LU traces at 16 and 64 ranks —
/// the 64-rank point is the acceptance measurement for the ≥2× speedup
/// on multi-core runners.
pub fn sweep(scale: f64) -> (String, Vec<IngestRecord>) {
    let mut records = Vec::new();
    let ring4 = Path::new("examples/traces/ring4");
    if ring4.join("SG_process0.trace").exists() {
        records.push(measure_dir("ring4 example", ring4, 4));
    }
    for nproc in [16usize, 64] {
        records.push(measure_generated(Class::B, nproc, scale));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Ingestion — serial vs parallel per-rank trace loading (scale {scale}, {} worker(s))\n\n",
        ingest::effective_jobs(0)
    ));
    let mut t = Table::new(&[
        "input", "files", "actions", "MiB", "serial (s)", "parallel (s)", "speedup",
    ]);
    for r in &records {
        t.row(&[
            r.label.clone(),
            r.files.to_string(),
            r.actions.to_string(),
            format!("{:.2}", r.bytes as f64 / (1 << 20) as f64),
            format!("{:.4}", r.serial_wall),
            format!("{:.4}", r.parallel_wall),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    out.push_str(&t.render());
    (out, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_checks_equivalence_and_fills_every_field() {
        let dir = std::env::temp_dir().join(format!("titr-bing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = tit_core::TiTrace::new(3);
        for r in 0..3usize {
            for _ in 0..100 {
                t.push(r, tit_core::Action::Compute { flops: 1e6 });
                t.push(r, tit_core::Action::Send { dst: (r + 1) % 3, bytes: 64.0 });
                t.push(r, tit_core::Action::Recv { src: (r + 2) % 3, bytes: None });
            }
        }
        t.save_per_process(&dir).unwrap();
        let rec = measure_dir("tiny", &dir, 3);
        assert_eq!(rec.files, 3);
        assert_eq!(rec.actions, 900);
        assert!(rec.bytes > 0);
        assert!(rec.serial_wall.is_finite() && rec.parallel_wall.is_finite());
        assert!(rec.jobs >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
