//! Figure 7: distribution of the acquisition time for LU classes B and
//! C (8–64 processes, regular mode): application, tracing overhead,
//! extraction, gathering.
//!
//! Reproduced trends (Section 6.2):
//! * the application + tracing + extraction total decreases with the
//!   number of processes (parallelism), flattening when the sequential
//!   part gets small;
//! * gathering (4-nomial tree) grows with the process count but stays
//!   the smallest component;
//! * the part strictly related to producing time-independent traces
//!   (extraction + gathering) stays at most around a third of the total
//!   (the paper measures ≤ 34.91 %, worst for class B on 64 processes).

use crate::table::{secs, Table};
use mpi_emul::acquisition::AcquisitionMode;
use mpi_emul::runtime::EmulConfig;
use npb::Class;
use tit_extract::pipeline::{run_pipeline, ExtractCostModel, PipelineCosts};

/// Runs the pipeline for one instance, returning the cost breakdown.
pub fn measure(class: Class, nproc: usize, scale: f64) -> PipelineCosts {
    let dir = crate::scratch_dir(&format!("fig7-{}-{}", class.name(), nproc));
    let lu = crate::lu_instance(class, nproc, scale);
    let cfg = EmulConfig::default();
    let res = run_pipeline(
        &lu.program(),
        nproc,
        AcquisitionMode::Regular,
        &cfg,
        &ExtractCostModel::default(),
        &dir,
        &titobs::Metrics::new(),
        0,
    )
    // panics: experiment inputs are generated, so failure is a bench bug
    .expect("pipeline failed");
    let _ = std::fs::remove_dir_all(&dir);
    res.costs
}

/// Runs the full Figure 7 sweep.
pub fn run(scale: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 7 — acquisition-time distribution, regular mode (scale {scale})\n"
    ));
    out.push_str("(simulated host-platform seconds at the scaled itmax; every component\n");
    out.push_str(" scales linearly with itmax, so the distribution is scale-invariant)\n\n");
    let mut t = Table::new(&[
        "class/procs",
        "application",
        "tracing",
        "extraction",
        "gathering",
        "total",
        "ti-specific %",
    ]);
    let mut worst_fraction: f64 = 0.0;
    for class in [Class::B, Class::C] {
        for nproc in [8usize, 16, 32, 64] {
            let c = measure(class, nproc, scale);
            worst_fraction = worst_fraction.max(c.ti_specific_fraction());
            t.row(&[
                format!("{class} / {nproc}"),
                secs(c.application),
                secs(c.tracing_overhead),
                secs(c.extraction),
                secs(c.gathering),
                secs(c.total()),
                format!("{:.1}", 100.0 * c.ti_specific_fraction()),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nworst extraction+gathering fraction: {:.1}% (paper: at most 34.91%)\n",
        100.0 * worst_fraction
    ));
    out
}
