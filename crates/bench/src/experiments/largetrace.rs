//! Section 6.5: acquiring a large trace — LU class D on 1024 processes,
//! folded ×8 onto 128 cores (about a third of bordereau's resources).
//!
//! Paper numbers (full itmax = 300): acquisition (incl. extraction and
//! gathering) under 25 minutes; time-independent trace 32.5 GiB, 7.8×
//! smaller than the 252.5 GiB TAU trace; 1.2 GiB once gzip-compressed.
//!
//! We run the identical pipeline at a reduced iteration count and
//! extrapolate the (exactly itmax-linear) sizes; the compressed size
//! uses this repository's LZ77 codec in place of gzip (see DESIGN.md).

use mpi_emul::acquisition::AcquisitionMode;
use mpi_emul::runtime::EmulConfig;
use npb::Class;
use tit_extract::pipeline::{run_pipeline, ExtractCostModel};

/// Runs the class-D acquisition at `scale` (default far below 1; the
/// full run writes hundreds of GiB).
pub fn run(scale: f64) -> String {
    let nproc = 1024;
    let mode = AcquisitionMode::Folding(8); // 128 nodes, 8 ranks each
    let class = Class::D;
    let itmax = crate::scaled_itmax(class, scale);
    let extra = crate::extrapolation(class, scale);
    let lu = crate::lu_instance(class, nproc, scale);
    let dir = crate::scratch_dir("largetrace");

    let mut out = String::new();
    out.push_str(&format!(
        "Section 6.5 — large trace: LU class D, 1024 processes, {} ({} nodes), itmax {itmax} (scale {scale})\n\n",
        mode.label(),
        mode.nodes_needed(nproc),
    ));

    let wall0 = std::time::Instant::now();
    let res = run_pipeline(
        &lu.program(),
        nproc,
        mode,
        &EmulConfig::default(),
        &ExtractCostModel::default(),
        &dir,
        &titobs::Metrics::new(),
        0,
    )
    // panics: experiment inputs are generated, so failure is a bench bug
    .expect("pipeline failed");
    let wall = wall0.elapsed().as_secs_f64();

    let tau = res.acquisition.tau_bytes as f64;
    let ti = res.extract.ti_bytes as f64;

    // Compress the gathered bundle with the in-tree LZ77 codec.
    // panics: experiment inputs are generated, so failure is a bench bug
    let bundle_bytes = std::fs::read(&res.bundle_path).expect("read bundle");
    let c0 = std::time::Instant::now();
    let compressed = tit_core::compress::compress(&bundle_bytes);
    let compress_wall = c0.elapsed().as_secs_f64();
    // Verify integrity before reporting.
    assert_eq!(
        // panics: experiment inputs are generated, so failure is a bench bug
        tit_core::compress::decompress(&compressed).expect("roundtrip").len(),
        bundle_bytes.len()
    );
    let comp = compressed.len() as f64;

    let gib = |b: f64| b / (1024.0 * 1024.0 * 1024.0);
    out.push_str(&format!(
        "acquisition time (simulated, incl. extraction+gathering): {:.0} s ({:.1} min); x itmax: {:.1} min (paper: < 25 min)\n",
        res.costs.total(),
        res.costs.total() / 60.0,
        res.costs.total() * extra / 60.0,
    ));
    out.push_str(&format!(
        "  application {:.0} s | tracing {:.0} s | extraction {:.0} s | gathering {:.1} s\n",
        res.costs.application,
        res.costs.tracing_overhead,
        res.costs.extraction,
        res.costs.gathering
    ));
    out.push_str(&format!(
        "TAU trace:   {:.3} GiB measured; x itmax {:.1} GiB (paper: 252.5 GiB)\n",
        gib(tau),
        gib(tau * extra)
    ));
    out.push_str(&format!(
        "TI trace:    {:.3} GiB measured; x itmax {:.1} GiB (paper: 32.5 GiB)\n",
        gib(ti),
        gib(ti * extra)
    ));
    out.push_str(&format!(
        "TAU/TI size ratio: {:.2} (paper: 7.8)\n",
        tau / ti
    ));
    out.push_str(&format!(
        "compressed:  {:.4} GiB measured ({:.1}x, {:.0} s); x itmax {:.2} GiB (paper gzip: 1.2 GiB, 27x)\n",
        gib(comp),
        ti / comp,
        compress_wall,
        gib(comp * extra)
    ));
    // The paper's stated future work, a binary trace format: the TIB2
    // store that `tit-extract --tib2` writes and `tit-replay --store`
    // reads.
    let store = dir.join("ti.tib2");
    let seg = tit_core::tib2::DEFAULT_SEG_ACTIONS;
    let tib2 = tit_core::tib2::convert_dir_atomic(&res.ti_dir, nproc, &store, seg, 0)
        // panics: experiment inputs are generated, so failure is a bench bug
        .expect("TIB2 convert");
    let tib2 = tib2.bytes as f64;
    out.push_str(&format!(
        "TIB2 store:  {:.3} GiB measured ({:.2}x the text); x itmax {:.1} GiB (the binary format tit-replay --store reads)\n",
        gib(tib2),
        tib2 / ti,
        gib(tib2 * extra)
    ));
    out.push_str(&format!(
        "pipeline wall-clock on this machine: {wall:.0} s\n"
    ));
    let _ = std::fs::remove_dir_all(&dir);
    out
}
