//! The full acquisition pipeline with per-step cost accounting.
//!
//! Figure 2 of the paper shows the four-step chain — instrumentation,
//! execution, extraction, gathering — and Figure 7 measures how the
//! acquisition time splits between *application*, *tracing overhead*,
//! *extraction* and *gathering*. This module runs the whole chain
//! (emulated execution, real extraction, real bundling) and reports the
//! modelled host-platform time of each step:
//!
//! * **application** — the uninstrumented emulated run;
//! * **tracing overhead** — instrumented minus uninstrumented run time;
//! * **extraction** — per-record/per-action CPU costs of `tau2simgrid`,
//!   parallel over the nodes that hold the trace files (so it shrinks as
//!   processes are added, like the paper's Figure 7);
//! * **gathering** — the K-nomial tree schedule of [`crate::gather`]
//!   (grows slowly with the process count; always the smallest slice).

use crate::error::{PipelineError, RetryPolicy};
use crate::gather::{bundle_with_retry_metered, gather_plan, GatherPlan};
use crate::tau2ti::{tau2ti, ExtractStats};
use mpi_emul::acquisition::{acquire, run_uninstrumented, AcquisitionMode, AcquisitionResult};
use mpi_emul::ops::OpStream;
use mpi_emul::runtime::EmulConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// CPU cost model for the extraction step.
#[derive(Debug, Clone, Copy)]
pub struct ExtractCostModel {
    /// Seconds per TAU record read through the TFR callbacks.
    pub per_record: f64,
    /// Seconds per time-independent action formatted and written.
    pub per_action: f64,
    /// K-nomial arity of the gathering tree.
    pub arity: usize,
    /// Gathering link bandwidth, bytes/s.
    pub gather_bw: f64,
    /// Gathering per-transfer latency, seconds.
    pub gather_lat: f64,
}

impl Default for ExtractCostModel {
    fn default() -> Self {
        ExtractCostModel {
            per_record: 4.5e-6,
            per_action: 2.5e-6,
            arity: 4,
            gather_bw: 1.25e8,
            gather_lat: 5.0e-5,
        }
    }
}

/// Modelled host-platform seconds of each acquisition step (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineCosts {
    /// The uninstrumented emulated run.
    pub application: f64,
    /// Instrumented minus uninstrumented run time.
    pub tracing_overhead: f64,
    /// Modelled `tau2simgrid` CPU time (slowest node bounds the step).
    pub extraction: f64,
    /// Modelled K-nomial gathering schedule time.
    pub gathering: f64,
}

impl PipelineCosts {
    /// Sum of all four steps.
    pub fn total(&self) -> f64 {
        self.application + self.tracing_overhead + self.extraction + self.gathering
    }

    /// Fraction of the total spent strictly producing time-independent
    /// traces (extraction + gathering) — the paper reports at most
    /// 34.91 % (Section 6.2).
    pub fn ti_specific_fraction(&self) -> f64 {
        (self.extraction + self.gathering) / self.total()
    }
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct PipelineResult {
    /// Modelled host-platform seconds of each step.
    pub costs: PipelineCosts,
    /// What the instrumented run produced.
    pub acquisition: AcquisitionResult,
    /// Extraction throughput statistics.
    pub extract: ExtractStats,
    /// The gathering schedule.
    pub gather: GatherPlan,
    /// Directory with the `SG_process<N>.trace` files.
    pub ti_dir: PathBuf,
    /// The gathered single-node bundle.
    pub bundle_path: PathBuf,
}

/// Runs instrumentation → execution → extraction → gathering for
/// `program` under `mode`, with work files below `work_dir`.
///
/// Failures are typed: a rank whose trace never materialises is a
/// [`PipelineError::MissingRank`], bundle corruption is
/// [`PipelineError::Bundle`], and the gathering step retries transient
/// I/O with the default bounded backoff before giving up.
pub fn run_pipeline(
    program: &dyn Fn(usize, usize) -> Box<dyn OpStream>,
    nproc: usize,
    mode: AcquisitionMode,
    cfg: &EmulConfig,
    cost: &ExtractCostModel,
    work_dir: &Path,
) -> Result<PipelineResult, PipelineError> {
    run_pipeline_metered(program, nproc, mode, cfg, cost, work_dir, &titobs::Metrics::new())
}

/// [`run_pipeline`] reporting into a [`titobs::Metrics`] registry:
/// per-stage counters (`acquire.ops`, `acquire.tau_bytes`,
/// `extract.records_read`, `extract.actions_written`,
/// `extract.ti_bytes`, `gather.transfers`, `gather.bytes`,
/// `gather.retries`), modelled-time gauges (`acquire.exec_time`,
/// `gather.time`) and wall-clock timers for the real work
/// (`wall.acquire`, `wall.extract`, `wall.gather`).
pub fn run_pipeline_metered(
    program: &dyn Fn(usize, usize) -> Box<dyn OpStream>,
    nproc: usize,
    mode: AcquisitionMode,
    cfg: &EmulConfig,
    cost: &ExtractCostModel,
    work_dir: &Path,
    metrics: &titobs::Metrics,
) -> Result<PipelineResult, PipelineError> {
    run_pipeline_jobs(program, nproc, mode, cfg, cost, work_dir, metrics, 0)
}

/// [`run_pipeline_metered`] with an explicit worker-thread count for the
/// extraction step (`0` = one per CPU, the metered default; `1` = the
/// serial oracle). Adds the ingest-side counters to the registry:
/// `ingest.files` (per-rank TI trace files written), `ingest.bytes`
/// (their total size) and the `ingest.jobs` gauge.
#[allow(clippy::too_many_arguments)]
pub fn run_pipeline_jobs(
    program: &dyn Fn(usize, usize) -> Box<dyn OpStream>,
    nproc: usize,
    mode: AcquisitionMode,
    cfg: &EmulConfig,
    cost: &ExtractCostModel,
    work_dir: &Path,
    metrics: &titobs::Metrics,
    jobs: usize,
) -> Result<PipelineResult, PipelineError> {
    let tau_dir = work_dir.join("tau");
    let ti_dir = work_dir.join("ti");
    std::fs::create_dir_all(work_dir)?;

    // Steps 1-2: execution of the instrumented application (+ a clean
    // run to isolate the tracing overhead).
    let application = run_uninstrumented(program, nproc, mode, cfg)?;
    let acquisition =
        metrics.time("wall.acquire", || acquire(program, nproc, mode, cfg, &tau_dir))?;
    let tracing_overhead = (acquisition.exec_time - application).max(0.0);
    metrics.incr("acquire.ops", acquisition.ops);
    metrics.incr("acquire.tau_bytes", acquisition.tau_bytes);
    metrics.set_value("acquire.exec_time", acquisition.exec_time);

    // Step 3: extraction (real), with its host-time model.
    let threads = tit_core::ingest::effective_jobs(jobs);
    let extract = metrics.time("wall.extract", || tau2ti(&tau_dir, nproc, &ti_dir, threads))?;
    let extraction = extraction_time(&tau_dir, nproc, mode, cost)?;
    metrics.incr("extract.records_read", extract.records_read);
    metrics.incr("extract.actions_written", extract.actions_written);
    metrics.incr("extract.ti_bytes", extract.ti_bytes);
    metrics.incr("ingest.files", nproc as u64);
    metrics.incr("ingest.bytes", extract.ti_bytes);
    metrics.set_value("ingest.jobs", threads as f64);

    // Step 4: gathering (modelled schedule + real bundle).
    let node_sizes = per_node_ti_sizes(&ti_dir, nproc, mode)?;
    let gather = gather_plan(&node_sizes, cost.arity, cost.gather_bw, cost.gather_lat);
    let files: Vec<PathBuf> = (0..nproc)
        .map(|r| ti_dir.join(tit_core::trace::process_trace_filename(r)))
        .collect();
    let bundle_path = work_dir.join("traces.bundle");
    let gathered_bytes = metrics.time("wall.gather", || {
        bundle_with_retry_metered(&files, &bundle_path, &RetryPolicy::default(), metrics)
    })?;
    metrics.incr("gather.transfers", gather.transfers.len() as u64);
    metrics.incr("gather.bytes", gathered_bytes);
    metrics.set_value("gather.time", gather.time);

    Ok(PipelineResult {
        costs: PipelineCosts {
            application,
            tracing_overhead,
            extraction,
            gathering: gather.time,
        },
        acquisition,
        extract,
        gather,
        ti_dir,
        bundle_path,
    })
}

/// Ranks grouped by the host node that holds their trace files.
fn ranks_per_node(nproc: usize, mode: AcquisitionMode) -> Vec<Vec<usize>> {
    let (_, dep) = mode.scenario(nproc);
    let mut by_host: HashMap<&str, Vec<usize>> = HashMap::new();
    for (rank, e) in dep.entries.iter().enumerate() {
        by_host.entry(e.host.as_str()).or_default().push(rank);
    }
    let mut v: Vec<Vec<usize>> = by_host.into_values().collect();
    v.sort();
    v
}

/// Modelled extraction time: nodes extract their local ranks' traces in
/// parallel; the slowest node bounds the step.
fn extraction_time(
    tau_dir: &Path,
    nproc: usize,
    mode: AcquisitionMode,
    cost: &ExtractCostModel,
) -> Result<f64, PipelineError> {
    let mut per_rank = vec![0.0f64; nproc];
    for (rank, t) in per_rank.iter_mut().enumerate() {
        let path = tau_dir.join(tau_sim::trace_filename(rank));
        let trc = std::fs::metadata(&path)
            .map_err(|e| PipelineError::MissingRank { rank, path, source: e })?
            .len();
        let records = trc / tau_sim::records::RECORD_BYTES as u64;
        // Roughly one action per 8 records (the Figure 3 bracket plus
        // the second PAPI counter).
        let actions = records / 8;
        *t = records as f64 * cost.per_record + actions as f64 * cost.per_action;
    }
    let slowest = ranks_per_node(nproc, mode)
        .iter()
        .map(|ranks| ranks.iter().map(|&r| per_rank[r]).sum::<f64>())
        .fold(0.0, f64::max);
    Ok(slowest)
}

/// Per-node accumulated TI-trace sizes (gathering input).
fn per_node_ti_sizes(
    ti_dir: &Path,
    nproc: usize,
    mode: AcquisitionMode,
) -> Result<Vec<f64>, PipelineError> {
    let nodes = ranks_per_node(nproc, mode);
    let mut sizes = Vec::with_capacity(nodes.len());
    for ranks in &nodes {
        let mut total = 0u64;
        for &r in ranks {
            let path = ti_dir.join(tit_core::trace::process_trace_filename(r));
            total += std::fs::metadata(&path)
                .map_err(|e| PipelineError::MissingRank { rank: r, path, source: e })?
                .len();
        }
        sizes.push(total as f64);
    }
    Ok(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb::ring::RingConfig;
    use npb::{Class, LuConfig};

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("titr-pipe-{tag}-{}", std::process::id()))
    }

    #[test]
    fn pipeline_produces_replayable_traces_and_costs() {
        let dir = tmp("ring");
        let ring = RingConfig { nproc: 4, iters: 8, ..Default::default() };
        let cfg = EmulConfig::default();
        let res = run_pipeline(
            &ring.program(),
            4,
            AcquisitionMode::Regular,
            &cfg,
            &ExtractCostModel::default(),
            &dir,
        )
        .unwrap();
        assert!(res.costs.application > 0.0);
        assert!(res.costs.tracing_overhead > 0.0);
        assert!(res.costs.extraction > 0.0);
        assert!(res.costs.gathering > 0.0);
        assert!(res.bundle_path.exists());
        // The extracted trace replays: no error-severity lint.
        let t = tit_core::TiTrace::load_per_process(&res.ti_dir).unwrap();
        let report = titlint::analyze(&t);
        assert!(!report.has_errors(), "{}", report.render_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metered_pipeline_reports_stage_metrics() {
        let dir = tmp("metered");
        let ring = RingConfig { nproc: 4, iters: 4, ..Default::default() };
        let cfg = EmulConfig::default();
        let metrics = titobs::Metrics::new();
        let res = run_pipeline_metered(
            &ring.program(),
            4,
            AcquisitionMode::Regular,
            &cfg,
            &ExtractCostModel::default(),
            &dir,
            &metrics,
        )
        .unwrap();
        // Counters mirror the result structs exactly.
        assert_eq!(metrics.counter("acquire.ops"), res.acquisition.ops);
        assert_eq!(metrics.counter("acquire.tau_bytes"), res.acquisition.tau_bytes);
        assert_eq!(metrics.counter("extract.records_read"), res.extract.records_read);
        assert_eq!(metrics.counter("extract.actions_written"), res.extract.actions_written);
        assert_eq!(metrics.counter("extract.ti_bytes"), res.extract.ti_bytes);
        assert_eq!(metrics.counter("gather.transfers"), res.gather.transfers.len() as u64);
        assert!(metrics.counter("gather.bytes") > 0);
        assert_eq!(metrics.counter("gather.retries"), 0, "healthy run retries nothing");
        assert_eq!(metrics.value("gather.time"), Some(res.gather.time));
        assert!(metrics.wall("wall.extract") > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decoupling_trace_is_mode_independent() {
        // The headline claim (Section 6.2): whatever the acquisition
        // scenario, the extracted time-independent trace is the same
        // (exactly, with counter jitter disabled).
        let mk = || LuConfig::new(Class::S, 4).with_itmax(2);
        let cfg = EmulConfig { papi_jitter: 0.0, ..Default::default() };
        let mut traces = Vec::new();
        for (i, mode) in [
            AcquisitionMode::Regular,
            AcquisitionMode::Folding(2),
            AcquisitionMode::Scattering(2),
            AcquisitionMode::ScatterFold(2, 2),
        ]
        .into_iter()
        .enumerate()
        {
            let dir = tmp(&format!("mode{i}"));
            let res = run_pipeline(
                &mk().program(),
                4,
                mode,
                &cfg,
                &ExtractCostModel::default(),
                &dir,
            )
            .unwrap();
            traces.push(tit_core::TiTrace::load_per_process(&res.ti_dir).unwrap());
            std::fs::remove_dir_all(&dir).unwrap();
        }
        for t in &traces[1..] {
            assert_eq!(
                t, &traces[0],
                "time-independent traces must not depend on the acquisition mode"
            );
        }
    }

    #[test]
    fn acquisition_shrinks_and_gathering_grows_with_ranks() {
        // Figure 7's two trends: the time to run the application, trace
        // it and extract decreases with the number of processes (the
        // benefit of parallelism), while the gathering step grows with
        // the depth of the reduction tree.
        let cfg = EmulConfig::default();
        let cost = ExtractCostModel::default();
        let mut main_steps = Vec::new();
        let mut gathering = Vec::new();
        for nproc in [4usize, 16] {
            let dir = tmp(&format!("trend{nproc}"));
            let lu = LuConfig::new(Class::W, nproc).with_itmax(2);
            let res = run_pipeline(
                &lu.program(),
                nproc,
                AcquisitionMode::Regular,
                &cfg,
                &cost,
                &dir,
            )
            .unwrap();
            main_steps
                .push(res.costs.application + res.costs.tracing_overhead + res.costs.extraction);
            gathering.push(res.costs.gathering);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(
            main_steps[1] < main_steps[0],
            "app+tracing+extraction benefits from parallelism: {main_steps:?}"
        );
        assert!(gathering[1] > gathering[0], "gathering deepens: {gathering:?}");
    }
}
