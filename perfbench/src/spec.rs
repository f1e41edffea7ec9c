//! What the benchmark runs and reports: the four workloads, their
//! sizes and anchors, and the metric vocabulary (names, units, and the
//! end-to-end metric each per-layer metric should move).

use npb::Class;

/// One named workload. Each runs in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LU.B on 64 ranks read from per-rank text files with parallel
    /// ingest, replayed with the titobs `Profile` observer attached.
    LuText,
    /// LU.B on 256 ranks streamed to a TIB2 store, replayed under a
    /// budget that holds the whole decoded store.
    LuWideStore,
    /// The disjoint-pairs family on 1024 ranks in a TIB2 store, replayed
    /// under a budget smaller than the decoded store.
    PairsStore,
    /// An in-process `tit-serve` daemon driven by closed-loop clients
    /// with a seeded what-if request mix.
    ServeWhatif,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LuText,
        Workload::LuWideStore,
        Workload::PairsStore,
        Workload::ServeWhatif,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LuText => "lu-text",
            Workload::LuWideStore => "lu-wide-store",
            Workload::PairsStore => "pairs-store",
            Workload::ServeWhatif => "serve-whatif",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is the benchmark, `Tiny` the smoke-test size that
/// runs the same code path in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// The trace a workload replays (or serves).
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// NPB LU, generated by the `npb` crate (the `tit-gen` machinery).
    Lu {
        class: Class,
        ranks: usize,
        itmax: usize,
    },
    /// `tit_bench::pairs_trace(ranks, iters)`.
    Pairs { ranks: usize, iters: usize },
}

impl Source {
    pub fn ranks(self) -> usize {
        match self {
            Source::Lu { ranks, .. } | Source::Pairs { ranks, .. } => ranks,
        }
    }

    pub fn describe(self) -> String {
        match self {
            Source::Lu {
                class,
                ranks,
                itmax,
            } => {
                format!("LU.{} x {ranks}, itmax {itmax}", class.name())
            }
            Source::Pairs { ranks, iters } => format!("PAIRS x {ranks}, {iters} iterations"),
        }
    }
}

/// Everything that fixes a workload's inputs at one size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub source: Source,
    /// TIB2 segment length in actions (store workloads).
    pub seg_actions: usize,
    /// Segment budget in bytes (store workloads).
    pub budget_bytes: u64,
    /// Sweeps over every request variant per measured batch
    /// (serve-whatif).
    pub sweeps: usize,
    /// The bit-exact simulated time every replay must return (replay
    /// workloads; serve-whatif checks against in-process replays).
    pub anchor: Option<f64>,
}

/// The workload parameters at `size`.
///
/// Full-size anchors cross-check against `BENCH_replay.json` where the
/// length matches: `LU.B x 64` at itmax 25 (the fig9 scale-0.1 row) and
/// `PAIRS x 1024` at 390 iterations (`pairs_iters(1024, 0.1)`) carry the
/// same simulated times there. LU.B x 256 is shorter here than the fig9
/// row (itmax 1, not 6), so its anchor is this benchmark's own.
pub fn params(w: Workload, size: Size) -> Params {
    let none = Params {
        source: Source::Pairs { ranks: 2, iters: 1 },
        seg_actions: 0,
        budget_bytes: 0,
        sweeps: 0,
        anchor: None,
    };
    match (w, size) {
        (Workload::LuText, Size::Full) => Params {
            source: Source::Lu {
                class: Class::B,
                ranks: 64,
                itmax: 25,
            },
            anchor: Some(1.6555738538257592),
            ..none
        },
        (Workload::LuText, Size::Tiny) => Params {
            source: Source::Lu {
                class: Class::S,
                ranks: 4,
                itmax: 2,
            },
            anchor: Some(0.0045041430805860825),
            ..none
        },
        (Workload::LuWideStore, Size::Full) => Params {
            source: Source::Lu {
                class: Class::B,
                ranks: 256,
                itmax: 1,
            },
            seg_actions: 4096,
            budget_bytes: 1 << 30,
            anchor: Some(0.036007408791176254),
            ..none
        },
        (Workload::LuWideStore, Size::Tiny) => Params {
            source: Source::Lu {
                class: Class::S,
                ranks: 16,
                itmax: 2,
            },
            seg_actions: 256,
            budget_bytes: 1 << 30,
            anchor: Some(0.0033230320202860004),
            ..none
        },
        (Workload::PairsStore, Size::Full) => Params {
            source: Source::Pairs {
                ranks: 1024,
                iters: 390,
            },
            seg_actions: 256,
            budget_bytes: 8 << 20,
            anchor: Some(1.1746779599999826),
            ..none
        },
        (Workload::PairsStore, Size::Tiny) => Params {
            source: Source::Pairs {
                ranks: 16,
                iters: 20,
            },
            seg_actions: 16,
            budget_bytes: 8 << 10,
            anchor: Some(0.060453570598290575),
            ..none
        },
        (Workload::ServeWhatif, Size::Full) => Params {
            source: Source::Lu {
                class: Class::B,
                ranks: 8,
                itmax: 4,
            },
            sweeps: 10,
            ..none
        },
        (Workload::ServeWhatif, Size::Tiny) => Params {
            source: Source::Lu {
                class: Class::S,
                ranks: 4,
                itmax: 2,
            },
            sweeps: 2,
            ..none
        },
    }
}

/// An end-to-end metric: what a user of `tit-replay` or `tit-serve` sees.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// A per-layer metric from the traced run, with the end-to-end metric
/// and workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    Metric { name: "setup_s", unit: "s", better: "lower" },
    Metric { name: "run_s", unit: "s", better: "lower" },
    Metric { name: "actions_per_s", unit: "actions/s", better: "higher" },
    Metric { name: "peak_rss_mb", unit: "MiB", better: "lower" },
    Metric { name: "req_per_s", unit: "req/s", better: "higher" },
    Metric { name: "req_p50_ms", unit: "ms", better: "lower" },
    Metric { name: "req_p95_ms", unit: "ms", better: "lower" },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    layer("core.text_load_s", "s", "lower", "setup_s", "lu-text"),
    layer("core.text_mb_per_s", "MB/s", "higher", "setup_s", "lu-text"),
    layer("core.store_open_s", "s", "lower", "setup_s", "lu-wide-store, pairs-store"),
    layer("core.segment_decode_s", "s", "lower", "run_s", "pairs-store"),
    layer("core.segment_faults", "count", "lower", "run_s, peak_rss_mb", "pairs-store"),
    layer("core.segment_evictions", "count", "lower", "run_s, peak_rss_mb", "pairs-store"),
    layer("core.segment_peak_mb", "MiB", "lower", "peak_rss_mb", "pairs-store"),
    layer("platform.build_s", "s", "lower", "setup_s", "pairs-store, lu-wide-store"),
    layer("replay.engine_run_s", "s", "lower", "run_s", "every replay workload"),
    layer("replay.engine_build_s", "s", "lower", "run_s", "pairs-store"),
    layer("simkern.actor_steps", "count", "lower", "run_s", "pairs-store"),
    layer("simkern.heap_ops_per_action", "ops/action", "lower", "run_s", "pairs-store"),
    layer("simkern.stale_pops", "count", "lower", "run_s", "pairs-store"),
    layer("simkern.lazy_rekeys", "count", "lower", "run_s", "pairs-store"),
    layer("simkern.solves", "count", "lower", "run_s", "lu-wide-store"),
    layer("simkern.constraints_per_solve", "count/solve", "lower", "run_s", "lu-wide-store"),
    layer("simkern.vars_per_solve", "count/solve", "lower", "run_s", "lu-wide-store"),
    layer("simkern.rate_changes", "count", "lower", "run_s", "lu-wide-store"),
    layer("simkern.drain_s", "s", "lower", "run_s", "lu-wide-store"),
    layer("simkern.solve_s", "s", "lower", "run_s", "lu-wide-store"),
    layer("simkern.events_s", "s", "lower", "run_s", "lu-wide-store"),
    layer("simkern.completions_s", "s", "lower", "run_s", "lu-wide-store"),
    layer("telemetry.observer_overhead", "ratio", "lower", "run_s", "lu-text"),
    layer("telemetry.emit_s", "s", "lower", "run_s", "lu-text"),
    layer("serve.queue_ms_p50", "ms", "lower", "req_p50_ms", "serve-whatif"),
    layer("serve.queue_ms_p95", "ms", "lower", "req_p95_ms", "serve-whatif"),
    layer("serve.load_ms_p50", "ms", "lower", "req_p50_ms", "serve-whatif"),
    layer("serve.load_ms_p95", "ms", "lower", "req_p95_ms", "serve-whatif"),
    layer("serve.replay_ms_p50", "ms", "lower", "req_p50_ms", "serve-whatif"),
    layer("serve.replay_ms_p95", "ms", "lower", "req_p95_ms", "serve-whatif"),
    layer("serve.respond_ms_p50", "ms", "lower", "req_p50_ms", "serve-whatif"),
    layer("serve.respond_ms_p95", "ms", "lower", "req_p95_ms", "serve-whatif"),
    layer("serve.unaccounted_ms_p50", "ms", "lower", "req_p50_ms", "serve-whatif"),
    layer("serve.preemptions", "count", "lower", "req_p95_ms", "serve-whatif"),
    layer("serve.cache_hits", "count", "higher", "req_p95_ms", "serve-whatif"),
    layer("serve.cache_misses", "count", "lower", "req_p95_ms", "serve-whatif"),
    layer("bench.trace_overhead", "ratio", "lower", "run_s", "every workload"),
    layer("bench.unattributed_frac", "fraction", "lower", "run_s", "every workload"),
];
