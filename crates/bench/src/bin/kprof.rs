//! Kernel self-profiling sweep (docs/OBSERVABILITY.md). `--scale S`
//! rescales itmax, `--max-ranks N` truncates the sweep (CI smoke runs
//! cap at 128); writes `KPROF_replay.json` next to the text report.
fn main() {
    let flags = tit_bench::Flags::from_env(&["--scale", "--max-ranks"]);
    let scale = flags.scale.unwrap_or(0.1);
    let max_ranks = flags.max_ranks.unwrap_or(1024);
    let (report, points) = tit_bench::experiments::kprof::sweep(scale, max_ranks);
    print!("{report}");
    let json = tit_bench::experiments::kprof::sweep_json(&points);
    let path = std::path::Path::new("KPROF_replay.json");
    tit_bench::record_written(path, std::fs::write(path, json));
}
