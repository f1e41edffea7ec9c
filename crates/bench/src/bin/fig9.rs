fn main() {
    let flags = tit_bench::Flags::from_env(&["--scale", "--max-ranks"]);
    let scale = flags.scale.unwrap_or(0.1);
    let max_ranks = flags.max_ranks.unwrap_or(1024);
    let (report, points) = tit_bench::experiments::fig9::sweep(scale, max_ranks);
    print!("{report}");
    // The observer-overhead guard rides along: same workload family,
    // and its ratios belong in the same BENCH_replay.json record.
    let overhead = tit_bench::experiments::observer::measure(npb::Class::B, 16, scale, 3);
    println!();
    print!("{}", tit_bench::experiments::observer::report(&overhead));
    // Machine-readable performance record alongside the text report.
    let records: Vec<tit_bench::PerfRecord> = points
        .iter()
        .map(|p| tit_bench::PerfRecord {
            label: p.label.clone(),
            actions: p.actions,
            simulated_time: p.simulated,
            wall_time: p.wall,
        })
        .collect();
    let path = std::path::Path::new("BENCH_replay.json");
    let written = tit_bench::write_replay_bench_json(path, "replay", &records, Some(&overhead));
    tit_bench::record_written(path, written);
}
