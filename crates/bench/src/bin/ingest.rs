fn main() {
    let scale = tit_bench::Flags::from_env(&["--scale"]).scale.unwrap_or(0.25);
    let (report, records) = tit_bench::experiments::ingest::sweep(scale);
    print!("{report}");
    let path = std::path::Path::new("BENCH_ingest.json");
    tit_bench::record_written(path, tit_bench::write_ingest_json(path, "ingest", &records));
}
