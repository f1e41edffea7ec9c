//! Regenerates the memory-governance scale exhibit. `--scale S`
//! rescales the store lengths (1.0 ≈ a 1 GiB largest store).
fn main() {
    let scale = tit_bench::Flags::from_env(&["--scale"]).scale.unwrap_or(0.03);
    let (report, records) = tit_bench::experiments::scale::sweep(scale);
    print!("{report}");
    let path = std::path::Path::new("BENCH_scale.json");
    tit_bench::record_written(path, tit_bench::write_scale_json(path, "scale", &records));
}
