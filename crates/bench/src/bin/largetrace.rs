//! Regenerates the paper's largetrace exhibit. `--scale S` rescales itmax.
fn main() {
    let scale = tit_bench::Flags::from_env(&["--scale"]).scale.unwrap_or(0.00667);
    print!("{}", tit_bench::experiments::largetrace::run(scale));
}
