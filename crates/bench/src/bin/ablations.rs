//! Regenerates the paper's ablations exhibit. `--scale S` rescales itmax.
fn main() {
    let scale = tit_bench::Flags::from_env(&["--scale"]).scale.unwrap_or(0.2);
    print!("{}", tit_bench::experiments::ablations::run(scale));
}
