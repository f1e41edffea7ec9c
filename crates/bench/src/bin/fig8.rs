//! Regenerates the paper's fig8 exhibit. `--scale S` rescales itmax.
fn main() {
    let scale = tit_bench::Flags::from_env(&["--scale"]).scale.unwrap_or(0.1);
    print!("{}", tit_bench::experiments::fig8::run(scale));
}
