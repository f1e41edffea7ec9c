//! Regenerates the paper's table2 exhibit. `--scale S` rescales itmax.
fn main() {
    let scale = tit_bench::Flags::from_env(&["--scale"]).scale.unwrap_or(0.1);
    print!("{}", tit_bench::experiments::table2::run(scale));
}
