//! Runs every experiment in sequence (Tables 2-3, Figures 7-9, §6.5,
//! ablations) at their default scales, printing each section; takes no flags.
fn main() {
    tit_bench::Flags::from_env(&[]);
    let t0 = std::time::Instant::now();
    for (name, f, scale) in [
        ("Table 2", tit_bench::experiments::table2::run as fn(f64) -> String, 0.1),
        ("Table 3", tit_bench::experiments::table3::run, 0.1),
        ("Figure 7", tit_bench::experiments::fig7::run, 0.1),
        ("Figure 8", tit_bench::experiments::fig8::run, 0.1),
        ("Figure 9", tit_bench::experiments::fig9::run, 0.1),
        ("Section 6.5", tit_bench::experiments::largetrace::run, 0.00667),
        ("Ablations", tit_bench::experiments::ablations::run, 0.2),
        ("Observer overhead", tit_bench::experiments::observer::run, 0.1),
        ("Kernel profile", tit_bench::experiments::kprof::run, 0.1),
    ] {
        let s0 = std::time::Instant::now();
        println!("================================================================");
        let out = f(scale);
        print!("{out}");
        println!("[{name} took {:.0} s]\n", s0.elapsed().as_secs_f64());
    }
    println!("total: {:.0} s", t0.elapsed().as_secs_f64());
}
