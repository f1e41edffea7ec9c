//! Acquire TAU traces by running the emulated, instrumented application
//! under an acquisition mode (Figure 2, steps 1-2).
//!
//! ```text
//! tit-acquire --workload lu --class B --np 8 --mode F-4 --out tau_dir
//!             [--itmax N] [--iters N (ring/stencil)] [--seed S]
//! ```

use mpi_emul::acquisition::acquire;
use mpi_emul::runtime::EmulConfig;
use npb::ring::RingConfig;
use npb::stencil::StencilConfig;
use npb::{Class, LuConfig};
use std::path::PathBuf;
use tit_cli::{or_exit, parse_mode, Args};

const USAGE: &str =
    "tit-acquire --workload lu|ring|stencil --np N --out DIR [--class S..E] [--mode R|F-x|S-2|SF-2,v] [--itmax N] [--iters N] [--seed S]";

fn main() {
    let args = Args::from_env(USAGE);
    let workload = args.get_or("workload", "lu".to_string());
    let np: usize = args.get_or("np", 4);
    let out = PathBuf::from(args.require("out"));
    let mode = parse_mode(&args.get_or("mode", "R".to_string()))
        .unwrap_or_else(|e| args.usage_error(&format!("--mode: {e}")));
    let cfg = EmulConfig { seed: args.get_or("seed", 0xDE5Bu64), ..Default::default() };

    let program: Box<dyn Fn(usize, usize) -> Box<dyn mpi_emul::OpStream>> =
        match workload.as_str() {
            "lu" => {
                if !np.is_power_of_two() {
                    args.usage_error(&format!("--workload lu needs a power-of-two --np, got {np}"));
                }
                let class: Class = args.get_or("class", Class::S);
                let mut lu = LuConfig::new(class, np);
                if args.get("itmax").is_some() {
                    lu = lu.with_itmax(args.get_or("itmax", 0));
                }
                Box::new(lu.program())
            }
            "ring" => {
                if np < 2 {
                    args.usage_error(&format!("--workload ring needs --np >= 2, got {np}"));
                }
                let ring = RingConfig {
                    nproc: np,
                    iters: args.get_or("iters", 4),
                    ..Default::default()
                };
                Box::new(ring.program())
            }
            "stencil" => {
                let px = (np as f64).sqrt() as usize;
                if np == 0 || px * px != np {
                    args.usage_error(&format!(
                        "--workload stencil needs a square --np >= 1, got {np}"
                    ));
                }
                let st = StencilConfig {
                    px,
                    py: px,
                    iters: args.get_or("iters", 50),
                    ..Default::default()
                };
                Box::new(st.program())
            }
            other => args.usage_error(&format!(
                "--workload: unknown value {other:?} (expected lu|ring|stencil)"
            )),
        };

    let r = or_exit(acquire(&program, np, mode, &cfg, &out), "acquisition failed");
    println!("mode:            {}", r.mode.label());
    println!("processes:       {}", r.nproc);
    println!("nodes used:      {}", r.mode.nodes_needed(np));
    println!("exec time (sim): {:.3} s", r.exec_time);
    println!("program ops:     {}", r.ops);
    println!("tau bytes:       {} ({:.2} MiB)", r.tau_bytes, r.tau_bytes as f64 / (1 << 20) as f64);
    println!("tau dir:         {}", r.tau_dir.display());
}
