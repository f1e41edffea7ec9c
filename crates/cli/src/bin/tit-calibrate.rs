//! Calibrate the simulation framework (Section 5): application flop
//! rate, link latency from ping-pong, and the piece-wise-linear MPI
//! model fit. Prints a ready-to-use platform-file snippet. The
//! calibration instance is LU on `--np` ranks (default 4, a power of
//! two) over `--runs` runs (default 5).

use mpi_emul::runtime::EmulConfig;
use npb::{Class, LuConfig};
use tit_calibrate::floprate::calibrate_flop_rate;
use tit_calibrate::piecewise::fit_piecewise;
use tit_calibrate::pingpong::{default_sizes, derive_link_latency, pingpong_samples};
use tit_cli::{or_exit, Args};
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;

const USAGE: &str = "tit-calibrate [--np N] [--class S..E] [--runs N] [--nodes N]";

fn main() {
    let args = Args::from_env(USAGE);
    let np: usize = args.get_or("np", 4);
    if !np.is_power_of_two() {
        args.usage_error(&format!("--np: the LU calibration instance needs a power of two, got {np}"));
    }
    let class: Class = args.get_or("class", Class::S);
    let runs: usize = args.get_or("runs", 5);
    if runs == 0 {
        args.usage_error("--runs: wants at least 1 run, got 0");
    }
    let nodes: usize = args.get_or("nodes", np);
    let cfg = EmulConfig::default();
    let desc = PlatformDesc::single(presets::bordereau_one_core(nodes.max(2)));

    // 1. Flop rate from a small instrumented instance, five runs.
    let lu = LuConfig::new(class, np).with_itmax(2);
    let cal = calibrate_flop_rate(&lu.program(), np, &desc, &cfg, runs);
    let cal = or_exit(cal, "flop-rate calibration failed");
    println!("flop rate per run: {:?}", cal.per_run.iter().map(|r| format!("{r:.4e}")).collect::<Vec<_>>());
    println!("calibrated power:  {:.4e} flop/s", cal.rate);

    // 2. Link latency from the 1-byte ping-pong / 6.
    let sizes = default_sizes();
    let samples = or_exit(pingpong_samples(&desc, &cfg, &sizes, 3), "ping-pong failed");
    let lat = derive_link_latency(&samples, 3);
    println!("link latency:      {lat:.4e} s (1-byte ping-pong / 6)");

    // 3. Piece-wise-linear model fit.
    let base_lat = 3.0 * lat;
    let base_bw = desc.clusters[0].bw;
    let fit = fit_piecewise(&samples, base_lat, base_bw);
    println!("piecewise boundaries: {:.0} / {:.0} bytes", fit.boundaries.0, fit.boundaries.1);
    for (i, s) in fit.model.segments().iter().enumerate() {
        println!(
            "  segment {}: max {:>12} lat_factor {:.3} bw_factor {:.3}",
            i + 1,
            if s.max_size.is_finite() { format!("{:.0}", s.max_size) } else { "inf".into() },
            s.lat_factor,
            s.bw_factor
        );
    }

    // Platform snippet with the calibrated power.
    let mut snippet = presets::bordereau_one_core(nodes.max(2));
    snippet.power = cal.rate;
    println!("\n{}", PlatformDesc::single(snippet).to_xml_string());
}
