//! Fidelity to the paper's Figure 1: the ring program, its
//! time-independent trace, and its replay.

use titr::npb::ring::RingConfig;
use titr::platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};
use titr::replay::{replay_memory, ReplayConfig};
use titr::simkern::netmodel::NetworkConfig;
use titr::trace::TiTrace;

fn figure_5_platform() -> PlatformDesc {
    PlatformDesc::single(ClusterSpec {
        id: "AS_mycluster".into(),
        prefix: "mycluster-".into(),
        suffix: ".mysite.fr".into(),
        count: 4,
        power: 1.17e9,
        cores: 1,
        bw: 1.25e8,
        lat: 16.67e-6,
        bb_bw: 1.25e9,
        bb_lat: 16.67e-6,
        topology: ClusterTopology::Flat,
    })
}

#[test]
fn trace_text_is_the_paper_figure() {
    let mut buf = Vec::new();
    RingConfig::figure_1().trace().write_merged(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let expected = "\
p0 compute 1000000
p0 send p1 1000000
p0 recv p3
p1 recv p0
p1 compute 1000000
p1 send p2 1000000
p2 recv p1
p2 compute 1000000
p2 send p3 1000000
p3 recv p2
p3 compute 1000000
p3 send p0 1000000
";
    assert_eq!(text, expected);
}

#[test]
fn trace_parses_back_from_the_paper_text() {
    // The exact figure text (with scientific-notation volumes) parses to
    // the same trace our generator builds.
    let paper_text = "\
p0 compute 1e6
p0 send p1 1e6
p0 recv p3
p1 recv p0
p1 compute 1e6
p1 send p2 1e6
p2 recv p1
p2 compute 1e6
p2 send p3 1e6
p3 recv p2
p3 compute 1e6
p3 send p0 1e6
";
    let parsed = TiTrace::from_reader(paper_text.as_bytes()).unwrap();
    assert_eq!(parsed, RingConfig::figure_1().trace());
}

#[test]
fn replay_on_figure_5_platform_has_closed_form() {
    let trace = RingConfig::figure_1().trace();
    let desc = figure_5_platform();
    let platform = desc.build();
    let hosts = titr::platform::Deployment::round_robin(&desc.host_names(), 4)
        .host_ids(&platform);
    // Identity network model for an analytic check.
    let cfg = ReplayConfig { network: NetworkConfig::default(), ..Default::default() };
    let out = replay_memory(&trace, platform, &hosts, &cfg).unwrap();
    let hop = 1e6 / 1.17e9 + 1e6 / 1.25e8 + 3.0 * 16.67e-6;
    let expect = 4.0 * hop;
    assert!(
        (out.simulated_time - expect).abs() / expect < 1e-9,
        "expected {expect}, got {}",
        out.simulated_time
    );
}

#[test]
fn four_iterations_scale_linearly() {
    let t1 = {
        let trace = RingConfig { iters: 1, ..Default::default() }.trace();
        let desc = figure_5_platform();
        let platform = desc.build();
        let hosts = titr::platform::Deployment::round_robin(&desc.host_names(), 4)
            .host_ids(&platform);
        replay_memory(&trace, platform, &hosts, &ReplayConfig::default())
            .unwrap()
            .simulated_time
    };
    let t4 = {
        let trace = RingConfig { iters: 4, ..Default::default() }.trace();
        let desc = figure_5_platform();
        let platform = desc.build();
        let hosts = titr::platform::Deployment::round_robin(&desc.host_names(), 4)
            .host_ids(&platform);
        replay_memory(&trace, platform, &hosts, &ReplayConfig::default())
            .unwrap()
            .simulated_time
    };
    assert!((t4 / t1 - 4.0).abs() < 1e-6, "ring iterations pipeline strictly: {}", t4 / t1);
}
