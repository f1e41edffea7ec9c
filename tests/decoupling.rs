//! The paper's central claim (Sections 4.2 and 6.2): acquisition is
//! fully decoupled from replay. Whatever the acquisition scenario —
//! regular, folded, scattered, both — the extracted time-independent
//! trace is the same and replays to the same simulated time (variations
//! under 1 %, from hardware-counter accuracy).

use titr::emul::acquisition::{acquire, AcquisitionMode};
use titr::emul::runtime::EmulConfig;
use titr::extract::tau2ti;
use titr::npb::{Class, LuConfig};
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::{Input, Replay, ReplayConfig};
use titr::simkern::resource::HostId;
use titr::trace::TiTrace;

const MODES: [AcquisitionMode; 4] = [
    AcquisitionMode::Regular,
    AcquisitionMode::Folding(4),
    AcquisitionMode::Scattering(2),
    AcquisitionMode::ScatterFold(2, 2),
];

fn acquire_and_extract(
    mode: AcquisitionMode,
    seed: u64,
    jitter: f64,
    tag: &str,
) -> (TiTrace, f64) {
    let nproc = 8;
    let lu = LuConfig::new(Class::S, nproc).with_itmax(4);
    let dir = std::env::temp_dir().join(format!(
        "titr-decoup-{tag}-{}-{}",
        mode.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let tau = dir.join("tau");
    let ti = dir.join("ti");
    let cfg = EmulConfig { seed, papi_jitter: jitter, ..Default::default() };
    acquire(&lu.program(), nproc, mode, &cfg, &tau).unwrap();
    tau2ti(&tau, nproc, &ti, 2).unwrap();
    let trace = titr::trace::load_exact(&ti, nproc, 1).unwrap();
    let platform = PlatformDesc::single(presets::bordereau_one_core(nproc)).build();
    let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
    let t = Replay::new(Input::files(&ti, nproc), platform, &hosts, &ReplayConfig::default())
        .run()
        .unwrap()
        .simulated_time;
    let _ = std::fs::remove_dir_all(&dir);
    (trace, t)
}

#[test]
fn traces_are_identical_without_counter_noise() {
    let (reference, t0) = acquire_and_extract(MODES[0], 1, 0.0, "exact");
    for mode in &MODES[1..] {
        let (trace, t) = acquire_and_extract(*mode, 1, 0.0, "exact");
        assert_eq!(trace, reference, "{}: trace differs", mode.label());
        assert_eq!(t, t0, "{}: replayed time differs", mode.label());
    }
}

#[test]
fn replayed_times_vary_below_one_percent_with_counter_noise() {
    // Distinct seeds per mode model distinct acquisition runs.
    let mut times = Vec::new();
    for (i, mode) in MODES.iter().enumerate() {
        let (_, t) = acquire_and_extract(*mode, 100 + i as u64, 5e-4, "noisy");
        times.push(t);
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0f64, f64::max);
    let spread = (max - min) / min;
    assert!(
        spread < 0.01,
        "simulated time must not depend on the acquisition scenario: spread {:.3}%",
        100.0 * spread
    );
    assert!(spread > 0.0, "counter noise should be visible at all");
}

#[test]
fn acquisition_costs_differ_but_are_irrelevant() {
    // Sanity: the acquisition runs themselves take very different times
    // (that's Table 2), yet none of it leaks into the trace.
    let nproc = 8;
    let lu = LuConfig::new(Class::S, nproc).with_itmax(4);
    let cfg = EmulConfig { papi_jitter: 0.0, ..Default::default() };
    let dir = std::env::temp_dir().join(format!("titr-decoup-cost-{}", std::process::id()));
    let regular = acquire(
        &lu.program(),
        nproc,
        AcquisitionMode::Regular,
        &cfg,
        &dir.join("r"),
    )
    .unwrap();
    let folded = acquire(
        &lu.program(),
        nproc,
        AcquisitionMode::Folding(8),
        &cfg,
        &dir.join("f"),
    )
    .unwrap();
    assert!(
        folded.exec_time > 3.0 * regular.exec_time,
        "folding x8 must cost much more than regular: {} vs {}",
        folded.exec_time,
        regular.exec_time
    );
    // Identical TAU payloads up to timestamps: same number of records.
    assert_eq!(regular.tau_bytes, folded.tau_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
