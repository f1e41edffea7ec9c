//! End-to-end pipeline tests: emulated acquisition → TAU traces →
//! extraction → validation → gathering → replay, across workloads.

use titr::emul::acquisition::{acquire, AcquisitionMode};
use titr::emul::runtime::EmulConfig;
use titr::extract::gather::{bundle, unbundle};
use titr::extract::tau2ti;
use titr::npb::stencil::StencilConfig;
use titr::npb::{Class, LuConfig};
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::{replay_memory, Input, Replay, ReplayConfig};
use titr::simkern::resource::HostId;
use titr::trace::TiTrace;

fn work_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("titr-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn exact() -> EmulConfig {
    EmulConfig { papi_jitter: 0.0, ..Default::default() }
}

#[test]
fn lu_pipeline_extracts_exactly_and_replays() {
    let nproc = 8;
    let lu = LuConfig::new(Class::S, nproc).with_itmax(3);
    let dir = work_dir("lu");
    let tau = dir.join("tau");
    let ti = dir.join("ti");
    acquire(&lu.program(), nproc, AcquisitionMode::Regular, &exact(), &tau).unwrap();
    let stats = tau2ti(&tau, nproc, &ti, 2).unwrap();

    // Extraction recovers the program's exact trace, up to coalescing
    // of back-to-back CPU bursts (PAPI counters are only sampled at MPI
    // boundaries, so adjacent bursts merge — same flops, same timing).
    let got = TiTrace::load_per_process(&ti).unwrap();
    let mut want = titr::npb::program_trace(&lu.program(), nproc);
    want.coalesce_computes();
    assert_eq!(got, want);
    assert_eq!(stats.actions_written as usize, want.num_actions());

    // It lints clean and replays to the same time as the direct trace.
    assert!(!titr::lint::analyze(&got).has_errors());
    let platform = PlatformDesc::single(presets::bordereau_one_core(nproc)).build();
    let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
    let from_files =
        Replay::new(Input::files(&ti, nproc), platform, &hosts, &ReplayConfig::default())
            .run()
            .unwrap();
    let platform2 = PlatformDesc::single(presets::bordereau_one_core(nproc)).build();
    let direct = replay_memory(&want, platform2, &hosts, &ReplayConfig::default()).unwrap();
    assert_eq!(from_files.simulated_time, direct.simulated_time);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stencil_pipeline_through_folding() {
    let cfg = StencilConfig { n: 64, px: 2, py: 2, iters: 6, ..Default::default() };
    let nproc = cfg.nproc();
    let dir = work_dir("stencil");
    let tau = dir.join("tau");
    let ti = dir.join("ti");
    acquire(&cfg.program(), nproc, AcquisitionMode::Folding(2), &exact(), &tau).unwrap();
    tau2ti(&tau, nproc, &ti, 1).unwrap();
    let got = TiTrace::load_per_process(&ti).unwrap();
    assert_eq!(got, cfg.trace(), "folding must not change the trace");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gathered_bundle_roundtrips_and_replays() {
    let nproc = 4;
    let lu = LuConfig::new(Class::S, nproc).with_itmax(2);
    let dir = work_dir("bundle");
    let tau = dir.join("tau");
    let ti = dir.join("ti");
    acquire(&lu.program(), nproc, AcquisitionMode::Regular, &exact(), &tau).unwrap();
    tau2ti(&tau, nproc, &ti, 1).unwrap();

    // Gather into one file (what lands on the simulation node) and
    // restore — the restored traces replay identically.
    let files: Vec<_> = (0..nproc)
        .map(|r| ti.join(titr::trace::trace::process_trace_filename(r)))
        .collect();
    let bpath = dir.join("traces.bundle");
    bundle(&files, &bpath).unwrap();
    let restored_dir = dir.join("restored");
    let restored = unbundle(&bpath, &restored_dir).unwrap();
    assert_eq!(restored.len(), nproc);
    let a = TiTrace::load_per_process(&ti).unwrap();
    let b = TiTrace::load_per_process(&restored_dir).unwrap();
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compressed_trace_roundtrips() {
    let lu = LuConfig::new(Class::S, 4).with_itmax(2);
    let trace = titr::npb::program_trace(&lu.program(), 4);
    let mut text = Vec::new();
    trace.write_merged(&mut text).unwrap();
    let compressed = titr::trace::compress::compress(&text);
    assert!(compressed.len() < text.len() / 4, "trace text compresses well");
    let back = titr::trace::compress::decompress(&compressed).unwrap();
    assert_eq!(back, text);
    let reparsed = TiTrace::from_reader(&back[..]).unwrap();
    assert_eq!(reparsed, trace);
}

#[test]
fn what_if_network_upgrade_speeds_up_comm_bound_runs() {
    // Replaying the same trace on a better network must not be slower,
    // and a bandwidth-bound instance must actually improve.
    let cfg = StencilConfig { n: 512, px: 2, py: 2, iters: 10, check_every: 5, ..Default::default() };
    let trace = cfg.trace();
    let hosts: Vec<HostId> = (0..4).map(HostId).collect();
    let slow = {
        let mut spec = presets::bordereau_one_core(4);
        spec.bw = 1.25e7; // 100 Mb/s
        replay_memory(&trace, PlatformDesc::single(spec).build(), &hosts, &ReplayConfig::default())
            .unwrap()
            .simulated_time
    };
    let fast = {
        let mut spec = presets::bordereau_one_core(4);
        spec.bw = 1.25e9; // 10 Gb/s
        replay_memory(&trace, PlatformDesc::single(spec).build(), &hosts, &ReplayConfig::default())
            .unwrap()
            .simulated_time
    };
    assert!(fast < slow, "10 Gb/s must beat 100 Mb/s: {fast} vs {slow}");
}
