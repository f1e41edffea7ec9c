//! End-to-end telemetry: a real replay driving timeline, profile and
//! metrics sinks through the engine's observer hook.

use proptest::prelude::*;
use simkern::observer::{Collector, Fanout};
use simkern::resource::HostId;
use simkern::{NetworkConfig, Platform};
use tit_core::{Action, TiTrace};
use tit_platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};
use tit_replay::{tags, Input, Replay, ReplayConfig};
use titobs::{Metrics, Profile, SharedBuf, Timeline, TimelineFormat};

fn mycluster(n: usize) -> (Platform, Vec<HostId>) {
    let spec = ClusterSpec {
        id: "mycluster".into(),
        prefix: "mycluster-".into(),
        suffix: ".mysite.fr".into(),
        count: n,
        power: 1.17e9,
        cores: 1,
        bw: 1.25e8,
        lat: 16.67e-6,
        bb_bw: 1.25e9,
        bb_lat: 16.67e-6,
        topology: ClusterTopology::Flat,
    };
    let p = PlatformDesc::single(spec).build();
    let hosts = (0..n as u32).map(HostId).collect();
    (p, hosts)
}

fn example_trace_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/ring4")
}

/// A ring where every send is eager (1 KiB, far below the 64 KiB
/// rendezvous threshold) and every rank runs the same program: each
/// rank is inside exactly one operation from t=0 to the makespan.
fn eager_ring(n: usize, iters: usize, flops: f64, bytes: f64) -> TiTrace {
    let mut t = TiTrace::new(n);
    for r in 0..n {
        for _ in 0..iters {
            t.push(r, Action::Compute { flops });
            t.push(r, Action::Send { dst: (r + 1) % n, bytes });
            t.push(r, Action::Recv { src: (r + n - 1) % n, bytes: None });
        }
    }
    t
}

/// The ISSUE's acceptance criterion: replaying the bundled example
/// trace, every rank's compute + communication time equals the
/// simulated makespan within 1e-9 relative error.
#[test]
fn example_trace_busy_time_accounts_for_the_makespan() {
    let (p, hosts) = mycluster(4);
    let profile = Profile::new(4, tags::name, tags::is_comm);
    let cfg =
        ReplayConfig { network: NetworkConfig::mpi_cluster(), ..ReplayConfig::default() };
    let out = Replay::new(Input::files(&example_trace_dir(), 4), p, &hosts, &cfg)
        .observer(Some(profile.sink()))
        .run()
        .unwrap();
    let report = profile.snapshot();
    assert_eq!(report.simulated_time, out.simulated_time);
    assert!(out.simulated_time > 0.0);
    for (rank, r) in report.ranks.iter().enumerate() {
        let rel = (r.busy_time() - out.simulated_time).abs() / out.simulated_time;
        assert!(
            rel < 1e-9,
            "rank {rank}: compute {} + comm {} != makespan {} (rel {rel})",
            r.compute_time,
            r.comm_time,
            out.simulated_time
        );
        assert_eq!(r.end_time, out.simulated_time, "rank {rank} ends with the run");
    }
}

/// Identical replays produce byte-identical timeline, profile and
/// metrics outputs — the reproducibility acceptance criterion.
#[test]
fn identical_replays_are_byte_identical() {
    let run = || {
        let (p, hosts) = mycluster(4);
        let json_buf = SharedBuf::new();
        let csv_buf = SharedBuf::new();
        let json =
            Timeline::new(json_buf.clone(), 4, TimelineFormat::ChromeJson, tags::name).unwrap();
        let csv = Timeline::new(csv_buf.clone(), 4, TimelineFormat::Csv, tags::name).unwrap();
        let profile = Profile::new(4, tags::name, tags::is_comm);
        let metrics = Metrics::new();
        let fan = Fanout::new()
            .with(json.sink())
            .with(csv.sink())
            .with(profile.sink())
            .with(metrics.observer("replay"));
        let cfg = ReplayConfig::default();
        let out = Replay::new(Input::files(&example_trace_dir(), 4), p, &hosts, &cfg)
            .observer(Some(Box::new(fan)))
            .run()
            .unwrap();
        json.finish().unwrap();
        csv.finish().unwrap();
        metrics.incr("replay.actions", out.actions_replayed);
        (
            json_buf.contents(),
            csv_buf.contents(),
            profile.snapshot().to_json(),
            metrics.to_json(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "timeline JSON differs between identical replays");
    assert_eq!(a.1, b.1, "timed-trace CSV differs between identical replays");
    assert_eq!(a.2, b.2, "profile JSON differs between identical replays");
    assert_eq!(a.3, b.3, "metrics JSON differs between identical replays");
    assert!(!a.0.is_empty() && !a.1.is_empty());
}

/// The streaming acceptance criterion: a 10^5-action trace replayed
/// with only streaming sinks — no record vector materialises, yet
/// every operation reaches the outputs.
#[test]
fn hundred_thousand_actions_stream_without_collection() {
    let n = 4;
    let per_rank = 25_000usize;
    let mut t = TiTrace::new(n);
    for r in 0..n {
        for _ in 0..per_rank {
            t.push(r, Action::Compute { flops: 1e4 });
        }
    }
    let total = (n * per_rank) as u64;
    let (p, hosts) = mycluster(n);
    let csv_buf = SharedBuf::new();
    let csv = Timeline::new(csv_buf.clone(), n, TimelineFormat::Csv, tags::name).unwrap();
    let profile = Profile::new(n, tags::name, tags::is_comm);
    let fan = Fanout::new().with(csv.sink()).with(profile.sink());
    let out = Replay::new(Input::memory(&t), p, &hosts, &ReplayConfig::default())
        .observer(Some(Box::new(fan)))
        .run()
        .unwrap();
    assert_eq!(out.actions_replayed, total);
    let summary = csv.finish().unwrap();
    assert_eq!(summary.events, total);
    assert!(summary.monotone);
    let report = profile.snapshot();
    assert_eq!(report.total_ops, total);
    // header + one row per op
    let text = String::from_utf8(csv_buf.contents()).unwrap();
    assert_eq!(text.lines().count() as u64, total + 1);
}

/// The timeline output is structurally valid Chrome trace-event JSON.
#[test]
fn chrome_timeline_is_structurally_valid() {
    let (p, hosts) = mycluster(4);
    let buf = SharedBuf::new();
    let tl = Timeline::new(buf.clone(), 4, TimelineFormat::ChromeJson, tags::name).unwrap();
    Replay::new(Input::files(&example_trace_dir(), 4), p, &hosts, &ReplayConfig::default())
        .observer(Some(tl.sink()))
        .run()
        .unwrap();
    let summary = tl.finish().unwrap();
    assert!(summary.monotone);
    assert_eq!(summary.events, 36, "4 ranks x 3 rounds x 3 ops");
    let text = String::from_utf8(buf.contents()).unwrap();
    assert!(text.starts_with("{\"traceEvents\":["));
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches('[').count(), text.matches(']').count());
    assert_eq!(text.matches("\"ph\":\"X\"").count(), 36);
    assert!(text.contains("\"simulated_time_s\":\""));
}

proptest! {
    /// Profile totals equal the sum over the collected record vector,
    /// for arbitrary eager rings: the streaming aggregation loses
    /// nothing relative to buffering everything.
    #[test]
    fn profile_totals_match_collected_records(
        n in 2usize..6,
        iters in 1usize..8,
        flops in 1e4..1e7f64,
        bytes in 1.0..32_000.0f64,
    ) {
        let t = eager_ring(n, iters, flops, bytes);
        let (p, hosts) = mycluster(n);
        let profile = Profile::new(n, tags::name, tags::is_comm);
        let records = Collector::new();
        let fan = Fanout::new().with(records.sink()).with(profile.sink());
        Replay::new(Input::memory(&t), p, &hosts, &ReplayConfig::default())
            .observer(Some(Box::new(fan)))
            .run()
            .unwrap();
        let recs = records.take();
        let report = profile.snapshot();
        prop_assert_eq!(report.total_ops, recs.len() as u64);
        let mut busy = vec![0.0f64; n];
        let mut comm_ops = vec![0u64; n];
        for r in &recs {
            busy[r.actor] += r.end - r.start;
            if tags::is_comm(r.tag) {
                comm_ops[r.actor] += 1;
            }
        }
        for rank in 0..n {
            let got = report.ranks[rank].busy_time();
            prop_assert!(
                (got - busy[rank]).abs() <= 1e-12 * busy[rank].max(1.0),
                "rank {} busy {} vs records {}", rank, got, busy[rank]
            );
            prop_assert_eq!(report.ranks[rank].comm_ops, comm_ops[rank]);
        }
    }

    /// The engine delivers records in completion order, so any replay's
    /// timeline reports monotone = true.
    #[test]
    fn timeline_is_monotone_for_any_ring(
        n in 2usize..6,
        iters in 1usize..6,
        flops in 1e4..1e7f64,
    ) {
        let t = eager_ring(n, iters, flops, 1024.0);
        let (p, hosts) = mycluster(n);
        let tl = Timeline::new(SharedBuf::new(), n, TimelineFormat::Csv, tags::name).unwrap();
        Replay::new(Input::memory(&t), p, &hosts, &ReplayConfig::default())
            .observer(Some(tl.sink()))
            .run()
            .unwrap();
        let summary = tl.finish().unwrap();
        prop_assert!(summary.monotone);
        prop_assert_eq!(summary.events, (n * iters * 3) as u64);
    }
}
