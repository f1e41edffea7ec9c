//! End-to-end daemon tests over real TCP sockets: protocol behavior,
//! load-shedding, deadline partials, preemption identity, drain.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tit_core::{Action, ProcessTraceWriter};
use tit_serve::{Server, ServerConfig};

/// A deadlock-free ring pipeline trace (rank 0 injects, others relay).
fn write_ring(dir: &Path, n: usize, iters: usize) {
    for r in 0..n {
        let mut w = ProcessTraceWriter::create(dir, r).unwrap();
        for _ in 0..iters {
            if r == 0 {
                w.write(&Action::Compute { flops: 1e6 }).unwrap();
                w.write(&Action::Send { dst: 1, bytes: 1e6 }).unwrap();
                w.write(&Action::Recv { src: n - 1, bytes: None }).unwrap();
            } else {
                w.write(&Action::Irecv { src: r - 1, bytes: None }).unwrap();
                w.write(&Action::Compute { flops: 5e5 }).unwrap();
                w.write(&Action::Wait).unwrap();
                w.write(&Action::Send { dst: (r + 1) % n, bytes: 1e6 }).unwrap();
            }
        }
        w.finish().unwrap();
    }
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tit-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    fn connect(port: u16) -> Client {
        let s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        Client { r: BufReader::new(s.try_clone().unwrap()), w: s }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.w, "{line}").unwrap();
        self.w.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut out = String::new();
        self.r.read_line(&mut out).unwrap();
        assert!(out.ends_with('\n'), "connection closed early: {out:?}");
        out.trim_end().to_owned()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    // Good enough for flat test payloads: find "key":VALUE.
    let pat = format!("\"{key}\":");
    let start = resp.find(&pat)? + pat.len();
    let rest = &resp[start..];
    let end = rest
        .char_indices()
        .scan(false, |in_str, (i, c)| {
            if c == '"' {
                *in_str = !*in_str;
            }
            if !*in_str && (c == ',' || c == '}') {
                Some(Some(i))
            } else {
                Some(None)
            }
        })
        .flatten()
        .next()?;
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn ping_stats_malformed_oversized_on_one_connection() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.port());

    let pong = c.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(pong, r#"{"status":"ok","op":"ping"}"#);

    let stats = c.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "status"), Some("ok"));
    assert_eq!(field(&stats, "queue_depth"), Some("0"));
    assert_eq!(field(&stats, "draining"), Some("false"));

    let bad = c.roundtrip("this is not json");
    assert_eq!(field(&bad, "status"), Some("error"));
    assert_eq!(field(&bad, "code"), Some("bad_request"));

    let unknown = c.roundtrip(r#"{"op":"explode"}"#);
    assert_eq!(field(&unknown, "code"), Some("bad_request"));

    // A misspelled field is refused by name, not replayed as the default.
    let typo = c.roundtrip(r#"{"op":"replay","trace_dir":"/t","np":2,"netwrok":"flow"}"#);
    assert_eq!(field(&typo, "code"), Some("bad_request"), "{typo}");
    assert!(typo.contains(r#"unknown field \"netwrok\""#), "{typo}");

    let oversized = c.roundtrip(&format!("{{\"pad\":\"{}\"}}", "x".repeat(2 << 20)));
    assert_eq!(field(&oversized, "code"), Some("oversized"));

    // The connection survives all of the above.
    let pong = c.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(field(&pong, "status"), Some("ok"));

    server.drain();
    server.wait().unwrap();
}

#[test]
fn burst_beyond_capacity_sheds_with_typed_responses() {
    let d = scratch("shed");
    write_ring(&d, 3, 4);
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 2,
        job_delay: Duration::from_millis(120),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).unwrap();

    // 8 pipelined requests = 4x queue capacity on a slow single
    // worker: the first fills the worker + queue, the rest shed.
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();
    for i in 0..8 {
        c.send(&format!(
            "{{\"op\":\"replay\",\"id\":\"r{i}\",\"trace_dir\":{dir:?},\"np\":3}}"
        ));
    }
    let mut ok = 0;
    let mut shed = 0;
    let mut by_id: BTreeMap<String, String> = BTreeMap::new();
    for _ in 0..8 {
        let resp = c.recv();
        let id = field(&resp, "id").unwrap().to_owned();
        match field(&resp, "status").unwrap() {
            "ok" => ok += 1,
            "overloaded" => {
                assert_eq!(field(&resp, "code"), Some("queue_full"), "{resp}");
                assert_eq!(field(&resp, "queue_capacity"), Some("2"), "{resp}");
                shed += 1;
            }
            other => panic!("unexpected status {other}: {resp}"),
        }
        by_id.insert(id, resp);
    }
    assert_eq!(ok + shed, 8);
    assert!(shed >= 5, "a 4x burst on a 120ms worker must shed most requests: {shed}");
    assert!(ok >= 1, "admitted requests must still be served");

    // Every admitted request returned the same (deterministic) payload
    // apart from the id echo.
    let normalized: Vec<String> = by_id
        .values()
        .filter(|r| r.contains("\"status\":\"ok\""))
        .map(|r| {
            let id = field(r, "id").unwrap();
            r.replace(&format!("\"id\":\"{id}\""), "\"id\":\"X\"")
        })
        .collect();
    for w in normalized.windows(2) {
        assert_eq!(w[0], w[1]);
    }

    let shed_before = server.shared().metrics.counter("serve.shed");
    assert_eq!(shed_before, shed);
    server.drain();
    server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn deadline_and_degraded_requests_return_quantified_partials() {
    let d = scratch("partial");
    write_ring(&d, 3, 80);
    let server = Server::start(ServerConfig {
        slice_actions: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();

    let resp = c.roundtrip(&format!(
        "{{\"op\":\"replay\",\"id\":\"dl\",\"trace_dir\":{dir:?},\"np\":3,\"max_wall_s\":0}}"
    ));
    assert_eq!(field(&resp, "status"), Some("partial"), "{resp}");
    assert_eq!(field(&resp, "code"), Some("deadline"), "{resp}");
    let completeness: f64 = field(&resp, "completeness").unwrap().parse().unwrap();
    assert!(completeness < 1.0, "{resp}");

    let resp = c.roundtrip(&format!(
        "{{\"op\":\"replay\",\"id\":\"dg\",\"trace_dir\":{dir:?},\"np\":3,\"drop_ranks\":[2]}}"
    ));
    assert_eq!(field(&resp, "status"), Some("partial"), "{resp}");
    assert_eq!(field(&resp, "code"), Some("damaged"), "{resp}");
    assert!(field(&resp, "detail").is_some(), "{resp}");

    server.drain();
    server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn drain_finishes_backlog_flushes_metrics_and_exits() {
    let d = scratch("drain");
    write_ring(&d, 3, 4);
    let metrics_path = d.join("serve_metrics.json");
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 8,
        job_delay: Duration::from_millis(30),
        metrics_path: Some(metrics_path.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();
    for i in 0..3 {
        c.send(&format!(
            "{{\"op\":\"replay\",\"id\":\"q{i}\",\"trace_dir\":{dir:?},\"np\":3}}"
        ));
    }
    let drain = c.roundtrip(r#"{"op":"drain"}"#);
    assert_eq!(field(&drain, "status"), Some("draining"));

    // In-flight work still completes after the drain request.
    let mut ok = 0;
    for _ in 0..3 {
        let resp = c.recv();
        assert_eq!(field(&resp, "status"), Some("ok"), "{resp}");
        ok += 1;
    }
    assert_eq!(ok, 3);
    server.wait().unwrap();

    let text = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(text.contains("\"serve.admitted\":3"), "{text}");
    assert!(text.contains("\"serve.ok\":3"), "{text}");
    assert!(text.contains("serve.queue_depth"), "{text}");
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn store_requests_match_trace_dir_and_fail_closed_when_damaged() {
    let d = scratch("store");
    write_ring(&d, 3, 6);
    // The same trace, interned as a segmented store.
    let store = d.join("ring.tib2");
    let trace = tit_core::load_compact_exact(&d, 3, 1).unwrap();
    tit_core::tib2::write_compact_atomic(&store, &trace, 8).unwrap();

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();
    let sp = store.display().to_string();

    let via_dir = c.roundtrip(&format!(
        "{{\"op\":\"replay\",\"id\":\"x\",\"trace_dir\":{dir:?},\"np\":3}}"
    ));
    let via_store =
        c.roundtrip(&format!("{{\"op\":\"replay\",\"id\":\"x\",\"store\":{sp:?},\"np\":3}}"));
    assert_eq!(field(&via_store, "status"), Some("ok"), "{via_store}");
    assert_eq!(via_dir, via_store, "store replay must be payload-identical to trace_dir");

    // A second request is a (revalidated) handle-cache hit.
    let again =
        c.roundtrip(&format!("{{\"op\":\"replay\",\"id\":\"x\",\"store\":{sp:?},\"np\":3}}"));
    assert_eq!(again, via_store);
    assert!(server.shared().metrics.counter("serve.cache_hits") >= 1);

    // An np mismatch is a typed load error, not a crash.
    let bad_np =
        c.roundtrip(&format!("{{\"op\":\"replay\",\"id\":\"n\",\"store\":{sp:?},\"np\":4}}"));
    assert_eq!(field(&bad_np, "status"), Some("error"), "{bad_np}");
    assert_eq!(field(&bad_np, "code"), Some("trace_load"), "{bad_np}");

    // Flip a payload byte: the damaged segment must fail the request
    // closed (typed error), never return a silently wrong time.
    let mut bytes = std::fs::read(&store).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&store, &bytes).unwrap();
    let damaged =
        c.roundtrip(&format!("{{\"op\":\"replay\",\"id\":\"d\",\"store\":{sp:?},\"np\":3}}"));
    assert_eq!(field(&damaged, "status"), Some("error"), "{damaged}");

    server.drain();
    server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&d);
}

/// A trace declaring a communicator larger than the replayed ranks is
/// answered with a typed error, and the daemon keeps serving: the
/// check must come before expansion, since an allocation failure
/// aborts the process and `catch_unwind` cannot contain it.
#[test]
fn oversized_comm_size_is_an_error_response_not_an_abort() {
    let d = scratch("commsize");
    for r in 0..2 {
        std::fs::write(
            d.join(format!("SG_process{r}.trace")),
            format!("p{r} comm_size 3000000000\np{r} barrier\n"),
        )
        .unwrap();
    }
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();
    for algo in ["flat", "binomial"] {
        let resp = c.roundtrip(&format!(
            "{{\"op\":\"replay\",\"id\":\"cs\",\"trace_dir\":{dir:?},\"np\":2,\"collectives\":\"{algo}\"}}"
        ));
        assert_eq!(field(&resp, "status"), Some("error"), "{algo}: {resp}");
        assert!(resp.contains("comm_size 3000000000 exceeds"), "{algo}: {resp}");
        let pong = c.roundtrip(r#"{"op":"ping"}"#);
        assert_eq!(field(&pong, "status"), Some("ok"), "{algo}: {pong}");
    }
    server.drain();
    server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&d);
}

/// A wall budget longer than the clock can hold never expires: the
/// request and one pipelined after it on the same connection are both
/// answered `ok`, and the access log closes every admission it opened.
#[test]
fn budget_past_the_clock_is_served_and_logged() {
    let d = scratch("hugebudget");
    write_ring(&d, 3, 4);
    let log = d.join("access.ndjson");
    let server =
        Server::start(ServerConfig { access_log: Some(log.clone()), ..ServerConfig::default() })
            .unwrap();
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();
    c.send(&format!(
        "{{\"op\":\"replay\",\"id\":\"huge\",\"trace_dir\":{dir:?},\"np\":3,\"max_wall_s\":1e20}}"
    ));
    c.send(&format!("{{\"op\":\"replay\",\"id\":\"plain\",\"trace_dir\":{dir:?},\"np\":3}}"));
    let (a, b) = (c.recv(), c.recv());
    assert_eq!(field(&a, "status"), Some("ok"), "{a}");
    assert_eq!(field(&b, "status"), Some("ok"), "{b}");
    assert_eq!(field(&a, "simulated_time"), field(&b, "simulated_time"));
    server.drain();
    server.wait().unwrap();
    let text = std::fs::read_to_string(&log).unwrap();
    let admits = text.matches("\"event\":\"admit\"").count();
    let dones = text.matches("\"event\":\"done\"").count();
    assert_eq!((admits, dones), (2, 2), "{text}");
    let _ = std::fs::remove_dir_all(&d);
}

/// Waits for `server` to finish draining; fails after `limit`.
fn drains_within(server: Server, limit: Duration) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(server.wait()));
    let done = rx.recv_timeout(limit);
    done.unwrap_or_else(|_| panic!("drain took longer than {limit:?}")).unwrap();
}

/// The supervisor blocks in `accept`; every drain trigger must wake it
/// with no client left to do so: `Server::drain`, the protocol op (its
/// client gone), and stdin EOF in the binary each finish within 1 s.
#[test]
fn every_drain_trigger_wakes_the_blocked_accept() {
    let limit = Duration::from_secs(1);
    let server = Server::start(ServerConfig::default()).unwrap();
    server.drain();
    drains_within(server, limit);

    let server = Server::start(ServerConfig::default()).unwrap();
    let resp = Client::connect(server.port()).roundtrip(r#"{"op":"drain"}"#);
    assert_eq!(field(&resp, "status"), Some("draining"), "{resp}");
    drains_within(server, limit);

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_tit-serve"))
        .args(["--addr", "127.0.0.1:0", "--drain-on-stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(daemon.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    assert!(banner.starts_with("listening on"), "{banner}");
    drop(daemon.stdin.take());
    let status = exits_within(&mut daemon, limit);
    assert!(status.success(), "{status}");
}

/// Waits for a daemon whose stdin was closed to exit; fails after
/// `limit`.
fn exits_within(daemon: &mut std::process::Child, limit: Duration) -> std::process::ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            return status;
        }
        if t0.elapsed() > limit {
            let _ = daemon.kill();
            panic!("stdin EOF did not drain the daemon within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The banner names the address the daemon bound, host included:
/// `--addr 0.0.0.0:0` prints `0.0.0.0:PORT`, and stdin EOF still drains
/// it (the wake-up connects through the loopback address).
#[test]
fn banner_prints_the_bound_address() {
    let limit = Duration::from_secs(1);
    let any = ServerConfig { addr: "0.0.0.0:0".into(), ..ServerConfig::default() };
    let server = Server::start(any).unwrap();
    assert!(server.local_addr().ip().is_unspecified(), "{}", server.local_addr());
    assert_eq!(server.local_addr().port(), server.port());
    server.drain();
    drains_within(server, limit);

    let banners =
        [("0.0.0.0:0", "listening on 0.0.0.0:"), ("127.0.0.1:0", "listening on 127.0.0.1:")];
    for (addr, want) in banners {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_tit-serve"))
            .args(["--addr", addr, "--drain-on-stdin"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut banner = String::new();
        BufReader::new(daemon.stdout.take().unwrap()).read_line(&mut banner).unwrap();
        drop(daemon.stdin.take());
        let status = exits_within(&mut daemon, limit);
        assert!(banner.starts_with(want), "{addr}: {banner}");
        let port: u16 = banner.trim_end()[want.len()..].parse().unwrap();
        assert_ne!(port, 0, "{banner}");
        assert!(status.success(), "{addr}: {status}");
    }
}

#[test]
fn replay_after_drain_is_refused_as_draining() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.port());
    let resp = c.roundtrip(r#"{"op":"drain"}"#);
    assert_eq!(field(&resp, "status"), Some("draining"));
    let resp = c.roundtrip(r#"{"op":"replay","id":"late","trace_dir":"/t","np":2}"#);
    assert_eq!(field(&resp, "status"), Some("draining"), "{resp}");
    assert_eq!(field(&resp, "id"), Some("late"), "{resp}");
    server.wait().unwrap();
}

/// Serial oracle: one request at a time on a plain server.
fn run_serial(port: u16, lines: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut c = Client::connect(port);
    for line in lines {
        let resp = c.roundtrip(line);
        out.insert(field(&resp, "id").unwrap().to_owned(), resp);
    }
    out
}

/// Concurrent run: one thread + connection per request.
fn run_concurrent(port: u16, lines: &[String]) -> BTreeMap<String, String> {
    let handles: Vec<_> = lines
        .iter()
        .cloned()
        .map(|line| {
            std::thread::spawn(move || {
                let mut c = Client::connect(port);
                let resp = c.roundtrip(&line);
                (field(&resp, "id").unwrap().to_owned(), resp)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

proptest! {
    /// The core identity guarantee: any mix of admitted requests
    /// (varying platform, network, collectives, remap, degraded
    /// subsets) returns byte-identical payloads whether served one at
    /// a time or concurrently across a contended worker pool with
    /// forced preempt/resume hops at tiny slice granularity.
    #[test]
    fn concurrent_responses_are_byte_identical_to_serial(
        iters in 2usize..5,
        np in 3usize..5,
        seed in 0u64..1_000_000,
    ) {
        let d = scratch(&format!("ident-{iters}-{np}-{seed}"));
        write_ring(&d, np, iters);
        let dir = d.display().to_string();

        // A deterministic little request mix derived from the seed.
        let mut lines = Vec::new();
        for i in 0..6u64 {
            let x = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            let network = ["mpi", "flow", "constant"][(x % 3) as usize];
            let coll = ["binomial", "flat"][((x >> 2) % 2) as usize];
            let mut extra = String::new();
            if x % 5 == 0 {
                // Degraded subset: drop the last rank.
                extra = format!(",\"drop_ranks\":[{}]", np - 1);
            } else if x % 5 == 1 {
                // Rank remap: reverse placement.
                let map: Vec<String> =
                    (0..np).rev().map(|h| h.to_string()).collect();
                extra = format!(",\"remap\":[{}]", map.join(","));
            }
            lines.push(format!(
                "{{\"op\":\"replay\",\"id\":\"req{i}\",\"trace_dir\":{dir:?},\"np\":{np},\
                 \"network\":\"{network}\",\"collectives\":\"{coll}\"{extra}}}"
            ));
        }

        let plain = Server::start(ServerConfig::default()).unwrap();
        let serial = run_serial(plain.port(), &lines);
        plain.drain();
        plain.wait().unwrap();

        let contended = Server::start(ServerConfig {
            workers: 4,
            slice_actions: 7,
            force_preempt: true,
            max_preemptions: 3,
            ..ServerConfig::default()
        })
        .unwrap();
        let concurrent = run_concurrent(contended.port(), &lines);
        let preemptions = contended.shared().metrics.counter("serve.preemptions");
        contended.drain();
        contended.wait().unwrap();

        prop_assert_eq!(serial.len(), concurrent.len());
        for (id, resp) in &serial {
            prop_assert_eq!(Some(resp), concurrent.get(id));
        }
        prop_assert!(preemptions > 0, "forced preemption must actually fire");
        let _ = std::fs::remove_dir_all(&d);
    }
}
