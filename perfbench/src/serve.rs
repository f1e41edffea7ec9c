//! serve-whatif: request line in → response line out, against an
//! in-process `tit_serve::Server` on loopback.
//!
//! Two closed-loop clients, each on its own connection, share each
//! batch of what-if requests over one generated trace: sweeps of every
//! network model × collectives × platform variant, each sweep in an
//! order drawn from the seed. A batch holds no exact repeats beyond one
//! request per variant per sweep, since no measured repeat share exists
//! to copy. A
//! client sends its next request only after the previous response line
//! arrived. The server has one worker and preempts at a backlog of
//! one, so the second client's request always queues and the
//! preemption/resume path runs. Every response must be `ok` with the
//! simulated time an in-process replay of the same request returned
//! during set-up.

use crate::calib::Probe;
use crate::inputs::{trace_dir, work_root};
use crate::replay::peak_rss_mb;
use crate::report::{json_str, Measured};
use crate::stats::{median, quantile, sum};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tit_replay::replay_compact;
use tit_serve::json::{parse, Json};
use tit_serve::{Request, Server, ServerConfig};

const NETWORKS: [&str; 3] = ["mpi", "flow", "constant"];
const COLLECTIVES: [&str; 2] = ["binomial", "flat"];
const PLATFORMS: [&str; 2] = ["bordereau", "gdx"];
const VARIANTS: usize = NETWORKS.len() * COLLECTIVES.len() * PLATFORMS.len();

/// Closed-loop clients (≤ nproc on the reference box).
pub const CLIENTS: usize = 2;
/// Server workers: fewer than clients, so requests queue.
pub const WORKERS: usize = 1;
/// Replay slice in actions: the server's preemption safe points.
pub const SLICE_ACTIONS: u64 = 2000;
/// Server start-ups per untraced run (the `setup_s` median).
const SETUP_REPS: usize = 15;
/// Fewest batches a run reports a median over.
const MIN_BATCHES: usize = 3;

/// SplitMix64: the seeded request-mix generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The request mix of one batch: a variant index per request, `sweeps`
/// times every variant, each sweep shuffled (Fisher–Yates). Each batch
/// of a run draws its own order from the run's generator, so which
/// variants meet in the queue varies over the run, not with the seed.
fn request_mix(rng: &mut Mix, sweeps: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(sweeps * VARIANTS);
    for _ in 0..sweeps {
        let mut sweep: Vec<usize> = (0..VARIANTS).collect();
        for i in (1..VARIANTS).rev() {
            sweep.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        out.extend(sweep);
    }
    out
}

fn request_line(dir: &str, np: usize, variant: usize, id: &str) -> String {
    let network = NETWORKS[variant % NETWORKS.len()];
    let collectives = COLLECTIVES[(variant / NETWORKS.len()) % COLLECTIVES.len()];
    let platform = PLATFORMS[variant / (NETWORKS.len() * COLLECTIVES.len())];
    format!(
        "{{\"op\":\"replay\",\"id\":{},\"trace_dir\":{},\"np\":{np},\"network\":\"{network}\",\"collectives\":\"{collectives}\",\"platform\":\"{platform}\"}}",
        json_str(id),
        json_str(dir),
    )
}

/// Each variant's simulated time from an in-process replay of the same
/// request (the daemon's own request parsing and platform build).
fn expected_times(dir: &str, np: usize) -> Result<Vec<f64>, String> {
    let trace =
        Arc::new(tit_core::load_compact_exact(Path::new(dir), np, 1).map_err(|e| e.to_string())?);
    (0..VARIANTS)
        .map(|v| {
            let Ok(Request::Replay(req)) = tit_serve::parse_request(&request_line(dir, np, v, "x"))
            else {
                return Err(format!("variant {v} does not parse as a replay request"));
            };
            let (platform, hosts) = tit_serve::exec::build_platform(&req);
            replay_compact(&trace, platform, &hosts, &req.replay_config())
                .map(|o| o.simulated_time)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(port: u16) -> Result<Client, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Client { stream, reader })
    }

    /// Sends one request line in a single write and reads the full
    /// response line; returns it with its send and receive instants.
    fn call(&mut self, line: &str) -> Result<(String, Instant, Instant), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let sent = Instant::now();
        self.stream
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        let got = Instant::now();
        if resp.is_empty() {
            return Err("server closed the connection".into());
        }
        Ok((resp, sent, got))
    }
}

/// One request's client-side record.
struct Sample {
    id: String,
    /// Before the request write, and after the full response line.
    sent: Instant,
    got: Instant,
    ok: bool,
    actions: u64,
}

impl Sample {
    fn latency_s(&self) -> f64 {
        (self.got - self.sent).as_secs_f64()
    }
}

/// The fixed part of a run.
struct Setup {
    dir: String,
    np: usize,
    expected: Vec<f64>,
    seed: u64,
    sweeps: usize,
}

/// The variant of the set-up's warm-up request: the same on every run,
/// so `setup_s` does not depend on the seed.
const WARM_UP_VARIANT: usize = 0;

/// A started server with its client connections.
struct Live {
    server: Server,
    clients: Vec<Client>,
}

fn config(access_log: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        slice_actions: SLICE_ACTIONS,
        preempt_backlog: 1,
        access_log,
        ..ServerConfig::default()
    }
}

fn status_ok(resp: &str, expected: f64) -> (bool, u64) {
    let Ok(v) = parse(resp.trim()) else {
        return (false, 0);
    };
    let ok = v.get("status").and_then(Json::as_str) == Some("ok")
        && v.get("simulated_time")
            .and_then(Json::as_f64)
            .map(f64::to_bits)
            == Some(expected.to_bits());
    (
        ok,
        v.get("actions_replayed")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    )
}

/// `Server::start` until a warm-up request returns `ok` (its trace is
/// then cached). Returns the server and the set-up seconds.
fn start(s: &Setup, access_log: Option<PathBuf>) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::start(config(access_log)).map_err(|e| format!("start server: {e}"))?;
    // The accept loop polls: its first non-blocking accept either wins
    // the race with this connect or sleeps out one poll interval, which
    // made set-up bimodal. Connecting 1 ms after start always lands in
    // that first sleep, so set-up pays the poll delay every time.
    std::thread::sleep(std::time::Duration::from_millis(1));
    let mut c = Client::connect(server.port())?;
    let (resp, _, _) = c.call(&request_line(&s.dir, s.np, WARM_UP_VARIANT, "warm-up"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    if !status_ok(&resp, s.expected[WARM_UP_VARIANT]).0 {
        return Err(format!("warm-up request failed: {}", resp.trim()));
    }
    Ok((server, setup_s))
}

fn stop(server: Server) -> Result<(), String> {
    server.drain();
    server.wait().map_err(|e| format!("drain server: {e}"))
}

fn go_live(server: Server) -> Result<Live, String> {
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.port()))
        .collect::<Result<_, _>>()?;
    Ok(Live { server, clients })
}

/// One batch: the clients share `mix` closed-loop. Returns the wall
/// from the first send to the last response, and the samples.
fn batch(
    s: &Setup,
    mix: &[usize],
    live: &mut Live,
    tag: &str,
) -> Result<(f64, Vec<Sample>), String> {
    let next = AtomicUsize::new(0);
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .map(|c| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&v) = mix.get(i) else { break };
                        let id = format!("{tag}-{i}");
                        let (resp, sent, got) = c.call(&request_line(&s.dir, s.np, v, &id))?;
                        let (ok, actions) = status_ok(&resp, s.expected[v]);
                        if !ok {
                            eprintln!("perfbench: request {id} failed: {}", resp.trim());
                        }
                        out.push(Sample {
                            id,
                            sent,
                            got,
                            ok,
                            actions,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for r in per_client {
        samples.extend(r?);
    }
    let first = samples.iter().map(|x| x.sent).min().ok_or("empty batch")?;
    let last = samples.iter().map(|x| x.got).max().ok_or("empty batch")?;
    Ok(((last - first).as_secs_f64(), samples))
}

fn counters(live: &mut Live) -> Result<HashMap<String, u64>, String> {
    let (resp, _, _) = live.clients[0].call("{\"op\":\"metrics\"}")?;
    let v = parse(resp.trim()).map_err(|e| format!("metrics response: {e}"))?;
    let Some(Json::Obj(pairs)) = v.get("metrics").and_then(|m| m.get("counters")) else {
        return Err(format!("metrics response has no counters: {}", resp.trim()));
    };
    Ok(pairs
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
        .collect())
}

/// Access-log `done` spans by request id: queue, load, replay, respond.
fn read_spans(path: &Path) -> Result<HashMap<String, [f64; 4]>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read access log: {e}"))?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let Ok(v) = parse(line) else { continue };
        if v.get("event").and_then(Json::as_str) != Some("done") {
            continue;
        }
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        let f = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.insert(
            id,
            [f("queue_s"), f("load_s"), f("replay_s"), f("respond_s")],
        );
    }
    Ok(out)
}

/// Runs serve-whatif for `seconds` and reports its metrics.
pub fn run(
    dir: &Path,
    np: usize,
    sweeps: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let tdir = trace_dir(dir);
    let tdir = tdir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", tdir.display()))?;
    let dir_str = tdir.to_string_lossy().into_owned();
    let s = Setup {
        expected: expected_times(&dir_str, np)?,
        dir: dir_str,
        np,
        seed,
        sweeps,
    };
    let mut m = Measured::default();
    m.facts.push(("batch_requests", (sweeps * VARIANTS) as f64));
    if traced {
        run_traced(&s, seconds, &mut m)?;
    } else {
        run_plain(&s, seconds, &mut m)?;
    }
    Ok(m)
}

/// The untraced run: a warm-up batch, then the peak RSS, read before
/// the calibration probe first runs so it holds the workload's memory
/// alone; then the measured batches and server start-ups, each between
/// two probe runs and divided by the host slowdown they measured.
fn run_plain(s: &Setup, seconds: f64, m: &mut Measured) -> Result<(), String> {
    let (server, _) = start(s, None)?;
    m.check(true);
    let mut live = go_live(server)?;
    let mut rng = Mix(s.seed);
    let (_, warm) = batch(s, &request_mix(&mut rng, s.sweeps), &mut live, "w")?;
    warm.iter().for_each(|x| m.check(x.ok));
    m.set("peak_rss_mb", peak_rss_mb());
    let mut probe = Probe::new();
    probe.run();
    let start_t = Instant::now();
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut slowdowns = Vec::new();
    let mut actions = Vec::new();
    let mut latencies = Vec::new();
    let mut ok_rates = Vec::new();
    let mut n = 0usize;
    while walls.len() < MIN_BATCHES || start_t.elapsed().as_secs_f64() < seconds {
        let mix = request_mix(&mut rng, s.sweeps);
        let (raw, samples) = batch(s, &mix, &mut live, &format!("b{n}"))?;
        probe.run();
        let slow = probe.slowdown();
        let wall = raw / slow;
        n += 1;
        raw_walls.push(raw);
        slowdowns.push(slow);
        walls.push(wall);
        actions.push(samples.iter().map(|x| x.actions as f64).sum::<f64>());
        ok_rates.push(samples.iter().filter(|x| x.ok).count() as f64 / wall);
        for x in &samples {
            m.check(x.ok);
            latencies.push(x.latency_s() / slow);
        }
    }
    stop(live.server)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let (server, secs) = start(s, None)?;
        m.check(true);
        stop(server)?;
        probe.run();
        setups.push(secs / probe.slowdown());
    }
    m.facts.push(("raw_run_s", median(&raw_walls)));
    m.facts.push(("host_slowdown", median(&slowdowns)));
    let setup_s = median(&setups);
    let run_s = median(&walls);
    let rates: Vec<f64> = walls
        .iter()
        .zip(&actions)
        .map(|(w, a)| a / (setup_s + w))
        .collect();
    m.set("setup_s", setup_s);
    m.set("run_s", run_s);
    m.set("actions_per_s", median(&rates));
    m.set("req_per_s", median(&ok_rates));
    m.set("req_p50_ms", median(&latencies) * 1e3);
    m.set("req_p95_ms", quantile(&latencies, 0.95) * 1e3);
    m.runs.push(("setups", setups.len() as u64));
    m.runs.push(("batches", walls.len() as u64));
    m.runs.push(("requests", latencies.len() as u64));
    Ok(())
}

fn run_traced(s: &Setup, seconds: f64, m: &mut Measured) -> Result<(), String> {
    let log = work_root()
        .join("out")
        .join(format!("serve-access-{}.ndjson", std::process::id()));
    std::fs::create_dir_all(log.parent().unwrap_or(Path::new("."))).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&log);
    let (plain, _) = start(s, None)?;
    let (logged, _) = start(s, Some(log.clone()))?;
    m.check(true);
    m.check(true);
    let mut plain = go_live(plain)?;
    let mut logged = go_live(logged)?;
    let before = counters(&mut logged)?;
    let start_t = Instant::now();
    let mut plain_walls = Vec::new();
    let mut logged_walls = Vec::new();
    let mut samples = Vec::new();
    let mut n = 0usize;
    let mut rng = Mix(s.seed);
    while logged_walls.len() < MIN_BATCHES || start_t.elapsed().as_secs_f64() < seconds {
        // Both servers get the same mix, so their walls compare.
        let mix = request_mix(&mut rng, s.sweeps);
        let (wall, xs) = batch(s, &mix, &mut plain, &format!("p{n}"))?;
        plain_walls.push(wall);
        xs.iter().for_each(|x| m.check(x.ok));
        let (wall, xs) = batch(s, &mix, &mut logged, &format!("t{n}"))?;
        logged_walls.push(wall);
        xs.iter().for_each(|x| m.check(x.ok));
        samples.extend(xs);
        n += 1;
    }
    let after = counters(&mut logged)?;
    stop(plain.server)?;
    stop(logged.server)?;
    let spans = read_spans(&log)?;
    let _ = std::fs::remove_file(&log);

    let mut cols: [Vec<f64>; 4] = Default::default();
    let mut unaccounted = Vec::new();
    let mut latency_total = 0.0;
    for x in &samples {
        let sp = spans
            .get(&x.id)
            .ok_or_else(|| format!("no access-log record for {}", x.id))?;
        for (col, v) in cols.iter_mut().zip(sp) {
            col.push(v * 1e3);
        }
        unaccounted.push((x.latency_s() - sp.iter().sum::<f64>()) * 1e3);
        latency_total += x.latency_s() * 1e3;
    }
    let names = [
        ("serve.queue_ms_p50", "serve.queue_ms_p95"),
        ("serve.load_ms_p50", "serve.load_ms_p95"),
        ("serve.replay_ms_p50", "serve.replay_ms_p95"),
        ("serve.respond_ms_p50", "serve.respond_ms_p95"),
    ];
    for ((p50, p95), col) in names.into_iter().zip(&cols) {
        m.set(p50, median(col));
        m.set(p95, quantile(col, 0.95));
    }
    m.set("serve.unaccounted_ms_p50", median(&unaccounted));
    let delta = |k: &str| {
        after
            .get(k)
            .copied()
            .unwrap_or(0)
            .saturating_sub(before.get(k).copied().unwrap_or(0)) as f64
    };
    m.set("serve.preemptions", delta("serve.preemptions"));
    m.set("serve.cache_hits", delta("serve.cache_hits"));
    m.set("serve.cache_misses", delta("serve.cache_misses"));
    m.set(
        "bench.trace_overhead",
        median(&logged_walls) / median(&plain_walls),
    );
    m.set("bench.unattributed_frac", sum(&unaccounted) / latency_total);
    m.runs.push(("batches", logged_walls.len() as u64));
    m.runs.push(("traced_requests", samples.len() as u64));
    Ok(())
}
