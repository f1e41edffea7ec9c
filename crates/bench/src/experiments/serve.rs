//! Serving benchmark: sustained request throughput and tail latency of
//! the `tit-serve` daemon under increasing client concurrency.
//!
//! An in-process [`tit_serve::Server`] is loaded with identical replay
//! requests against a generated pipeline-ring trace at 1×, 4× and 16×
//! client concurrency (each client owns one connection and pipelines
//! its quota of requests one at a time, the closed-loop model). Every
//! response is checked to be `status:"ok"` — a shed or error run is a
//! benchmark bug, because the queue is sized above the offered load.
//! Reported per level: sustained requests/sec, replayed actions/sec
//! (the cross-benchmark `records_per_sec` currency) and p99 latency.

use crate::table::Table;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;
use tit_core::json::{self, obj, Json};
use tit_core::{Action, ProcessTraceWriter};
use tit_serve::{Server, ServerConfig};

/// Requests issued at every concurrency level.
const REQUESTS: usize = 48;

/// Ranks in the generated trace.
const NPROC: usize = 4;

/// One serving measurement at a fixed client concurrency.
#[derive(Debug, Clone)]
pub struct ServeRecord {
    /// Concurrent closed-loop clients.
    pub concurrency: usize,
    /// Requests issued (all must come back `ok`).
    pub requests: usize,
    /// Trace actions replayed across all requests.
    pub actions: u64,
    /// Burst wall-clock, seconds (first send to last response).
    pub wall_time: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

impl ServeRecord {
    /// Sustained request throughput, requests per wall-clock second.
    pub fn req_per_sec(&self) -> f64 {
        if self.wall_time > 0.0 {
            self.requests as f64 / self.wall_time
        } else {
            0.0
        }
    }

    /// Replayed-action throughput, actions per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        if self.wall_time > 0.0 {
            self.actions as f64 / self.wall_time
        } else {
            0.0
        }
    }
}

/// Writes a pipeline-ring trace (rank 0 injects, the rest relay) and
/// returns the total action count of one replay of it.
fn write_ring(dir: &Path, iters: usize) -> u64 {
    for r in 0..NPROC {
        // panics: benchmark scratch dirs are writable, so failure is a bench bug
        let mut w = ProcessTraceWriter::create(dir, r).expect("create bench trace");
        for _ in 0..iters {
            let actions = if r == 0 {
                vec![
                    Action::Compute { flops: 1e6 },
                    Action::Send { dst: 1, bytes: 1e6 },
                    Action::Recv { src: NPROC - 1, bytes: None },
                ]
            } else {
                vec![
                    Action::Irecv { src: r - 1, bytes: None },
                    Action::Compute { flops: 5e5 },
                    Action::Wait,
                    Action::Send { dst: (r + 1) % NPROC, bytes: 1e6 },
                ]
            };
            for a in &actions {
                // panics: benchmark scratch dirs are writable, so failure is a bench bug
                w.write(a).expect("write bench trace");
            }
        }
        // panics: benchmark scratch dirs are writable, so failure is a bench bug
        w.finish().expect("finish bench trace");
    }
    (iters * (3 + 4 * (NPROC - 1))) as u64
}

/// One closed-loop client: its own connection, `quota` sequential
/// requests, returning per-request latencies in seconds. Each request
/// goes out in one write with Nagle off, so no request waits for the
/// server's delayed ACK of a previous segment.
fn client(port: u16, line: &str, quota: usize) -> Vec<f64> {
    let s = TcpStream::connect(("127.0.0.1", port)).and_then(|s| s.set_nodelay(true).map(|()| s));
    // panics: the server was started by this process, so failure is a bench bug
    let s = s.expect("connect to bench server");
    // panics: cloning a live loopback socket fails only on fd exhaustion
    let mut r = BufReader::new(s.try_clone().expect("clone bench socket"));
    let mut w = s;
    let request = format!("{line}\n");
    let mut latencies = Vec::with_capacity(quota);
    for _ in 0..quota {
        let t0 = Instant::now();
        // panics: the in-process server never closes a connection mid-session
        w.write_all(request.as_bytes()).expect("send bench request");
        let mut resp = String::new();
        // panics: the in-process server never closes a connection mid-session
        r.read_line(&mut resp).expect("read bench response");
        latencies.push(t0.elapsed().as_secs_f64());
        let served =
            json::parse(&resp).is_ok_and(|v| v.get("status").and_then(Json::as_str) == Some("ok"));
        assert!(served, "bench request must be served, got: {}", resp.trim_end());
    }
    latencies
}

/// The replay request line for the generated trace in `trace_dir`.
fn request_line(id: &str, trace_dir: &Path) -> String {
    obj(vec![
        ("op", "replay".into()),
        ("id", id.into()),
        ("trace_dir", trace_dir.display().to_string().into()),
        ("np", NPROC.into()),
    ])
    .to_string()
}

/// Runs `REQUESTS` identical replay requests against `port` from
/// `concurrency` closed-loop clients.
pub fn measure_level(
    port: u16,
    line: &str,
    concurrency: usize,
    actions_per_req: u64,
) -> ServeRecord {
    let quota = REQUESTS / concurrency;
    let requests = quota * concurrency;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|_| {
            let line = line.to_owned();
            std::thread::spawn(move || client(port, &line, quota))
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        // panics: a panicking client thread is a bench bug worth aborting on
        .flat_map(|h| h.join().expect("bench client thread"))
        .collect();
    let wall_time = t0.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let idx = ((latencies.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    ServeRecord {
        concurrency,
        requests,
        actions: actions_per_req * requests as u64,
        wall_time,
        p99_ms: latencies[idx] * 1e3,
    }
}

/// Runs the concurrency sweep (1×, 4×, 16×) against a fresh in-process
/// daemon serving a generated trace, returning the report and records.
pub fn sweep(scale: f64) -> (String, Vec<ServeRecord>) {
    let iters = ((200.0 * scale).round() as usize).max(2);
    let dir = crate::scratch_dir("serve-bench");
    let actions_per_req = write_ring(&dir, iters);

    let server = Server::start(ServerConfig {
        workers: 4,
        queue_cap: 64,
        ..ServerConfig::default()
    })
    // panics: a loopback bind failure aborts the bench run
    .expect("start bench server");
    let line = request_line("bench", &dir);
    let records: Vec<ServeRecord> = [1usize, 4, 16]
        .iter()
        .map(|&c| measure_level(server.port(), &line, c, actions_per_req))
        .collect();
    server.drain();
    // panics: the drained supervisor thread must join cleanly
    server.wait().expect("drain bench server");
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = String::new();
    out.push_str(&format!(
        "Serving — closed-loop request sweep ({actions_per_req} actions/request, scale {scale})\n\n"
    ));
    let mut t = Table::new(&["clients", "requests", "req/s", "actions/s", "p99 (ms)"]);
    for r in &records {
        t.row(&[
            r.concurrency.to_string(),
            r.requests.to_string(),
            format!("{:.1}", r.req_per_sec()),
            format!("{:.0}", r.records_per_sec()),
            format!("{:.2}", r.p99_ms),
        ]);
    }
    out.push_str(&t.render());
    (out, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_measurement_fills_every_field() {
        let dir = crate::scratch_dir("serve-bench-test");
        let per_req = write_ring(&dir, 2);
        assert_eq!(per_req, 2 * (3 + 4 * (NPROC - 1)) as u64);
        let server = Server::start(ServerConfig::default()).unwrap();
        let line = request_line("t", &dir);
        let rec = measure_level(server.port(), &line, 2, per_req);
        assert_eq!(rec.concurrency, 2);
        assert_eq!(rec.requests, REQUESTS / 2 * 2);
        assert_eq!(rec.actions, per_req * rec.requests as u64);
        assert!(rec.wall_time > 0.0 && rec.p99_ms > 0.0);
        assert!(rec.req_per_sec() > 0.0 && rec.records_per_sec() > 0.0);
        server.drain();
        server.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
