//! The daemon itself: listener, connection readers, worker pool,
//! graceful drain.
//!
//! Thread anatomy (all std, no async):
//!
//! * the **supervisor** (spawned by [`Server::start`]) blocks in
//!   `accept`; on drain it closes the admission queue, joins the
//!   workers, flushes metrics atomically and exits;
//! * one **reader** per connection parses length-bounded request
//!   lines; control ops answer inline, replay ops go through
//!   admission;
//! * `workers` **executors** pull from the queue and run
//!   [`crate::exec::process_job`].
//!
//! Drain is triggered by the protocol (`{"op":"drain"}`), by
//! [`Server::drain`], or — in the binary — by stdin EOF, the
//! supervisor-friendly analogue of SIGTERM (a std-only daemon cannot
//! install signal handlers without `unsafe`). Every trigger goes
//! through one function: it sets the drain flag and wakes the blocked
//! `accept` with a throwaway connection to the listener, which the
//! supervisor drops like any connection that arrives once the flag is
//! set. A SIGKILL instead of a drain loses no durable state: the only
//! file the daemon writes (the metrics snapshot) goes through
//! [`tit_core::write_atomic`].

use crate::accesslog::AccessLog;
use crate::exec::{error_response, process_job, respond, Job, Shared, SharedWriter};
use crate::json::{obj, Json};
use crate::proto::{parse_request, Request};
use crate::queue::Refusal;
use crate::{cache::Cache, Admission, ServerConfig};
use std::io::{BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use titobs::Metrics;

/// The drain flag and the listener address that wakes the supervisor.
struct Drain {
    flag: AtomicBool,
    wake: SocketAddr,
}

impl Drain {
    /// Sets the flag, then connects to the listener so the supervisor's
    /// blocking `accept` returns and sees it. A failed connect means the
    /// listener is already closed: the supervisor has drained.
    fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A running daemon.
pub struct Server {
    shared: Arc<Shared>,
    drain: Arc<Drain>,
    addr: SocketAddr,
    supervisor: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Binds, spawns the worker pool and the supervisor, and returns.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut wake = addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let access = match &cfg.access_log {
            Some(path) => Some(crate::accesslog::AccessLog::open(path)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: Cache::new(cfg.cache_cap, tit_extract::RetryPolicy::default()),
            stores: Cache::new(cfg.cache_cap, tit_extract::RetryPolicy::default()),
            queue: Admission::new(cfg.queue_cap),
            metrics: Metrics::new(),
            pressure: AtomicBool::new(cfg.force_preempt),
            access,
            cfg,
        });
        shared.metrics.gauge_set("serve.queue_depth", 0.0);
        if let Some(log) = &shared.access {
            shared.metrics.incr("serve.lost_recovered", log.recovered());
        }
        let drain = Arc::new(Drain { flag: AtomicBool::new(false), wake });

        let mut workers = Vec::new();
        for _ in 0..shared.cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&sh)));
        }

        let sh = Arc::clone(&shared);
        let dr = Arc::clone(&drain);
        let supervisor =
            std::thread::spawn(move || supervise(&listener, &sh, &dr, workers));
        Ok(Server { shared, drain, addr, supervisor: Some(supervisor) })
    }

    /// The bound port (useful with `addr` port 0).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The address the listener is bound to, as bound: an unspecified
    /// host such as `0.0.0.0` stays unspecified (the drain wake-up
    /// connects to the loopback address instead).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (metrics introspection in tests).
    #[must_use]
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Programmatic drain: same effect as the protocol op.
    pub fn drain(&self) {
        self.drain.trigger();
    }

    /// Waits for the daemon to finish draining; returns the
    /// supervisor's result (metrics-flush errors surface here).
    pub fn wait(mut self) -> std::io::Result<()> {
        match self.supervisor.take() {
            Some(h) => h.join().unwrap_or_else(|_| {
                Err(std::io::Error::other("supervisor thread panicked"))
            }),
            None => Ok(()),
        }
    }
}

fn supervise(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    drain: &Arc<Drain>,
    workers: Vec<JoinHandle<()>>,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            // The drain trigger's wake-up, or a client arriving once
            // the flag is set: dropped unserved.
            Ok(_) if drain.is_set() => break,
            Ok((stream, _)) => {
                let sh = Arc::clone(shared);
                let dr = Arc::clone(drain);
                std::thread::spawn(move || serve_connection(stream, &sh, &dr));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // Drain: no new admissions; the backlog (including re-queued
    // preempted jobs) runs to completion, then workers see None.
    shared.queue.close();
    for w in workers {
        let _ = w.join();
    }
    flush_metrics(shared)
}

fn flush_metrics(shared: &Arc<Shared>) -> std::io::Result<()> {
    let Some(path) = &shared.cfg.metrics_path else { return Ok(()) };
    shared.metrics.gauge_set("serve.queue_depth", shared.queue.depth() as f64);
    tit_core::write_atomic(path, shared.metrics.to_json().as_bytes())
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let depth = shared.queue.depth();
        shared.metrics.gauge_set("serve.queue_depth", depth as f64);
        if !shared.cfg.force_preempt && depth < shared.cfg.preempt_backlog {
            shared.pressure.store(false, Ordering::Relaxed);
        }
        process_job(shared, job);
    }
}

/// Reads one length-bounded line. `Ok(None)` is EOF; `Err(())` means
/// the line overflowed (already consumed up to its newline).
fn read_line_bounded(
    r: &mut impl Read,
    max: usize,
) -> std::io::Result<Result<Option<String>, ()>> {
    let mut buf = Vec::new();
    let mut oversized = false;
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() && !oversized {
                    return Ok(Ok(None));
                }
                break;
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if buf.len() >= max {
                    oversized = true;
                    buf.clear();
                } else {
                    buf.push(byte[0]);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if oversized {
        return Ok(Err(()));
    }
    Ok(Ok(Some(String::from_utf8_lossy(&buf).into_owned())))
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>, drain: &Drain) {
    let Ok(write_half) = stream.try_clone() else { return };
    let out: SharedWriter =
        Arc::new(std::sync::Mutex::new(Box::new(std::io::BufWriter::new(write_half))));
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, shared.cfg.max_line_bytes) {
            Ok(Ok(None)) => return, // EOF
            Ok(Ok(Some(line))) => line,
            Ok(Err(())) => {
                shared.metrics.incr("serve.oversized", 1);
                respond(
                    &out,
                    &error_response(
                        "",
                        "oversized",
                        &format!(
                            "request line exceeds {} bytes",
                            shared.cfg.max_line_bytes
                        ),
                    ),
                );
                continue;
            }
            Err(_) => return, // connection error: nothing to salvage
        };
        if line.trim().is_empty() {
            continue;
        }
        shared.metrics.incr("serve.requests", 1);
        match parse_request(&line) {
            Err(detail) => {
                shared.metrics.incr("serve.bad_requests", 1);
                respond(&out, &error_response("", "bad_request", &detail));
            }
            Ok(Request::Ping) => {
                respond(
                    &out,
                    &obj(vec![
                        ("status", Json::Str("ok".into())),
                        ("op", Json::Str("ping".into())),
                    ]),
                );
            }
            Ok(Request::Stats) => {
                respond(
                    &out,
                    &obj(vec![
                        ("status", Json::Str("ok".into())),
                        ("op", Json::Str("stats".into())),
                        ("queue_depth", Json::Num(shared.queue.depth() as f64)),
                        ("queue_capacity", Json::Num(shared.queue.capacity() as f64)),
                        ("cached_traces", Json::Num(shared.cache.len() as f64)),
                        ("draining", Json::Bool(drain.is_set())),
                    ]),
                );
            }
            Ok(Request::Drain) => {
                shared.metrics.incr("serve.drains", 1);
                drain.trigger();
                respond(&out, &obj(vec![("status", Json::Str("draining".into()))]));
            }
            Ok(Request::Metrics) => {
                respond(
                    &out,
                    &obj(vec![
                        ("status", Json::Str("ok".into())),
                        ("op", Json::Str("metrics".into())),
                        ("metrics", shared.metrics.to_json_value()),
                    ]),
                );
            }
            Ok(Request::Replay(req)) => {
                if drain.is_set() {
                    shared.metrics.incr("serve.shed", 1);
                    if let Some(log) = &shared.access {
                        log.shed(&req.id);
                    }
                    respond(&out, &shed_response(&req.id, Refusal::Draining, shared));
                    continue;
                }
                let seq = shared.access.as_ref().map_or(0, AccessLog::next_seq);
                if let Some(log) = &shared.access {
                    // Logged before submission: once a worker can see
                    // the job, its done record must find an admit
                    // record already on disk (order within the file).
                    log.admit(seq, &req.id);
                }
                let job = Job {
                    deadline: req.budget().start(),
                    req: *req,
                    preemptions: 0,
                    resume: None,
                    out: Arc::clone(&out),
                    seq,
                    admitted: std::time::Instant::now(),
                    load_s: 0.0,
                    replay_s: 0.0,
                };
                match shared.queue.submit(job) {
                    Ok(depth) => {
                        shared.metrics.incr("serve.admitted", 1);
                        shared.metrics.gauge_set("serve.queue_depth", depth as f64);
                        if depth >= shared.cfg.preempt_backlog {
                            shared.pressure.store(true, Ordering::Relaxed);
                        }
                    }
                    Err((job, refusal)) => {
                        shared.metrics.incr("serve.shed", 1);
                        if let Some(log) = &shared.access {
                            // Terminal record under the same seq as
                            // the admit line above.
                            log.done(
                                job.seq,
                                &job.req.id,
                                "shed",
                                crate::accesslog::Spans::default(),
                                0,
                            );
                        }
                        respond(&job.out, &shed_response(&job.req.id, refusal, shared));
                    }
                }
            }
        }
    }
}

fn shed_response(id: &str, refusal: Refusal, shared: &Arc<Shared>) -> Json {
    match refusal {
        Refusal::Full => obj(vec![
            ("status", Json::Str("overloaded".into())),
            ("code", Json::Str("queue_full".into())),
            ("id", Json::Str(id.into())),
            ("queue_capacity", Json::Num(shared.queue.capacity() as f64)),
        ]),
        Refusal::Draining => obj(vec![
            ("status", Json::Str("draining".into())),
            ("code", Json::Str("draining".into())),
            ("id", Json::Str(id.into())),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_line_reader_handles_eof_lines_and_overflow() {
        let data = b"short\nlonger line here\n";
        let mut r: &[u8] = data;
        assert_eq!(read_line_bounded(&mut r, 100).unwrap(), Ok(Some("short".into())));
        assert_eq!(
            read_line_bounded(&mut r, 100).unwrap(),
            Ok(Some("longer line here".into()))
        );
        assert_eq!(read_line_bounded(&mut r, 100).unwrap(), Ok(None));

        let mut r: &[u8] = b"0123456789\nok\n";
        assert_eq!(read_line_bounded(&mut r, 4).unwrap(), Err(()));
        assert_eq!(
            read_line_bounded(&mut r, 4).unwrap(),
            Ok(Some("ok".into())),
            "an oversized line is skipped, not fatal"
        );

        // A final line without a newline still comes through.
        let mut r: &[u8] = b"tail";
        assert_eq!(read_line_bounded(&mut r, 100).unwrap(), Ok(Some("tail".into())));
        assert_eq!(read_line_bounded(&mut r, 100).unwrap(), Ok(None));
    }
}
