//! Per-request execution: isolation, deadlines, preemption, typed
//! responses.
//!
//! A worker takes a [`Job`] off the admission queue and drives it to a
//! response. Every failure mode is contained to the request that
//! caused it:
//!
//! * a bad trace reference → `error/trace_load` (after bounded retry
//!   of transient I/O);
//! * an expired deadline → `partial/deadline` with a completeness
//!   ratio — queue wait counts against the budget (the deadline is
//!   anchored at admission), so a request cannot spend its budget
//!   waiting and then hog a worker;
//! * a dropped-rank deadlock → `partial/damaged`;
//! * a panic anywhere in the replay → `error/internal` (the worker
//!   thread survives — the pool never shrinks);
//! * queue pressure → the engine state is exported at a safe point and
//!   the job re-queued, up to [`crate::ServerConfig::max_preemptions`]
//!   hops, after which it runs to completion.
//!
//! Responses are deterministic: no wall-clock fields, insertion-order
//! JSON — the same admitted request set produces byte-identical
//! response lines whether it ran serially or across a contended pool
//! (latency lives in the metrics, not the payload).

use crate::accesslog::{AccessLog, Spans};
use crate::json::{obj, Json};
use crate::proto::ReplayRequest;
use crate::queue::Admission;
use crate::{
    cache::{StoreCache, TraceCache},
    ServerConfig,
};
use simkern::resource::HostId;
use simkern::Platform;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use tit_core::{Budget, Deadline};
use tit_platform::desc::PlatformDesc;
use tit_replay::{
    Input, Replay, ReplayCheckpoint, ReplayError, ReplayOutcome, SegmentCache, Status, Stop,
};
use titobs::Metrics;

/// Where a job's response line goes (the connection's shared writer).
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// One admitted replay request in flight.
pub struct Job {
    /// The validated request.
    pub req: ReplayRequest,
    /// Running deadline, anchored at admission.
    pub deadline: Deadline,
    /// Preemption hops so far.
    pub preemptions: u32,
    /// Exported engine state from the last preemption, if any.
    pub resume: Option<ReplayCheckpoint>,
    /// Where the response line goes.
    pub out: SharedWriter,
    /// Access-log sequence number assigned at admission.
    pub seq: u64,
    /// When the request was admitted (span attribution anchor).
    pub admitted: std::time::Instant,
    /// Trace-load wall seconds accumulated across hops.
    pub load_s: f64,
    /// Engine wall seconds accumulated across hops.
    pub replay_s: f64,
}

/// Everything a worker needs, shared across the pool.
pub struct Shared {
    /// Server configuration (immutable after start).
    pub cfg: ServerConfig,
    /// The interned-trace cache.
    pub cache: TraceCache,
    /// The open `TIB2` store-handle cache (content-revalidated hits).
    pub stores: StoreCache,
    /// The admission queue.
    pub queue: Admission<Job>,
    /// serve.* counters and gauges.
    pub metrics: Metrics,
    /// Queue-pressure flag: workers preempt long jobs while it reads
    /// true.
    pub pressure: AtomicBool,
    /// Structured per-request access log, when configured.
    pub access: Option<AccessLog>,
}

/// Writes one response line; a dead client is the client's problem,
/// not the worker's.
pub fn respond(out: &SharedWriter, v: &Json) {
    // panics: mutex poisoned only if another thread already panicked
    let mut w = out.lock().unwrap();
    let _ = writeln!(w, "{v}");
    let _ = w.flush();
}

/// An `error` response.
#[must_use]
pub fn error_response(id: &str, code: &str, detail: &str) -> Json {
    obj(vec![
        ("status", Json::Str("error".into())),
        ("code", Json::Str(code.into())),
        ("id", Json::Str(id.into())),
        ("detail", Json::Str(detail.into())),
    ])
}

/// The platform variant and per-rank host placement a request selects
/// ([`tit_replay::Spec::build`]). Rebuilt identically on every hop of a
/// preempted job, so the resume fingerprint check holds. A request
/// [`parse_request`](crate::parse_request) accepted always builds; one
/// that does not gets no hosts, which the replay refuses as a
/// `bad_request`.
#[must_use]
pub fn build_platform(req: &ReplayRequest) -> (Platform, Vec<HostId>) {
    let built = req.spec.build(req.np);
    built.map_or_else(|_| (PlatformDesc::default().build(), Vec::new()), |b| (b.0, b.1))
}

/// The request's trace, whichever reference form named it.
enum Loaded {
    /// A fully-interned compact trace (the `trace_dir` reference).
    Compact(Arc<tit_core::CompactTrace>),
    /// An open segmented store (the `store` reference).
    Store(Arc<tit_core::Tib2Store>),
}

impl Loaded {
    /// The replay input: a shared-trace cursor per kept rank, or a
    /// fresh per-job [`SegmentCache`] (unbounded — admission control,
    /// not a byte cap, is the daemon's memory governor); an empty
    /// stream per dropped rank (the degraded subset).
    fn input(&self, req: &ReplayRequest) -> Input {
        let input = match self {
            Loaded::Compact(trace) => Input::compact(trace),
            Loaded::Store(store) => Input::store(&Arc::new(SegmentCache::new(
                Arc::clone(store),
                Arc::new(tit_core::MemBudget::unlimited()),
            ))),
        };
        input.without_ranks(&req.drop_ranks)
    }
}

/// The response status, code and `serve.*` counter of a rendered
/// (not preempted) outcome.
fn outcome_kind(status: Status) -> (&'static str, Option<&'static str>, &'static str) {
    match status {
        Status::Finished { .. } => ("ok", None, "serve.ok"),
        Status::Stopped(Stop::Deadline) => ("partial", Some("deadline"), "serve.partial_deadline"),
        Status::Stopped(Stop::Damaged) => ("partial", Some("damaged"), "serve.partial_damaged"),
        // panics: a request sets no stop-after count, and preempted jobs
        // are requeued, never rendered
        Status::Stopped(Stop::StopAfter | Stop::Preempted) => unreachable!("not a response"),
    }
}

fn outcome_response(req: &ReplayRequest, out: &ReplayOutcome) -> Json {
    let (status, code, _) = outcome_kind(out.status);
    let mut pairs = vec![("status", Json::Str(status.into()))];
    if let Some(c) = code {
        pairs.push(("code", Json::Str(c.into())));
    }
    pairs.push(("id", Json::Str(req.id.clone())));
    pairs.push(("simulated_time", Json::Num(out.simulated_time)));
    pairs.push(("actions_replayed", Json::Num(out.actions_replayed as f64)));
    pairs.push(("actions_expected", Json::Num(out.actions_expected as f64)));
    pairs.push(("completeness", Json::Num(out.completeness())));
    if let Some(f) = &out.failure {
        pairs.push(("detail", Json::Str(f.clone())));
    }
    obj(pairs)
}

fn classify_replay_error(e: &ReplayError) -> &'static str {
    match e {
        ReplayError::Deployment { .. } => "bad_request",
        _ => "replay_failed",
    }
}

/// Drives one job to a response or a requeue. Never panics outward.
pub fn process_job(shared: &Arc<Shared>, mut job: Job) {
    if !shared.cfg.job_delay.is_zero() {
        std::thread::sleep(shared.cfg.job_delay);
    }
    let id = job.req.id.clone();
    let result = catch_unwind(AssertUnwindSafe(|| run_job(shared, &mut job)));
    match result {
        Ok(JobEnd::Responded(v)) => {
            let t = std::time::Instant::now();
            respond(&job.out, &v);
            let status = match v.get("status") {
                Some(Json::Str(s)) => s.clone(),
                _ => "error".into(),
            };
            log_done(shared, &job, &status, t.elapsed().as_secs_f64());
        }
        Ok(JobEnd::Requeued) => {
            shared.metrics.incr("serve.preemptions", 1);
            if let Some(log) = &shared.access {
                log.preempt(job.seq, &job.req.id, job.preemptions);
            }
            shared.queue.requeue(job);
            shared.metrics.gauge_set("serve.queue_depth", shared.queue.depth() as f64);
        }
        Err(panic) => {
            let detail: &str = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("panic in request handler");
            shared.metrics.incr("serve.errors", 1);
            let t = std::time::Instant::now();
            respond(&job.out, &error_response(&id, "internal", detail));
            log_done(shared, &job, "error", t.elapsed().as_secs_f64());
        }
    }
}

/// Writes the terminal access-log record for a responded job: total
/// wall since admission, split into queue/load/replay/respond spans
/// (queue is the remainder — time not spent working).
fn log_done(shared: &Arc<Shared>, job: &Job, status: &str, respond_s: f64) {
    let Some(log) = &shared.access else { return };
    let total = job.admitted.elapsed().as_secs_f64();
    let spans = Spans {
        queue_s: (total - job.load_s - job.replay_s - respond_s).max(0.0),
        load_s: job.load_s,
        replay_s: job.replay_s,
        respond_s,
    };
    log.done(job.seq, &job.req.id, status, spans, job.preemptions);
}

enum JobEnd {
    Responded(Json),
    Requeued,
}

fn run_job(shared: &Arc<Shared>, job: &mut Job) -> JobEnd {
    let req = &job.req;
    let t0 = std::time::Instant::now();

    // Deadline check up front: a request that spent its whole budget
    // queued returns a zero-work partial without starting the engine.
    let t_load = std::time::Instant::now();
    let loaded = if let Some(store_path) = &req.store {
        match shared.stores.get_or_open(req.trace_key(), store_path) {
            Ok((store, hit)) => {
                shared
                    .metrics
                    .incr(if hit { "serve.cache_hits" } else { "serve.cache_misses" }, 1);
                if store.num_ranks() != req.np {
                    shared.metrics.incr("serve.errors", 1);
                    return JobEnd::Responded(error_response(
                        &req.id,
                        "trace_load",
                        &format!(
                            "store has {} rank(s), request says np={}",
                            store.num_ranks(),
                            req.np
                        ),
                    ));
                }
                Loaded::Store(store)
            }
            Err(e) => {
                shared.metrics.incr("serve.errors", 1);
                return JobEnd::Responded(error_response(&req.id, "trace_load", &e.to_string()));
            }
        }
    } else {
        match shared.cache.get_or_load(req.trace_key(), &req.trace_dir, req.np) {
            Ok((trace, hit)) => {
                shared
                    .metrics
                    .incr(if hit { "serve.cache_hits" } else { "serve.cache_misses" }, 1);
                Loaded::Compact(trace)
            }
            Err(e) => {
                shared.metrics.incr("serve.errors", 1);
                return JobEnd::Responded(error_response(&req.id, "trace_load", &e.to_string()));
            }
        }
    };
    job.load_s += t_load.elapsed().as_secs_f64();

    let (platform, hosts) = build_platform(req);
    let preempt_eligible = job.preemptions < shared.cfg.max_preemptions;
    let cfg = req.replay_config();
    let t_replay = std::time::Instant::now();
    let outcome = Replay::new(loaded.input(req), platform, &hosts, &cfg)
        .pause_every(shared.cfg.slice_actions)
        // What is left of the budget: queue wait has already spent its share.
        .deadline(job.deadline.remaining().map_or_else(Budget::unlimited, Budget::limited))
        .preempt(preempt_eligible.then_some(&shared.pressure))
        .resume(job.resume.take())
        .tolerate_damage(!req.drop_ranks.is_empty())
        .run();
    job.replay_s += t_replay.elapsed().as_secs_f64();
    shared.metrics.observe_wall("serve.request_wall", t0.elapsed().as_secs_f64());
    match outcome {
        Ok(out) if out.status == Status::Stopped(Stop::Preempted) => {
            job.resume = out.paused;
            job.preemptions += 1;
            JobEnd::Requeued
        }
        Ok(out) => {
            shared.metrics.incr(outcome_kind(out.status).2, 1);
            JobEnd::Responded(outcome_response(req, &out))
        }
        Err(e) => {
            shared.metrics.incr("serve.errors", 1);
            JobEnd::Responded(error_response(
                &req.id,
                classify_replay_error(&e),
                &e.to_string(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;
    use crate::proto::Request;
    use tit_core::{Action, ProcessTraceWriter};
    use tit_extract::RetryPolicy;

    // A deadlock-free ring pipeline: rank 0 injects, the others relay
    // via a posted irecv (plain send/send/recv rings deadlock on
    // blocking sends).
    fn write_ring(dir: &std::path::Path, n: usize, iters: usize) {
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

    fn shared() -> Arc<Shared> {
        let cfg = ServerConfig::default();
        Arc::new(Shared {
            cache: TraceCache::new(cfg.cache_cap, RetryPolicy::default()),
            stores: StoreCache::new(cfg.cache_cap, RetryPolicy::default()),
            queue: Admission::new(cfg.queue_cap),
            metrics: Metrics::new(),
            pressure: AtomicBool::new(false),
            access: None,
            cfg,
        })
    }

    fn sink() -> (SharedWriter, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        struct S(Arc<Mutex<Vec<u8>>>);
        impl Write for S {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        (Arc::new(Mutex::new(Box::new(S(Arc::clone(&buf))))), buf)
    }

    fn replay_req(line: &str) -> ReplayRequest {
        match parse_request(line).unwrap() {
            Request::Replay(r) => *r,
            other => panic!("{other:?}"),
        }
    }

    fn job_for(req: ReplayRequest, out: SharedWriter) -> Job {
        Job {
            deadline: req.budget().start(),
            req,
            preemptions: 0,
            resume: None,
            out,
            seq: 0,
            admitted: std::time::Instant::now(),
            load_s: 0.0,
            replay_s: 0.0,
        }
    }

    #[test]
    fn ok_response_and_cache_hit_on_second_request() {
        let d = std::env::temp_dir().join(format!("tit-serve-exec-ok-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        write_ring(&d, 3, 2);
        let sh = shared();
        let line = format!(
            "{{\"op\":\"replay\",\"id\":\"a\",\"trace_dir\":{:?},\"np\":3}}",
            d.display().to_string()
        );
        let (out, buf) = sink();
        process_job(&sh, job_for(replay_req(&line), Arc::clone(&out)));
        process_job(&sh, job_for(replay_req(&line), out));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1], "identical request, identical response");
        assert!(lines[0].starts_with("{\"status\":\"ok\",\"id\":\"a\""), "{}", lines[0]);
        assert!(lines[0].contains("\"completeness\":1"), "{}", lines[0]);
        assert_eq!(sh.metrics.counter("serve.cache_hits"), 1);
        assert_eq!(sh.metrics.counter("serve.cache_misses"), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_trace_is_a_typed_error_not_a_crash() {
        let sh = shared();
        let (out, buf) = sink();
        let req = replay_req(
            "{\"op\":\"replay\",\"id\":\"b\",\"trace_dir\":\"/nonexistent/xyz\",\"np\":2}",
        );
        process_job(&sh, job_for(req, out));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(
            text.starts_with("{\"status\":\"error\",\"code\":\"trace_load\",\"id\":\"b\""),
            "{text}"
        );
        assert_eq!(sh.metrics.counter("serve.errors"), 1);
    }

    #[test]
    fn dropped_rank_yields_partial_damaged() {
        let d = std::env::temp_dir().join(format!("tit-serve-exec-deg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        write_ring(&d, 3, 2);
        let sh = shared();
        let (out, buf) = sink();
        let line = format!(
            "{{\"op\":\"replay\",\"id\":\"c\",\"trace_dir\":{:?},\"np\":3,\"drop_ranks\":[1]}}",
            d.display().to_string()
        );
        process_job(&sh, job_for(replay_req(&line), out));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(
            text.starts_with("{\"status\":\"partial\",\"code\":\"damaged\",\"id\":\"c\""),
            "{text}"
        );
        assert!(text.contains("\"detail\":"), "{text}");
        assert_eq!(sh.metrics.counter("serve.partial_damaged"), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn damaged_store_fails_closed_naming_the_segment() {
        let d = std::env::temp_dir().join(format!("tit-serve-exec-tib2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        write_ring(&d, 3, 20);
        let store = d.join("ring.tib2");
        let trace = tit_core::load_compact_exact(&d, 3, 1).unwrap();
        tit_core::tib2::write_compact_atomic(&store, &trace, 8).unwrap();
        let offset = tit_core::Tib2Store::open(&store).unwrap().segment_meta(1, 1).unwrap().offset;
        let mut bytes = std::fs::read(&store).unwrap();
        bytes[offset as usize + 20] ^= 0x40;
        std::fs::write(&store, &bytes).unwrap();
        let sh = shared();
        let (out, buf) = sink();
        let line = format!(
            "{{\"op\":\"replay\",\"id\":\"s\",\"store\":{:?},\"np\":3}}",
            store.display().to_string()
        );
        process_job(&sh, job_for(replay_req(&line), out));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(
            text.starts_with("{\"status\":\"error\",\"code\":\"replay_failed\",\"id\":\"s\""),
            "{text}"
        );
        // The typed store error, not the actor failure it surfaced as.
        assert!(text.contains("\"detail\":\"TIB2 segment damaged: rank 1 segment 1 "), "{text}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn zero_budget_yields_partial_deadline() {
        let d = std::env::temp_dir().join(format!("tit-serve-exec-dl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        write_ring(&d, 3, 60);
        let sh = shared();
        let (out, buf) = sink();
        let line = format!(
            "{{\"op\":\"replay\",\"id\":\"d\",\"trace_dir\":{:?},\"np\":3,\"max_wall_s\":0}}",
            d.display().to_string()
        );
        process_job(&sh, job_for(replay_req(&line), out));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(
            text.starts_with("{\"status\":\"partial\",\"code\":\"deadline\",\"id\":\"d\""),
            "{text}"
        );
        assert_eq!(sh.metrics.counter("serve.partial_deadline"), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn forced_preemption_requeues_then_finishes_identically() {
        let d = std::env::temp_dir().join(format!("tit-serve-exec-pre-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        write_ring(&d, 3, 5);
        let line = format!(
            "{{\"op\":\"replay\",\"id\":\"e\",\"trace_dir\":{:?},\"np\":3}}",
            d.display().to_string()
        );

        // Reference: no preemption.
        let sh0 = shared();
        let (out0, buf0) = sink();
        process_job(&sh0, job_for(replay_req(&line), out0));
        let reference = String::from_utf8(buf0.lock().unwrap().clone()).unwrap();

        // Pressure always on, tiny slices: the job must hop through
        // the queue max_preemptions times and still answer the same.
        let cfg = ServerConfig { slice_actions: 3, ..ServerConfig::default() };
        let sh = Arc::new(Shared {
            cache: TraceCache::new(cfg.cache_cap, RetryPolicy::default()),
            stores: StoreCache::new(cfg.cache_cap, RetryPolicy::default()),
            queue: Admission::new(cfg.queue_cap),
            metrics: Metrics::new(),
            pressure: AtomicBool::new(true),
            access: None,
            cfg,
        });
        let (out, buf) = sink();
        process_job(&sh, job_for(replay_req(&line), out));
        let mut hops = 0;
        while let Some(job) = sh.queue.pop() {
            hops += 1;
            assert!(hops <= sh.cfg.max_preemptions, "preemption must cap");
            process_job(&sh, job);
            if !buf.lock().unwrap().is_empty() {
                break;
            }
        }
        assert_eq!(hops, sh.cfg.max_preemptions);
        let preempted = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(preempted, reference, "preempt/resume must not change the answer");
        assert_eq!(sh.metrics.counter("serve.preemptions"), u64::from(hops));
        let _ = std::fs::remove_dir_all(&d);
    }
}
