//! `tit-serve` — the replay daemon binary.
//!
//! ```text
//! tit-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!           [--cache-cap N] [--slice N] [--max-line-bytes N]
//!           [--preempt-backlog N] [--max-preemptions N]
//!           [--metrics FILE] [--access-log FILE] [--drain-on-stdin]
//!           [--force-preempt] [--job-delay-ms N] [--help]
//! ```
//!
//! Prints `listening on HOST:PORT` once the socket is bound (scripts
//! parse this to find a port-0 assignment), then serves until drained
//! — via the protocol (`{"op":"drain"}`) or, with `--drain-on-stdin`,
//! when stdin reaches EOF (the supervisor-friendly SIGTERM analogue:
//! run the daemon with its stdin on a pipe and close the pipe to stop
//! it). `--force-preempt` and `--job-delay-ms` are the chaos-harness
//! hooks described in docs/SERVING.md.
//!
//! Exit codes: `0` drained cleanly — `1` runtime failure — `2` usage
//! error (a flag the usage line does not list, or a value its flag does
//! not take).

use std::io::Read;
use std::time::Duration;
use tit_cli::{or_exit, Args};
use tit_serve::{Server, ServerConfig};

const USAGE: &str = "tit-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N] [--slice N] [--max-line-bytes N] [--preempt-backlog N] [--max-preemptions N] [--metrics FILE] [--access-log FILE] [--drain-on-stdin] [--force-preempt] [--job-delay-ms N] [--help]";

fn main() {
    let args = Args::from_env(USAGE);
    if args.has_flag("help") {
        println!("usage: {USAGE}");
        return;
    }
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: args.get_or("addr", defaults.addr.clone()),
        workers: args.get_or("workers", defaults.workers),
        queue_cap: args.get_or("queue-cap", defaults.queue_cap),
        cache_cap: args.get_or("cache-cap", defaults.cache_cap),
        slice_actions: args.get_or("slice", defaults.slice_actions),
        preempt_backlog: args.get_or("preempt-backlog", defaults.preempt_backlog),
        max_preemptions: args.get_or("max-preemptions", defaults.max_preemptions),
        max_line_bytes: args.get_or("max-line-bytes", defaults.max_line_bytes),
        metrics_path: args.get("metrics").map(Into::into),
        access_log: args.get("access-log").map(Into::into),
        force_preempt: args.has_flag("force-preempt"),
        job_delay: Duration::from_millis(args.get_or("job-delay-ms", 0)),
    };
    let drain_on_stdin = args.has_flag("drain-on-stdin");

    let server = or_exit(Server::start(cfg), "tit-serve: cannot start");
    println!("listening on 127.0.0.1:{}", server.port());

    if drain_on_stdin {
        // Consume stdin until EOF, then drain: `daemon < pipe` stops
        // gracefully when the supervisor closes the pipe.
        let mut sink = [0u8; 4096];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        server.drain();
    }

    or_exit(server.wait(), "tit-serve");
}
