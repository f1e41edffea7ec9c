//! Streaming timed-trace writer: completion-ordered [`OpRecord`]s to
//! Chrome trace-event JSON or compact CSV, in O(ranks) memory.
//!
//! The engine delivers one record per completed operation, in completion
//! order; the writer formats and emits each record immediately, so
//! memory stays constant in the trace length — the requirement for the
//! paper's §6.5 large-trace regime (LU class D, 1024 ranks), where
//! buffering the timed trace would need tens of gigabytes.
//!
//! # File formats
//!
//! **Chrome JSON** (`TimelineFormat::ChromeJson`) is the trace-event
//! format consumed by `chrome://tracing` and [Perfetto]: a top-level
//! object whose `traceEvents` array holds one `"ph":"M"` metadata event
//! per rank (thread names), one `"ph":"X"` complete event per operation
//! (`ts`/`dur` in microseconds of simulated time, `tid` = rank,
//! `args.volume` = flops or bytes) and one `"ph":"i"` instant event per
//! rank termination. `otherData.simulated_time_s` carries the makespan.
//!
//! **CSV** (`TimelineFormat::Csv`) is one `rank,action,start,end,volume`
//! row per operation with seconds to 9 decimal places, written as each
//! record arrives (the layout `tit-profile` reads back).
//!
//! Identical replays produce byte-identical files: all formatting is
//! fixed-precision or shortest-roundtrip decimal, and no wall-clock
//! timestamps are embedded.
//!
//! [Perfetto]: https://ui.perfetto.dev

use crate::TagNamer;
use simkern::observer::{Observer, OpRecord};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Output encoding of the timed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineFormat {
    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    ChromeJson,
    /// `rank,action,start,end,volume` rows.
    Csv,
}

/// What the writer saw, reported by [`Timeline::finish`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSummary {
    /// Operation events written.
    pub events: u64,
    /// True when record completion times were non-decreasing (the
    /// engine's contract; a false value indicates a kernel bug).
    pub monotone: bool,
    /// Simulated makespan, when the run completed (engine-end event).
    pub simulated_time: Option<f64>,
}

struct Inner<W: Write> {
    w: W,
    format: TimelineFormat,
    names: TagNamer,
    events: u64,
    last_end: f64,
    monotone: bool,
    simulated_time: Option<f64>,
    /// First I/O error hit while streaming; surfaced by `finish`.
    err: Option<std::io::Error>,
    finished: bool,
}

impl<W: Write> Inner<W> {
    fn emit(&mut self, f: impl FnOnce(&mut W) -> std::io::Result<()>) {
        if self.err.is_none() && !self.finished {
            if let Err(e) = f(&mut self.w) {
                self.err = Some(e);
            }
        }
    }
}

/// Handle to a streaming timed-trace writer.
///
/// Construction writes the header; [`Timeline::sink`] yields the
/// [`Observer`] half to install in the engine (directly or inside a
/// [`simkern::observer::Fanout`]); [`Timeline::finish`] writes the
/// trailer, flushes, and reports the first I/O error hit while
/// streaming, if any.
pub struct Timeline<W: Write> {
    inner: Arc<Mutex<Inner<W>>>,
    nranks: usize,
}

/// The [`Observer`] half of a [`Timeline`] (install into the engine).
pub struct TimelineSink<W: Write> {
    inner: Arc<Mutex<Inner<W>>>,
}

impl<W: Write + 'static> Timeline<W> {
    /// Starts a timed trace over `w` for `nranks` ranks, naming tags
    /// through `names`. The format header is written immediately.
    pub fn new(
        mut w: W,
        nranks: usize,
        format: TimelineFormat,
        names: TagNamer,
    ) -> std::io::Result<Self> {
        match format {
            TimelineFormat::ChromeJson => {
                write!(w, "{{\"traceEvents\":[")?;
                write!(
                    w,
                    "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"tit-replay\"}}}}"
                )?;
                for r in 0..nranks {
                    write!(
                        w,
                        ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{r},\"args\":{{\"name\":\"rank {r}\"}}}}"
                    )?;
                }
            }
            TimelineFormat::Csv => {
                writeln!(w, "rank,action,start,end,volume")?;
            }
        }
        Ok(Timeline {
            inner: Arc::new(Mutex::new(Inner {
                w,
                format,
                names,
                events: 0,
                last_end: f64::NEG_INFINITY,
                monotone: true,
                simulated_time: None,
                err: None,
                finished: false,
            })),
            nranks,
        })
    }

    /// The observer half, to install into the engine. Multiple sinks of
    /// the same timeline share the underlying writer.
    #[must_use]
    pub fn sink(&self) -> Box<dyn Observer> {
        Box::new(TimelineSink { inner: self.inner.clone() })
    }

    /// Ranks announced at construction.
    #[must_use]
    pub fn num_ranks(&self) -> usize {
        self.nranks
    }

    /// Writes the format trailer, flushes, and returns what the writer
    /// saw. The first I/O error hit while streaming (record calls cannot
    /// report errors) is returned here. Idempotent trailer: calling
    /// `finish` twice writes it once.
    pub fn finish(&self) -> std::io::Result<TimelineSummary> {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.err.take() {
            return Err(e);
        }
        if !g.finished {
            let format = g.format;
            let sim = g.simulated_time;
            let events = g.events;
            let r = match format {
                TimelineFormat::ChromeJson => {
                    let sim_field = match sim {
                        Some(t) => format!("\"{t}\""),
                        None => "null".to_string(),
                    };
                    write!(
                        g.w,
                        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"simulated_time_s\":{sim_field},\"events\":\"{events}\"}}}}\n"
                    )
                }
                TimelineFormat::Csv => Ok(()),
            }
            .and_then(|()| g.w.flush());
            g.finished = true;
            r?;
        }
        Ok(TimelineSummary {
            events: g.events,
            monotone: g.monotone,
            simulated_time: g.simulated_time,
        })
    }

    /// Reclaims the underlying writer, consuming the timeline. Returns
    /// `None` while any [`Timeline::sink`] observer is still alive (the
    /// writer is shared with it). Call after the engine run and
    /// [`Timeline::finish`]: this is how a crash-safe writer (e.g.
    /// `tit_core::AtomicFile`) gets back to its owner to be committed —
    /// the timeline only becomes visible on disk once the trailer is
    /// complete.
    pub fn into_writer(self) -> Option<W> {
        Arc::try_unwrap(self.inner).ok().map(|m| {
            // panics: mutex poisoned only if another thread already panicked
            m.into_inner().unwrap().w
        })
    }
}

impl<W: Write> Observer for TimelineSink<W> {
    fn record(&mut self, rec: OpRecord) {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        if rec.end < g.last_end {
            g.monotone = false;
        }
        g.last_end = rec.end;
        g.events += 1;
        g.write_record(rec);
    }

    fn actor_ended(&mut self, actor: usize, time: f64) {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        if g.format == TimelineFormat::ChromeJson {
            g.emit(|w| {
                write!(
                    w,
                    ",\n{{\"name\":\"rank-end\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":0,\"tid\":{actor}}}",
                    time * 1e6
                )
            });
        }
    }

    fn engine_ended(&mut self, time: f64) {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().simulated_time = Some(time);
    }
}

impl<W: Write> Inner<W> {
    fn write_record(&mut self, rec: OpRecord) {
        let name = (self.names)(rec.tag);
        let format = self.format;
        self.emit(|w| match format {
            TimelineFormat::ChromeJson => write!(
                w,
                ",\n{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"volume\":{}}}}}",
                rec.start * 1e6,
                (rec.end - rec.start) * 1e6,
                rec.actor,
                rec.volume
            ),
            TimelineFormat::Csv => writeln!(
                w,
                "{},{name},{:.9},{:.9},{}",
                rec.actor, rec.start, rec.end, rec.volume
            ),
        });
    }
}

/// An in-memory shared byte sink: lets tests and callers stream a
/// timeline into memory and read the bytes back after
/// [`Timeline::finish`] (the timeline owns its writer, so a plain
/// `Vec<u8>` would be inaccessible).
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the bytes written so far.
    #[must_use]
    pub fn contents(&self) -> Vec<u8> {
        // panics: mutex poisoned only if another thread already panicked
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // panics: mutex poisoned only if another thread already panicked
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_name(tag: u32) -> &'static str {
        match tag {
            1 => "compute",
            2 => "send",
            _ => "other",
        }
    }

    fn demo_records() -> Vec<OpRecord> {
        vec![
            OpRecord { actor: 0, tag: 1, start: 0.0, end: 1.0, volume: 1e9 },
            OpRecord { actor: 1, tag: 2, start: 0.5, end: 1.5, volume: 4096.0 },
        ]
    }

    fn run_through(format: TimelineFormat) -> (String, TimelineSummary) {
        let buf = SharedBuf::new();
        let tl = Timeline::new(buf.clone(), 2, format, demo_name).unwrap();
        let mut sink = tl.sink();
        for r in demo_records() {
            sink.record(r);
        }
        sink.actor_ended(0, 1.0);
        sink.actor_ended(1, 1.5);
        sink.engine_ended(1.5);
        drop(sink);
        let summary = tl.finish().unwrap();
        (String::from_utf8(buf.contents()).unwrap(), summary)
    }

    #[test]
    fn csv_matches_collected_format() {
        let (text, summary) = run_through(TimelineFormat::Csv);
        assert_eq!(summary.events, 2);
        assert!(summary.monotone);
        assert_eq!(summary.simulated_time, Some(1.5));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "rank,action,start,end,volume");
        assert_eq!(lines[1], "0,compute,0.000000000,1.000000000,1000000000");
        assert_eq!(lines[2], "1,send,0.500000000,1.500000000,4096");
    }

    #[test]
    fn chrome_json_has_metadata_events_and_trailer() {
        let (text, summary) = run_through(TimelineFormat::ChromeJson);
        assert_eq!(summary.events, 2);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"name\":\"compute\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1000000.000"));
        assert!(text.contains("\"name\":\"rank-end\",\"ph\":\"i\""));
        assert!(text.contains("\"simulated_time_s\":\"1.5\""));
        assert!(text.trim_end().ends_with('}'));
        // Balanced braces/brackets — a cheap structural JSON sanity check.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn non_monotone_records_are_flagged() {
        let tl = Timeline::new(SharedBuf::new(), 1, TimelineFormat::Csv, demo_name).unwrap();
        let mut sink = tl.sink();
        sink.record(OpRecord { actor: 0, tag: 1, start: 0.0, end: 2.0, volume: 0.0 });
        sink.record(OpRecord { actor: 0, tag: 1, start: 0.0, end: 1.0, volume: 0.0 });
        drop(sink);
        assert!(!tl.finish().unwrap().monotone);
    }

    #[test]
    fn into_writer_reclaims_writer_after_sinks_drop() {
        let tl = Timeline::new(Vec::new(), 1, TimelineFormat::Csv, demo_name).unwrap();
        let mut sink = tl.sink();
        sink.record(OpRecord { actor: 0, tag: 1, start: 0.0, end: 1.0, volume: 8.0 });
        drop(sink);
        tl.finish().unwrap();
        let bytes = tl.into_writer().expect("no sinks alive");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("rank,action,start,end,volume"));
        assert!(text.contains("0,compute,"));
    }

    #[test]
    fn into_writer_refuses_while_sink_alive() {
        let tl = Timeline::new(Vec::new(), 1, TimelineFormat::Csv, demo_name).unwrap();
        let _sink = tl.sink();
        assert!(tl.into_writer().is_none());
    }

    #[test]
    fn finish_is_idempotent() {
        let buf = SharedBuf::new();
        let tl = Timeline::new(buf.clone(), 1, TimelineFormat::ChromeJson, demo_name).unwrap();
        tl.finish().unwrap();
        tl.finish().unwrap();
        let text = String::from_utf8(buf.contents()).unwrap();
        assert_eq!(text.matches("displayTimeUnit").count(), 1);
    }
}
