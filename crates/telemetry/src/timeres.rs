//! Time-resolved metrics: per-window, per-rank compute/comm breakdowns
//! over *simulated* time, in O(ranks + open windows) memory.
//!
//! Whole-run profiles ([`crate::profile::Profile`]) answer *how much*;
//! they cannot answer *when*. Following Haldar's trace-based
//! time-resolved standard metrics, this module segments the simulated
//! clock into windows and reports, per window: compute/comm time, bytes
//! and flops moved, operation counts, the peak number of in-flight
//! communications, and two derived standard metrics — the
//! communication fraction and the cross-rank load imbalance
//! (max busy / mean busy).
//!
//! # Windowing
//!
//! Two boundary sources compose freely ([`WindowSpec`]):
//!
//! * **Fixed width** — boundaries at every multiple of `width`
//!   seconds. A record whose end lands exactly on a boundary belongs
//!   to the *next* window (windows are `[start, end)`).
//! * **Phase boundaries** — a phase closes at the first instant every
//!   rank has completed at least one collective operation since the
//!   last boundary (the application-level synchronization structure:
//!   a barrier/allreduce sweep ends a phase). The triggering record is
//!   *inside* the closing window (`[start, end]`).
//!
//! Records are attributed wholly to the window containing their
//! completion time. Because the engine delivers records in
//! non-decreasing completion order, windows close in stream order:
//! exactly one window is ever open, closed windows reduce to an
//! aggregate summary, and the per-rank detail streams to CSV at close
//! — memory stays O(ranks + closed-window summaries) regardless of
//! trace length. Empty windows are omitted from both outputs.
//!
//! # Determinism and conservation
//!
//! Accumulation is plain `+=` over the engine's deterministic record
//! order — the *same* order [`crate::profile::ProfileSink`] uses — so
//! the final cumulative per-rank totals equal the whole-run profile
//! bit-for-bit, and every output is byte-identical across runs and
//! `--jobs` values (ingestion parallelism never reorders completion).
//! The CSV prints floats in shortest-roundtrip form, so parsing a row
//! back recovers the exact `f64` (tests/timeres.rs leans on this).

use crate::TagClassifier;
use simkern::observer::{Observer, OpRecord};
use std::io::Write;
use std::sync::{Arc, Mutex};
use tit_core::json::Json;
use tit_core::json_obj;

/// Window boundary configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSpec {
    /// Fixed window width in simulated seconds (`None`: no fixed
    /// boundaries). Must be positive and finite when present.
    pub width: Option<f64>,
    /// Detect phase boundaries at collective completions.
    pub phases: bool,
}

impl WindowSpec {
    /// Phase detection only (the default for `--time-resolved`).
    #[must_use]
    pub fn phases_only() -> Self {
        WindowSpec { width: None, phases: true }
    }
}

/// What closed a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// A fixed-width boundary (window is `[start, end)`).
    Fixed,
    /// A phase boundary — every rank completed a collective (window is
    /// `[start, end]`, triggering record inside).
    Phase,
    /// The end-of-run flush ([`TimeResolved::finish`]).
    Final,
}

impl WindowKind {
    /// Stable lower-case name used in CSV and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WindowKind::Fixed => "fixed",
            WindowKind::Phase => "phase",
            WindowKind::Final => "final",
        }
    }
}

/// Whole-run per-rank totals, accumulated in the exact order
/// [`crate::profile::ProfileSink`] uses (bit-for-bit conservation
/// against the whole-run profile).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankTotals {
    /// Seconds in computation operations.
    pub compute_time: f64,
    /// Seconds in communication operations.
    pub comm_time: f64,
    /// Computation operations completed.
    pub compute_ops: u64,
    /// Communication operations completed.
    pub comm_ops: u64,
    /// Flops executed.
    pub flops: f64,
    /// Bytes moved.
    pub bytes: f64,
}

impl RankTotals {
    fn add(&mut self, comm: bool, dt: f64, volume: f64) {
        if comm {
            self.comm_time += dt;
            self.comm_ops += 1;
            self.bytes += volume;
        } else {
            self.compute_time += dt;
            self.compute_ops += 1;
            self.flops += volume;
        }
    }
}

/// Aggregate summary of one closed, non-empty window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Ordinal among emitted (non-empty) windows, from 0.
    pub index: u64,
    /// Window start, simulated seconds.
    pub start: f64,
    /// Window end, simulated seconds.
    pub end: f64,
    /// What closed the window.
    pub kind: WindowKind,
    /// Operations completed inside the window, all ranks.
    pub ops: u64,
    /// Compute seconds summed over ranks.
    pub compute_time: f64,
    /// Communication seconds summed over ranks.
    pub comm_time: f64,
    /// Computation operations summed over ranks.
    pub compute_ops: u64,
    /// Communication operations summed over ranks.
    pub comm_ops: u64,
    /// Flops summed over ranks.
    pub flops: f64,
    /// Bytes summed over ranks.
    pub bytes: f64,
    /// Communication fraction of busy time (0 when the window has no
    /// busy time).
    pub comm_ratio: f64,
    /// Load imbalance: max rank busy / mean rank busy (1 when the
    /// window has no busy time — perfectly balanced emptiness).
    pub imbalance: f64,
    /// Peak simultaneous in-flight communication operations, all ranks.
    pub active_peak: u64,
}

/// A finished time-resolved report ([`TimeResolved::finish`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeResReport {
    /// Ranks tracked.
    pub num_ranks: usize,
    /// Fixed window width, when configured.
    pub window_width: Option<f64>,
    /// Phase-boundary detection was on.
    pub phases: bool,
    /// Simulated makespan (0 until the engine-end event).
    pub simulated_time: f64,
    /// Operations across all windows and ranks.
    pub total_ops: u64,
    /// Closed non-empty windows, in time order.
    pub windows: Vec<WindowSummary>,
    /// Whole-run cumulative totals per rank (== the profile's totals,
    /// bit-for-bit).
    pub ranks: Vec<RankTotals>,
}

impl TimeResReport {
    /// Serialises the report as one deterministic JSON line
    /// (`tit-timeres-v1`): windows in time order, ranks ascending,
    /// shortest-roundtrip numbers, non-finite numbers as `null`. See
    /// `docs/OBSERVABILITY.md` for the schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let windows = self.windows.iter().map(|w| {
            json_obj!(w; index, start, end, kind = w.kind.as_str(), ops, compute_time, comm_time,
                compute_ops, comm_ops, flops, bytes, comm_ratio, imbalance, active_peak)
        });
        let ranks = self.ranks.iter().enumerate().map(|(rank, r)| {
            json_obj!(r; rank = rank, compute_time, comm_time, compute_ops, comm_ops, flops, bytes)
        });
        let doc = json_obj!(self; schema = "tit-timeres-v1", num_ranks, window_width,
            phase_boundaries = self.phases, simulated_time, total_ops,
            num_windows = self.windows.len(), windows = Json::Arr(windows.collect()),
            ranks = Json::Arr(ranks.collect()));
        format!("{doc}\n")
    }
}

struct Inner<W: Write> {
    csv: Option<W>,
    err: Option<std::io::Error>,
    width: Option<f64>,
    phases: bool,
    is_comm: TagClassifier,
    is_collective: TagClassifier,
    /// Whole-run cumulative accumulators, per rank.
    cum: Vec<RankTotals>,
    /// Open-window accumulators, per rank (reset at close).
    win: Vec<RankTotals>,
    /// Open-window peak in-flight comms, per rank (reset at close).
    win_rank_peak: Vec<u64>,
    /// Currently in-flight comms, per rank (never reset).
    inflight: Vec<u64>,
    /// Rank completed a collective since the last boundary?
    coll_flag: Vec<bool>,
    /// Count of set `coll_flag`s (phase closes when == ranks).
    coll_set: usize,
    global_inflight: u64,
    win_global_peak: u64,
    win_ops: u64,
    cur_start: f64,
    /// Next fixed boundary is `next_fixed_k * width`.
    next_fixed_k: u64,
    total_ops: u64,
    simulated_time: f64,
    windows: Vec<WindowSummary>,
    last_end: f64,
    finished: bool,
}

impl<W: Write> Inner<W> {
    fn emit(&mut self, f: impl FnOnce(&mut W) -> std::io::Result<()>) {
        if self.err.is_none() && !self.finished {
            if let Some(w) = self.csv.as_mut() {
                if let Err(e) = f(w) {
                    self.err = Some(e);
                }
            }
        }
    }

    fn grow_to(&mut self, rank: usize) {
        if rank >= self.cum.len() {
            let n = rank + 1;
            self.cum.resize(n, RankTotals::default());
            self.win.resize(n, RankTotals::default());
            self.win_rank_peak.resize(n, 0);
            self.inflight.resize(n, 0);
            self.coll_flag.resize(n, false);
        }
    }

    /// Closes the open window at `end`. Empty windows advance the
    /// window start without emitting anything.
    fn close_window(&mut self, end: f64, kind: WindowKind) {
        if self.win_ops > 0 {
            let mut agg = RankTotals::default();
            let mut max_busy = 0.0f64;
            let mut busy_sum = 0.0f64;
            for r in &self.win {
                agg.compute_time += r.compute_time;
                agg.comm_time += r.comm_time;
                agg.compute_ops += r.compute_ops;
                agg.comm_ops += r.comm_ops;
                agg.flops += r.flops;
                agg.bytes += r.bytes;
                let busy = r.compute_time + r.comm_time;
                max_busy = max_busy.max(busy);
                busy_sum += busy;
            }
            let nranks = self.win.len();
            let mean_busy = if nranks > 0 { busy_sum / nranks as f64 } else { 0.0 };
            let busy = agg.compute_time + agg.comm_time;
            let comm_ratio = if busy > 0.0 { agg.comm_time / busy } else { 0.0 };
            let imbalance = if mean_busy > 0.0 { max_busy / mean_busy } else { 1.0 };
            let index = self.windows.len() as u64;
            let start = self.cur_start;
            let win_ops = self.win_ops;
            let peak = self.win_global_peak;
            // One CSV row per rank, floats in shortest-roundtrip form
            // (parsing a row back recovers the exact f64).
            for rank in 0..self.win.len() {
                let r = self.win[rank];
                let rank_peak = self.win_rank_peak[rank];
                let kind_s = kind.as_str();
                self.emit(|w| {
                    writeln!(
                        w,
                        "{index},{start},{end},{kind_s},{rank},{},{},{},{},{},{},{rank_peak}",
                        r.compute_time, r.comm_time, r.compute_ops, r.comm_ops, r.flops, r.bytes
                    )
                });
            }
            self.windows.push(WindowSummary {
                index,
                start,
                end,
                kind,
                ops: win_ops,
                compute_time: agg.compute_time,
                comm_time: agg.comm_time,
                compute_ops: agg.compute_ops,
                comm_ops: agg.comm_ops,
                flops: agg.flops,
                bytes: agg.bytes,
                comm_ratio,
                imbalance,
                active_peak: peak,
            });
        }
        for r in &mut self.win {
            *r = RankTotals::default();
        }
        // In-flight comms carry across the boundary: they are the new
        // window's starting watermark.
        self.win_global_peak = self.global_inflight;
        for (p, &f) in self.win_rank_peak.iter_mut().zip(&self.inflight) {
            *p = f;
        }
        self.win_ops = 0;
        self.cur_start = end;
    }

    fn on_record(&mut self, rec: OpRecord) {
        self.grow_to(rec.actor);
        // Fixed boundaries strictly before (or at) this record's end
        // close first; the record then lands in the next window.
        if let Some(width) = self.width {
            loop {
                #[allow(clippy::cast_precision_loss)] // window ordinals stay tiny
                let boundary = self.next_fixed_k as f64 * width;
                if rec.end < boundary {
                    break;
                }
                self.close_window(boundary, WindowKind::Fixed);
                self.next_fixed_k += 1;
            }
        }
        self.total_ops += 1;
        self.win_ops += 1;
        self.last_end = rec.end;
        let comm = (self.is_comm)(rec.tag);
        let dt = rec.end - rec.start;
        self.cum[rec.actor].add(comm, dt, rec.volume);
        self.win[rec.actor].add(comm, dt, rec.volume);
        if comm && self.inflight[rec.actor] > 0 {
            self.inflight[rec.actor] -= 1;
            self.global_inflight -= 1;
        }
        if self.phases && (self.is_collective)(rec.tag) {
            if !self.coll_flag[rec.actor] {
                self.coll_flag[rec.actor] = true;
                self.coll_set += 1;
            }
            if self.coll_set == self.coll_flag.len() {
                self.close_window(rec.end, WindowKind::Phase);
                for f in &mut self.coll_flag {
                    *f = false;
                }
                self.coll_set = 0;
            }
        }
    }
}

/// Handle to a time-resolved metrics aggregator.
///
/// [`TimeResolved::sink`] yields the [`Observer`] half; per-rank window
/// detail streams to the optional CSV writer as windows close;
/// [`TimeResolved::finish`] flushes the final window and returns the
/// [`TimeResReport`].
pub struct TimeResolved<W: Write> {
    inner: Arc<Mutex<Inner<W>>>,
}

/// The [`Observer`] half of a [`TimeResolved`].
pub struct TimeResSink<W: Write> {
    inner: Arc<Mutex<Inner<W>>>,
}

/// CSV header written before the first window row.
pub const CSV_HEADER: &str =
    "window,start,end,kind,rank,compute_time,comm_time,compute_ops,comm_ops,flops,bytes,active_peak";

impl<W: Write + 'static> TimeResolved<W> {
    /// A time-resolved aggregator over `nranks` ranks (records for
    /// higher ranks grow the table). `csv` optionally streams per-rank
    /// window rows; the header is written immediately. `is_comm`
    /// classifies communication tags, `is_collective` the collective
    /// subset driving phase detection.
    pub fn new(
        csv: Option<W>,
        nranks: usize,
        spec: WindowSpec,
        is_comm: TagClassifier,
        is_collective: TagClassifier,
    ) -> std::io::Result<Self> {
        if let Some(w) = spec.width {
            assert!(
                w > 0.0 && w.is_finite(),
                "window width must be positive and finite, got {w}"
            );
        }
        let mut csv = csv;
        if let Some(w) = csv.as_mut() {
            writeln!(w, "{CSV_HEADER}")?;
        }
        Ok(TimeResolved {
            inner: Arc::new(Mutex::new(Inner {
                csv,
                err: None,
                width: spec.width,
                phases: spec.phases,
                is_comm,
                is_collective,
                cum: vec![RankTotals::default(); nranks],
                win: vec![RankTotals::default(); nranks],
                win_rank_peak: vec![0; nranks],
                inflight: vec![0; nranks],
                coll_flag: vec![false; nranks],
                coll_set: 0,
                global_inflight: 0,
                win_global_peak: 0,
                win_ops: 0,
                cur_start: 0.0,
                next_fixed_k: 1,
                total_ops: 0,
                simulated_time: 0.0,
                windows: Vec::new(),
                last_end: 0.0,
                finished: false,
            })),
        })
    }

    /// The observer half, to install into the engine.
    #[must_use]
    pub fn sink(&self) -> Box<dyn Observer> {
        Box::new(TimeResSink { inner: self.inner.clone() })
    }

    /// Closes the final window, flushes the CSV, and returns the
    /// report. The first I/O error hit while streaming is returned
    /// here. Idempotent: a second call returns the same report without
    /// re-closing anything.
    pub fn finish(&self) -> std::io::Result<TimeResReport> {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.err.take() {
            return Err(e);
        }
        if !g.finished {
            let end = if g.simulated_time > 0.0 {
                g.simulated_time
            } else {
                g.last_end.max(g.cur_start)
            };
            g.close_window(end, WindowKind::Final);
            if let Some(w) = g.csv.as_mut() {
                w.flush()?;
            }
            g.finished = true;
        }
        Ok(TimeResReport {
            num_ranks: g.cum.len(),
            window_width: g.width,
            phases: g.phases,
            simulated_time: g.simulated_time,
            total_ops: g.total_ops,
            windows: g.windows.clone(),
            ranks: g.cum.clone(),
        })
    }

    /// Reclaims the CSV writer, consuming the handle. Returns `None`
    /// while any sink is alive, or when no CSV writer was configured.
    /// As with [`crate::timeline::Timeline::into_writer`], this is how
    /// a `tit_core::AtomicFile` gets back to its owner for commit.
    pub fn into_writer(self) -> Option<W> {
        Arc::try_unwrap(self.inner).ok().and_then(|m| {
            // panics: mutex poisoned only if another thread already panicked
            m.into_inner().unwrap().csv
        })
    }
}

impl<W: Write> Observer for TimeResSink<W> {
    fn record(&mut self, rec: OpRecord) {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().on_record(rec);
    }

    fn op_started(&mut self, actor: usize, tag: u32, _t: f64) {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        if (g.is_comm)(tag) {
            g.grow_to(actor);
            g.inflight[actor] += 1;
            g.global_inflight += 1;
            g.win_global_peak = g.win_global_peak.max(g.global_inflight);
            g.win_rank_peak[actor] = g.win_rank_peak[actor].max(g.inflight[actor]);
        }
    }

    fn engine_ended(&mut self, time: f64) {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().simulated_time = time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedBuf;

    fn comm(tag: u32) -> bool {
        tag >= 2
    }

    fn coll(tag: u32) -> bool {
        tag == 8
    }

    fn rec(actor: usize, tag: u32, start: f64, end: f64, volume: f64) -> OpRecord {
        OpRecord { actor, tag, start, end, volume }
    }

    #[test]
    fn fixed_windows_split_records_at_boundaries() {
        let tr = TimeResolved::<Vec<u8>>::new(
            None,
            2,
            WindowSpec { width: Some(1.0), phases: false },
            comm,
            coll,
        )
        .unwrap();
        let mut s = tr.sink();
        s.record(rec(0, 1, 0.0, 0.5, 10.0));
        s.record(rec(1, 1, 0.0, 0.9, 10.0));
        // Lands exactly on the boundary → next window.
        s.record(rec(0, 1, 0.5, 1.0, 10.0));
        s.record(rec(1, 2, 1.0, 2.5, 64.0));
        s.engine_ended(2.5);
        drop(s);
        let r = tr.finish().unwrap();
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[0].kind, WindowKind::Fixed);
        assert_eq!(r.windows[0].ops, 2);
        assert_eq!(r.windows[0].start, 0.0);
        assert_eq!(r.windows[0].end, 1.0);
        assert_eq!(r.windows[1].ops, 1); // the boundary record
        assert_eq!(r.windows[2].kind, WindowKind::Final);
        assert_eq!(r.windows[2].comm_ops, 1);
        assert_eq!(r.windows[2].bytes, 64.0);
        assert_eq!(r.total_ops, 4);
        // Conservation: cumulative == sum over windows (exact counts).
        let wops: u64 = r.windows.iter().map(|w| w.ops).sum();
        assert_eq!(wops, r.total_ops);
        assert_eq!(r.ranks[0].compute_ops + r.ranks[1].compute_ops, 3);
    }

    #[test]
    fn phase_closes_when_every_rank_completed_a_collective() {
        let tr = TimeResolved::<Vec<u8>>::new(None, 2, WindowSpec::phases_only(), comm, coll)
            .unwrap();
        let mut s = tr.sink();
        s.record(rec(0, 1, 0.0, 1.0, 10.0));
        s.record(rec(0, 8, 1.0, 2.0, 8.0));
        // Only rank 0 collected so far: still one open window.
        s.record(rec(1, 1, 0.0, 2.0, 10.0));
        s.record(rec(1, 8, 2.0, 3.0, 8.0)); // closes the phase, inclusive
        s.record(rec(0, 1, 3.0, 4.0, 10.0));
        s.engine_ended(4.0);
        drop(s);
        let r = tr.finish().unwrap();
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].kind, WindowKind::Phase);
        assert_eq!(r.windows[0].end, 3.0);
        assert_eq!(r.windows[0].ops, 4);
        assert_eq!(r.windows[1].kind, WindowKind::Final);
        assert_eq!(r.windows[1].ops, 1);
    }

    #[test]
    fn active_flows_peak_per_window() {
        let tr = TimeResolved::<Vec<u8>>::new(None, 2, WindowSpec::phases_only(), comm, coll)
            .unwrap();
        let mut s = tr.sink();
        s.op_started(0, 2, 0.0);
        s.op_started(1, 2, 0.0);
        s.op_started(0, 1, 0.0); // compute: not a flow
        s.record(rec(0, 2, 0.0, 1.0, 64.0));
        s.record(rec(1, 2, 0.0, 1.5, 64.0));
        s.engine_ended(1.5);
        drop(s);
        let r = tr.finish().unwrap();
        assert_eq!(r.windows.len(), 1);
        assert_eq!(r.windows[0].active_peak, 2);
    }

    #[test]
    fn csv_rows_per_rank_and_json_deterministic() {
        let run = || {
            let buf = SharedBuf::new();
            let tr = TimeResolved::new(
                Some(buf.clone()),
                2,
                WindowSpec { width: Some(2.0), phases: true },
                comm,
                coll,
            )
            .unwrap();
            let mut s = tr.sink();
            s.record(rec(0, 1, 0.0, 0.125, 10.0));
            s.record(rec(1, 2, 0.0, 0.25, 32.0));
            s.engine_ended(0.25);
            drop(s);
            let rep = tr.finish().unwrap();
            (String::from_utf8(buf.contents()).unwrap(), rep.to_json())
        };
        let (csv_a, json_a) = run();
        let (csv_b, json_b) = run();
        assert_eq!(csv_a, csv_b);
        assert_eq!(json_a, json_b);
        let lines: Vec<&str> = csv_a.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 3); // header + one window x two ranks
        assert!(lines[1].starts_with("0,0,0.25,final,0,0.125,"), "{}", lines[1]);
        assert!(json_a.contains("\"schema\":\"tit-timeres-v1\""));
        assert!(json_a.contains("\"window_width\":2"));
        assert_eq!(json_a.matches('{').count(), json_a.matches('}').count());
    }

    #[test]
    fn cumulative_matches_profile_accumulation_bitwise() {
        use crate::Profile;
        let name = |_: u32| "op";
        let records: Vec<OpRecord> = (0..100u32)
            .map(|i| {
                rec(
                    (i % 4) as usize,
                    1 + (i % 8),
                    f64::from(i) * 0.1,
                    f64::from(i) * 0.1 + 0.05 + f64::from(i % 3) * 1e-3,
                    f64::from(i) * 7.0,
                )
            })
            .collect();
        let p = Profile::new(4, name, comm);
        let tr =
            TimeResolved::<Vec<u8>>::new(None, 4, WindowSpec { width: Some(0.7), phases: true }, comm, coll)
                .unwrap();
        let mut ps = p.sink();
        let mut ts = tr.sink();
        for r in &records {
            ps.record(*r);
            ts.record(*r);
        }
        drop(ps);
        drop(ts);
        let prof = p.snapshot();
        let rep = tr.finish().unwrap();
        for (rank, (a, b)) in rep.ranks.iter().zip(&prof.ranks).enumerate() {
            assert_eq!(a.compute_time.to_bits(), b.compute_time.to_bits(), "rank {rank}");
            assert_eq!(a.comm_time.to_bits(), b.comm_time.to_bits(), "rank {rank}");
            assert_eq!(a.flops.to_bits(), b.flops.to_bits(), "rank {rank}");
            assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "rank {rank}");
            assert_eq!(a.compute_ops, b.compute_ops);
            assert_eq!(a.comm_ops, b.comm_ops);
        }
        let wops: u64 = rep.windows.iter().map(|w| w.ops).sum();
        assert_eq!(wops, prof.total_ops);
    }

    #[test]
    fn finish_is_idempotent() {
        let tr = TimeResolved::<Vec<u8>>::new(None, 1, WindowSpec::phases_only(), comm, coll)
            .unwrap();
        let mut s = tr.sink();
        s.record(rec(0, 1, 0.0, 1.0, 1.0));
        drop(s);
        let a = tr.finish().unwrap();
        let b = tr.finish().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.windows.len(), 1);
    }
}
