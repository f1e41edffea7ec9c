//! Machine-readable benchmark records (`BENCH_*.json`).
//!
//! Each experiment binary can drop a small JSON file next to its text
//! report so CI and regression tooling can track performance without
//! parsing tables. Every file shares one envelope: one flat object per
//! measurement plus a `peak_records_per_sec` headline, rendered as one
//! line by the [`tit_core::json`] serializer.

use std::path::Path;
use tit_core::json::{obj, Json};
use tit_core::json_obj;

/// Ends a bench binary's run on its record's write: prints the
/// record's path, or says the write failed and exits 1, so a run that
/// left no fresh record cannot pass for one that did.
pub fn record_written(path: &Path, written: std::io::Result<()>) {
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nperf record: {}", path.display());
}

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// What was measured, e.g. `"LU.B x 8"`.
    pub label: String,
    /// Trace actions (records) replayed.
    pub actions: u64,
    /// Simulated time produced, seconds.
    pub simulated_time: f64,
    /// Replay wall-clock, seconds.
    pub wall_time: f64,
}

impl PerfRecord {
    /// Replay throughput, actions per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        if self.wall_time > 0.0 {
            self.actions as f64 / self.wall_time
        } else {
            0.0
        }
    }
}

/// Observer-overhead measurement (see `experiments::observer`): the
/// same replay timed detached, with a no-op observer, and with a live
/// time-resolved sink. Ratios are gated by `scripts/check_bench.py`.
#[derive(Debug, Clone)]
pub struct ObserverOverhead {
    /// What was measured, e.g. `"LU.B x 16"`.
    pub label: String,
    /// Trace actions replayed per run.
    pub actions: u64,
    /// Best wall time with no observer attached, seconds.
    pub wall_detached: f64,
    /// Best wall time with an all-hooks no-op observer, seconds.
    pub wall_noop: f64,
    /// Best wall time with a `titobs::TimeResolved` sink attached.
    pub wall_timeres: f64,
    /// Runs per variant (each wall is the minimum over these).
    pub repeats: u32,
}

impl ObserverOverhead {
    /// No-op observer wall over detached wall; 1.0 when unmeasurable.
    pub fn noop_ratio(&self) -> f64 {
        if self.wall_detached > 0.0 { self.wall_noop / self.wall_detached } else { 1.0 }
    }

    /// Time-resolved sink wall over detached wall; 1.0 when
    /// unmeasurable.
    pub fn timeres_ratio(&self) -> f64 {
        if self.wall_detached > 0.0 { self.wall_timeres / self.wall_detached } else { 1.0 }
    }
}

/// Writes the `BENCH_*.json` envelope shared by every bench:
/// `{"bench":name,"peak_records_per_sec":…,"runs":[…]}` followed by
/// the `extra` members, as one line. Each run is its throughput
/// (records per second, the cross-benchmark currency) and its row.
fn write_envelope(
    path: &Path,
    name: &str,
    runs: impl Iterator<Item = (f64, Json)>,
    extra: Option<(&str, Json)>,
) -> std::io::Result<()> {
    let (rates, rows): (Vec<f64>, Vec<Json>) = runs.unzip();
    let peak = rates.into_iter().fold(0.0, f64::max);
    let mut members = vec![
        ("bench", name.into()),
        ("peak_records_per_sec", peak.into()),
        ("runs", Json::Arr(rows)),
    ];
    members.extend(extra);
    std::fs::write(path, format!("{}\n", obj(members)))
}

/// Writes replay records as `BENCH_replay.json`, optionally with an
/// `"observer_overhead"` member after the runs — the overhead walls and
/// ratios the observer gate of `scripts/check_bench.py` reads.
pub fn write_replay_bench_json(
    path: &Path,
    name: &str,
    records: &[PerfRecord],
    overhead: Option<&ObserverOverhead>,
) -> std::io::Result<()> {
    let runs = records.iter().map(|r| {
        let row = json_obj!(r; label, actions, simulated_time, wall_time,
            records_per_sec = r.records_per_sec());
        (r.records_per_sec(), row)
    });
    let overhead = overhead.map(|o| {
        let section = json_obj!(o; label, actions, repeats, wall_detached, wall_noop, wall_timeres,
            noop_ratio = o.noop_ratio(), timeres_ratio = o.timeres_ratio());
        ("observer_overhead", section)
    });
    write_envelope(path, name, runs, overhead)
}

/// One ingestion measurement: the same trace directory loaded by the
/// serial oracle and by the parallel fast path.
#[derive(Debug, Clone)]
pub struct IngestRecord {
    /// What was loaded, e.g. `"LU.B x 64"`.
    pub label: String,
    /// Per-rank trace files in the directory.
    pub files: usize,
    /// Actions parsed (identical on both paths by construction).
    pub actions: u64,
    /// Total bytes of the trace files.
    pub bytes: u64,
    /// Serial load wall-clock, seconds (best of the repeats).
    pub serial_wall: f64,
    /// Parallel load wall-clock, seconds (best of the repeats).
    pub parallel_wall: f64,
    /// Worker threads the parallel path actually used.
    pub jobs: usize,
}

impl IngestRecord {
    /// Parallel ingestion throughput, actions per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        if self.parallel_wall > 0.0 {
            self.actions as f64 / self.parallel_wall
        } else {
            0.0
        }
    }

    /// Serial wall over parallel wall; 1.0 when either is unmeasurable.
    pub fn speedup(&self) -> f64 {
        if self.serial_wall > 0.0 && self.parallel_wall > 0.0 {
            self.serial_wall / self.parallel_wall
        } else {
            1.0
        }
    }
}

/// Writes ingestion records as `BENCH_ingest.json`: per-run
/// serial/parallel walls, worker count and speedup.
pub fn write_ingest_json(
    path: &Path,
    name: &str,
    records: &[IngestRecord],
) -> std::io::Result<()> {
    let runs = records.iter().map(|r| {
        let row = json_obj!(r; label, files, actions, bytes, serial_wall, parallel_wall, jobs,
            speedup = r.speedup(), records_per_sec = r.records_per_sec());
        (r.records_per_sec(), row)
    });
    write_envelope(path, name, runs, None)
}

/// Writes memory-governance scale records as `BENCH_scale.json`:
/// per-run store size, budget, governor segment peak and process peak
/// RSS. `scripts/check_bench.py` gates segment peak against the budget,
/// peak RSS against the cap, and RSS flatness across the ×4 sweep.
pub fn write_scale_json(
    path: &Path,
    name: &str,
    records: &[crate::experiments::scale::ScaleRecord],
) -> std::io::Result<()> {
    let runs = records.iter().map(|r| {
        let row = json_obj!(r; label, ranks, actions, store_bytes, budget_bytes, segment_peak_bytes,
            peak_rss_bytes, rss_cap_bytes, wall, records_per_sec = r.records_per_sec(),
            bytes_per_sec = r.bytes_per_sec(), simulated_time);
        (r.records_per_sec(), row)
    });
    write_envelope(path, name, runs, None)
}

/// Writes serving records as `BENCH_serve.json`: per-run concurrency,
/// sustained request rate and p99 latency; `records_per_sec` counts
/// replayed trace actions (docs/BENCHMARKS.md).
pub fn write_serve_json(
    path: &Path,
    name: &str,
    records: &[crate::experiments::serve::ServeRecord],
) -> std::io::Result<()> {
    let runs = records.iter().map(|r| {
        let row = json_obj!(r; label = format!("{}x", r.concurrency), concurrency, requests,
            actions, wall_time, req_per_sec = r.req_per_sec(), p99_ms,
            records_per_sec = r.records_per_sec());
        (r.records_per_sec(), row)
    });
    write_envelope(path, name, runs, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serve::ServeRecord;
    use tit_core::json::parse;

    /// Runs `write` on a scratch file and parses what it wrote, which
    /// must be one line.
    fn written(tag: &str, write: impl FnOnce(&Path) -> std::io::Result<()>) -> Json {
        let dir = std::env::temp_dir().join(format!("titr-perf-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 1, "one line: {text}");
        parse(&text).unwrap()
    }

    fn run0<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
        doc.get("runs").and_then(Json::as_arr).and_then(|r| r.first()).and_then(|r| r.get(key))
    }

    fn perf(label: &str, actions: u64, simulated_time: f64, wall_time: f64) -> PerfRecord {
        PerfRecord { label: label.into(), actions, simulated_time, wall_time }
    }

    #[test]
    fn ingest_json_carries_speedup_and_peak() {
        let recs = [IngestRecord {
            label: "ring x 4".into(),
            files: 4,
            actions: 1200,
            bytes: 40_000,
            serial_wall: 0.4,
            parallel_wall: 0.1,
            jobs: 4,
        }];
        let doc = written("ingest", |p| write_ingest_json(p, "ingest", &recs));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("ingest"));
        assert_eq!(run0(&doc, "speedup"), Some(&Json::Num(4.0)));
        assert_eq!(doc.get("peak_records_per_sec"), Some(&Json::Num(12000.0)));
        assert_eq!(recs[0].speedup(), 4.0);
    }

    #[test]
    fn unmeasurable_ingest_walls_report_unit_speedup() {
        let r = IngestRecord {
            label: "x".into(),
            files: 1,
            actions: 10,
            bytes: 100,
            serial_wall: 0.0,
            parallel_wall: 0.0,
            jobs: 1,
        };
        assert_eq!(r.speedup(), 1.0);
        assert_eq!(r.records_per_sec(), 0.0);
    }

    #[test]
    fn bench_json_carries_peak() {
        let recs = [perf("a", 100, 1.0, 0.5), perf("b", 1000, 2.0, 0.5)];
        let doc = written("replay", |p| write_replay_bench_json(p, "test", &recs, None));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("test"));
        assert_eq!(doc.get("peak_records_per_sec"), Some(&Json::Num(2000.0)));
        assert_eq!(doc.get("runs").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn serve_json_carries_peak_and_rates() {
        let recs = [
            ServeRecord { concurrency: 1, requests: 48, actions: 720, wall_time: 0.5, p99_ms: 12.0 },
            ServeRecord { concurrency: 4, requests: 48, actions: 720, wall_time: 0.25, p99_ms: 20.0 },
        ];
        let doc = written("serve", |p| write_serve_json(p, "serve", &recs));
        assert_eq!(doc.get("peak_records_per_sec"), Some(&Json::Num(2880.0)));
        assert_eq!(run0(&doc, "label").and_then(Json::as_str), Some("1x"));
        assert_eq!(run0(&doc, "p99_ms"), Some(&Json::Num(12.0)));
        assert_eq!(run0(&doc, "req_per_sec"), Some(&Json::Num(96.0)));
    }

    #[test]
    fn replay_json_carries_observer_overhead_section() {
        let o = ObserverOverhead {
            label: "LU.B x 16".into(),
            actions: 2000,
            wall_detached: 0.1,
            wall_noop: 0.101,
            wall_timeres: 0.105,
            repeats: 3,
        };
        let recs = [perf("LU.B x 8", 1000, 1.0, 0.5)];
        let doc = written("overhead", |p| write_replay_bench_json(p, "replay", &recs, Some(&o)));
        let section = doc.get("observer_overhead").expect("observer_overhead member");
        assert_eq!(section.get("noop_ratio").and_then(Json::as_f64), Some(o.noop_ratio()));
        assert_eq!(section.get("timeres_ratio").and_then(Json::as_f64), Some(o.timeres_ratio()));
        assert!((o.noop_ratio() - 1.01).abs() < 1e-9);
        assert!((o.timeres_ratio() - 1.05).abs() < 1e-9);
    }

    #[test]
    fn non_finite_fields_read_back_as_null() {
        let recs = [perf("LU.B x 8", 1000, f64::INFINITY, f64::NAN)];
        let doc = written("nonfinite", |p| write_replay_bench_json(p, "replay", &recs, None));
        assert_eq!(run0(&doc, "simulated_time"), Some(&Json::Null));
        assert_eq!(run0(&doc, "wall_time"), Some(&Json::Null));
        assert_eq!(run0(&doc, "actions").and_then(Json::as_u64), Some(1000));
    }

    #[test]
    fn unmeasurable_overhead_walls_report_unit_ratios() {
        let o = ObserverOverhead {
            label: "x".into(),
            actions: 1,
            wall_detached: 0.0,
            wall_noop: 0.1,
            wall_timeres: 0.1,
            repeats: 1,
        };
        assert_eq!(o.noop_ratio(), 1.0);
        assert_eq!(o.timeres_ratio(), 1.0);
    }

    #[test]
    fn zero_wall_time_reports_zero_throughput() {
        assert_eq!(perf("x", 10, 0.0, 0.0).records_per_sec(), 0.0);
    }
}
