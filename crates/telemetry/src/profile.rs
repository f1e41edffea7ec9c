//! Per-rank application profiles from simulated time.
//!
//! The paper's Figure-7-style breakdown, computed from the replay's
//! *simulated* clock rather than a wall clock: for every rank, how much
//! time went to computation vs. communication, how many operations of
//! each kind ran, how many flops and bytes moved, and — per action tag —
//! a duration histogram over fixed log-scale buckets.
//!
//! Everything is deterministic: the engine delivers records in a fixed
//! completion order, accumulation is plain `+=` over that order, bucket
//! boundaries are compile-time constants chosen by comparison (no
//! `log10`, no locale, no ambient floating state), and the JSON/text
//! renderings iterate `BTreeMap`s — so identical replays produce
//! byte-identical profile files.

use crate::{TagClassifier, TagNamer};
use simkern::observer::{Observer, OpRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tit_core::json::Json;
use tit_core::json_obj;

/// Number of histogram buckets (fixed, log-scale).
pub const HIST_BUCKETS: usize = 16;

/// Upper edges of buckets `0..HIST_BUCKETS-1`, in seconds; the last
/// bucket is unbounded. Bucket `i` holds durations `d` with
/// `EDGES[i-1] <= d < EDGES[i]` (bucket 0: `d < 1 ns`).
const EDGES: [f64; HIST_BUCKETS - 1] = [
    1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5,
];

/// A fixed log-scale duration histogram (1 ns … 10⁵ s in decades).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Counts per bucket; see [`Histogram::bucket_label`] for bounds.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS] }
    }
}

impl Histogram {
    /// Buckets a duration in seconds. Negative or NaN durations land in
    /// bucket 0 (they indicate an upstream bug; the engine asserts
    /// against them in debug builds).
    pub fn add(&mut self, seconds: f64) {
        let mut i = 0;
        while i < EDGES.len() && seconds >= EDGES[i] {
            i += 1;
        }
        self.buckets[i] += 1;
    }

    /// Total samples across all buckets.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Human-readable bounds of bucket `i`, e.g. `"[1e-6,1e-5)"`.
    #[must_use]
    pub fn bucket_label(i: usize) -> String {
        assert!(i < HIST_BUCKETS, "bucket index out of range");
        if i == 0 {
            format!("[0,{:e})", EDGES[0])
        } else if i == HIST_BUCKETS - 1 {
            format!("[{:e},inf)", EDGES[i - 1])
        } else {
            format!("[{:e},{:e})", EDGES[i - 1], EDGES[i])
        }
    }
}

/// Per-(rank, tag) accumulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagStats {
    /// Human-readable action name (resolved at record time).
    pub name: &'static str,
    /// Operations completed with this tag.
    pub count: u64,
    /// Total busy seconds.
    pub time: f64,
    /// Total volume (flops or bytes, per the tag's class).
    pub volume: f64,
    /// Duration histogram of the individual operations.
    pub hist: Histogram,
}

/// One rank's share of the profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankProfile {
    /// Seconds spent in computation operations.
    pub compute_time: f64,
    /// Seconds spent in communication operations (incl. blocked time
    /// inside them: a `recv` covers post → completion).
    pub comm_time: f64,
    /// Computation operations completed.
    pub compute_ops: u64,
    /// Communication operations completed.
    pub comm_ops: u64,
    /// Flops executed (volume of computation operations).
    pub flops: f64,
    /// Bytes moved (volume of communication operations).
    pub bytes: f64,
    /// Simulated time at which the rank's actor terminated (0 when it
    /// never did — e.g. the profile was fed records only).
    pub end_time: f64,
    /// Per-tag breakdown, keyed by tag id (deterministic order).
    pub tags: BTreeMap<u32, TagStats>,
}

impl RankProfile {
    /// Total busy seconds (compute + communication).
    #[must_use]
    pub fn busy_time(&self) -> f64 {
        self.compute_time + self.comm_time
    }

    /// Total operations completed.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.compute_ops + self.comm_ops
    }
}

/// A finished (or in-flight) profile snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// One entry per rank, index = rank.
    pub ranks: Vec<RankProfile>,
    /// Simulated makespan (engine-end event; 0 until the run ends).
    pub simulated_time: f64,
    /// Operations accumulated across all ranks.
    pub total_ops: u64,
}

impl ProfileReport {
    /// Sum of all ranks' busy seconds.
    #[must_use]
    pub fn total_busy(&self) -> f64 {
        self.ranks.iter().map(RankProfile::busy_time).sum()
    }

    /// Renders the per-rank table (the Figure 7 shape), one row per rank
    /// plus a totals row.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "rank     compute(s)      comm(s)   comp-ops   comm-ops          flops          bytes\n",
        );
        let mut tot = RankProfile::default();
        for (rank, r) in self.ranks.iter().enumerate() {
            out.push_str(&format!(
                "{rank:>4} {:>13.6} {:>12.6} {:>10} {:>10} {:>14.3e} {:>14.3e}\n",
                r.compute_time, r.comm_time, r.compute_ops, r.comm_ops, r.flops, r.bytes
            ));
            tot.compute_time += r.compute_time;
            tot.comm_time += r.comm_time;
            tot.compute_ops += r.compute_ops;
            tot.comm_ops += r.comm_ops;
            tot.flops += r.flops;
            tot.bytes += r.bytes;
        }
        out.push_str(&format!(
            " sum {:>13.6} {:>12.6} {:>10} {:>10} {:>14.3e} {:>14.3e}\n",
            tot.compute_time, tot.comm_time, tot.compute_ops, tot.comm_ops, tot.flops, tot.bytes
        ));
        out
    }

    /// Renders the per-tag breakdown across all ranks (aggregated), one
    /// row per action kind.
    #[must_use]
    pub fn render_tags_text(&self) -> String {
        let mut agg: BTreeMap<u32, TagStats> = BTreeMap::new();
        for r in &self.ranks {
            for (tag, s) in &r.tags {
                let e = agg.entry(*tag).or_insert(TagStats {
                    name: s.name,
                    count: 0,
                    time: 0.0,
                    volume: 0.0,
                    hist: Histogram::default(),
                });
                e.count += s.count;
                e.time += s.time;
                e.volume += s.volume;
                for (b, n) in e.hist.buckets.iter_mut().zip(s.hist.buckets.iter()) {
                    *b += n;
                }
            }
        }
        let mut out = String::new();
        out.push_str("action            count      time(s)         volume\n");
        for (_, s) in agg {
            out.push_str(&format!(
                "{:<14} {:>8} {:>12.6} {:>14.3e}\n",
                s.name, s.count, s.time, s.volume
            ));
        }
        out
    }

    /// Serialises the profile as one deterministic JSON line
    /// (`titobs-profile-v1`): ranks ascending, tags by numeric id,
    /// shortest-roundtrip numbers, non-finite numbers as `null`. See
    /// `DESIGN.md` §5d for the schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let ranks = self.ranks.iter().enumerate().map(|(rank, r)| {
            let tags = r.tags.iter().map(|(tag, s)| {
                let hist = s.hist.buckets.iter().map(|&n| n.into()).collect();
                json_obj!(s; tag = *tag, name, count, time, volume, hist = Json::Arr(hist))
            });
            json_obj!(r; rank = rank, compute_time, comm_time, compute_ops, comm_ops, flops, bytes,
                end_time, tags = Json::Arr(tags.collect()))
        });
        let doc = json_obj!(self; schema = "titobs-profile-v1", num_ranks = self.ranks.len(),
            simulated_time, total_ops, ranks = Json::Arr(ranks.collect()));
        format!("{doc}\n")
    }
}

struct ProfState {
    ranks: Vec<RankProfile>,
    simulated_time: f64,
    total_ops: u64,
    names: TagNamer,
    is_comm: TagClassifier,
}

/// Handle to a per-rank profile aggregator. O(ranks × tags) memory,
/// independent of the trace length.
///
/// [`Profile::sink`] yields the [`Observer`] half; [`Profile::snapshot`]
/// reads the accumulated state back (any time, typically after the run).
pub struct Profile {
    inner: Arc<Mutex<ProfState>>,
}

/// The [`Observer`] half of a [`Profile`].
pub struct ProfileSink {
    inner: Arc<Mutex<ProfState>>,
}

impl Profile {
    /// A profile over (at least) `nranks` ranks; records for higher
    /// ranks grow the table. `names` maps tags to action names for the
    /// rendered output; `is_comm` classifies tags as communication.
    #[must_use]
    pub fn new(nranks: usize, names: TagNamer, is_comm: TagClassifier) -> Self {
        Profile {
            inner: Arc::new(Mutex::new(ProfState {
                ranks: vec![RankProfile::default(); nranks],
                simulated_time: 0.0,
                total_ops: 0,
                names,
                is_comm,
            })),
        }
    }

    /// The observer half, to install into the engine.
    #[must_use]
    pub fn sink(&self) -> Box<dyn Observer> {
        Box::new(ProfileSink { inner: self.inner.clone() })
    }

    /// A copy of the accumulated profile.
    #[must_use]
    pub fn snapshot(&self) -> ProfileReport {
        // panics: mutex poisoned only if another thread already panicked
        let g = self.inner.lock().unwrap();
        ProfileReport {
            ranks: g.ranks.clone(),
            simulated_time: g.simulated_time,
            total_ops: g.total_ops,
        }
    }
}

impl Observer for ProfileSink {
    fn record(&mut self, rec: OpRecord) {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        if rec.actor >= g.ranks.len() {
            g.ranks.resize(rec.actor + 1, RankProfile::default());
        }
        g.total_ops += 1;
        let name = (g.names)(rec.tag);
        let comm = (g.is_comm)(rec.tag);
        let dt = rec.end - rec.start;
        let row = &mut g.ranks[rec.actor];
        if comm {
            row.comm_time += dt;
            row.comm_ops += 1;
            row.bytes += rec.volume;
        } else {
            row.compute_time += dt;
            row.compute_ops += 1;
            row.flops += rec.volume;
        }
        let s = row.tags.entry(rec.tag).or_insert(TagStats {
            name,
            count: 0,
            time: 0.0,
            volume: 0.0,
            hist: Histogram::default(),
        });
        s.count += 1;
        s.time += dt;
        s.volume += rec.volume;
        s.hist.add(dt);
    }

    fn actor_ended(&mut self, actor: usize, time: f64) {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        if actor >= g.ranks.len() {
            g.ranks.resize(actor + 1, RankProfile::default());
        }
        g.ranks[actor].end_time = time;
    }

    fn engine_ended(&mut self, time: f64) {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().simulated_time = time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(tag: u32) -> &'static str {
        if tag == 1 {
            "compute"
        } else {
            "send"
        }
    }

    fn comm(tag: u32) -> bool {
        tag != 1
    }

    #[test]
    fn totals_split_by_class() {
        let p = Profile::new(2, name, comm);
        let mut s = p.sink();
        s.record(OpRecord { actor: 0, tag: 1, start: 0.0, end: 1.0, volume: 1e9 });
        s.record(OpRecord { actor: 0, tag: 2, start: 1.0, end: 1.5, volume: 1e6 });
        s.record(OpRecord { actor: 1, tag: 2, start: 0.0, end: 1.5, volume: 1e6 });
        s.actor_ended(0, 1.5);
        s.actor_ended(1, 1.5);
        s.engine_ended(1.5);
        let r = p.snapshot();
        assert_eq!(r.total_ops, 3);
        assert_eq!(r.simulated_time, 1.5);
        assert!((r.ranks[0].compute_time - 1.0).abs() < 1e-12);
        assert!((r.ranks[0].comm_time - 0.5).abs() < 1e-12);
        assert!((r.ranks[0].flops - 1e9).abs() < 1e-3);
        assert!((r.ranks[0].bytes - 1e6).abs() < 1e-9);
        assert_eq!(r.ranks[1].comm_ops, 1);
        assert_eq!(r.ranks[0].end_time, 1.5);
        assert_eq!(r.ranks[0].tags[&1].count, 1);
        assert_eq!(r.ranks[0].tags[&2].name, "send");
    }

    #[test]
    fn histogram_buckets_by_decade() {
        let mut h = Histogram::default();
        h.add(0.0); // bucket 0
        h.add(5e-7); // [1e-7,1e-6) → bucket 3
        h.add(1e-6); // [1e-6,1e-5) → bucket 4 (left-closed)
        h.add(2.0); // [1,10) → bucket 10
        h.add(1e9); // overflow → last bucket
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(Histogram::bucket_label(0), "[0,1e-9)");
        assert_eq!(Histogram::bucket_label(4), "[1e-6,1e-5)");
        assert_eq!(Histogram::bucket_label(HIST_BUCKETS - 1), "[1e5,inf)");
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let mk = || {
            let p = Profile::new(2, name, comm);
            let mut s = p.sink();
            for i in 0..10u32 {
                s.record(OpRecord {
                    actor: (i % 2) as usize,
                    tag: 1 + (i % 2),
                    start: f64::from(i),
                    end: f64::from(i) + 0.25,
                    volume: f64::from(i) * 100.0,
                });
            }
            s.engine_ended(10.0);
            drop(s);
            p.snapshot().to_json()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\":\"titobs-profile-v1\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn report_rendering_has_sum_row_and_tag_table() {
        let p = Profile::new(1, name, comm);
        let mut s = p.sink();
        s.record(OpRecord { actor: 0, tag: 1, start: 0.0, end: 2.0, volume: 5e8 });
        drop(s);
        let r = p.snapshot();
        let text = r.render_text();
        assert!(text.contains(" sum "), "{text}");
        let tags = r.render_tags_text();
        assert!(tags.contains("compute"), "{tags}");
    }
}
