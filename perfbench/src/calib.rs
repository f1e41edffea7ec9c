//! Host-speed calibration for the end-to-end timings.
//!
//! The reference box is a small VM on a shared host, and its speed moves
//! between plateaus up to 1.6× apart that last from seconds to minutes:
//! hash-map and B-tree loops slow with the replays, a tight arithmetic
//! loop much less. Whole runs can sit in one plateau, so medians over a
//! run do not average them out. So every timed sample of an untraced
//! run is taken between two runs of a fixed probe, written here and
//! using only `std`, and divided by the host's slowdown the probes
//! measured: the probe's time (the mean of the two around the sample) ÷
//! [`REFERENCE_PROBE_S`]. A calibrated time reads in seconds of the
//! reference box in a quiet spell. A change to the program cannot move
//! the probe, so a real gain or loss shows in full.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference box (2-vCPU VM, 2.0 GHz) in a quiet
/// spell. It only fixes the unit of calibrated times.
pub const REFERENCE_PROBE_S: f64 = 0.155;

/// Key space of the map probes: wider than the caches close to the core.
const KEYS: u64 = 1 << 20;

/// The probe's reusable map and the time of every probe run so far.
/// A calibrated sample is taken between two probe runs.
pub struct Probe {
    map: HashMap<u64, u64>,
    runs: Vec<f64>,
}

/// SplitMix64: the probe's fixed key stream.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            map: HashMap::with_capacity(300_000),
            runs: Vec::new(),
        }
    }

    /// Runs the probe once and records its time: hash-map inserts and
    /// lookups, B-tree inserts and lookups, then an arithmetic loop,
    /// the same work every time.
    pub fn run(&mut self) {
        let t = Instant::now();
        let mut key = 1u64;
        for i in 0..300_000u64 {
            self.map.insert(next(&mut key) % KEYS, i);
        }
        let mut sum = 0u64;
        for _ in 0..300_000 {
            sum = sum.wrapping_add(*self.map.get(&(next(&mut key) % KEYS)).unwrap_or(&0));
        }
        self.map.clear();
        let mut tree = BTreeMap::new();
        for i in 0..200_000u64 {
            tree.insert(next(&mut key) % KEYS, i);
        }
        for _ in 0..200_000 {
            sum = sum.wrapping_add(*tree.get(&(next(&mut key) % KEYS)).unwrap_or(&0));
        }
        drop(tree);
        let mut x = sum;
        for i in 0..20_000_000u64 {
            x = (x ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7);
        }
        black_box(x);
        self.runs.push(t.elapsed().as_secs_f64());
    }

    /// The host's slowdown over the sample taken between the last two
    /// probe runs: the mean of their times ÷ the reference.
    pub fn slowdown(&self) -> f64 {
        let last = &self.runs[self.runs.len().saturating_sub(2)..];
        last.iter().sum::<f64>() / last.len() as f64 / REFERENCE_PROBE_S
    }
}
