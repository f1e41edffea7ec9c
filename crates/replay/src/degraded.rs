//! Degraded-mode salvage: quantified partial results from damaged
//! bundles.
//!
//! The fault model of the extraction stage (`tit-extract`'s
//! fault-injection harness) produces four damage classes: truncated
//! trace files, bit-flipped actions, dropped ranks, and short bundle
//! transfers. A strict replay correctly refuses all of them — but a
//! campaign that burned hours acquiring a trace often wants *whatever
//! the damage left intact*, quantified, instead of nothing.
//!
//! The salvage scan ([`Input::salvage_files`]) reads each per-rank
//! trace file and keeps the longest parseable prefix (damage in a text
//! trace is always a suffix-killer: a truncated file ends mid-line, a
//! flipped bit turns one line into garbage and everything after it is
//! untrusted). Missing ranks are stubbed as immediately-terminating
//! processes. Replayed with damage tolerance on
//! ([`crate::Replay::tolerate_damage`]), the salvage runs to completion
//! or to the first failure — a deadlock or protocol violation caused by
//! the damage is *expected* here and is downgraded into the outcome
//! rather than returned as an error. The outcome carries a
//! **completeness ratio** (actions replayed / actions expected) and the
//! per-rank degradation report, so "90 % of the run replayed, ranks 3
//! and 7 damaged" replaces a bare failure.

use crate::error::ReplayError;
use crate::process::Cursor;
use crate::simulator::Input;
use std::path::Path;
use std::sync::Arc;
use tit_core::parse_line;
use tit_core::tib2::SegmentColumns;
use tit_core::trace::process_trace_filename;

/// Why a rank's stream was degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// The rank's trace file does not exist (dropped by the gather
    /// stage); the rank is stubbed as an immediately-terminating
    /// process.
    MissingFile,
    /// The file exists but its tail is unparseable (truncation or bit
    /// rot); only the leading parseable prefix is replayed.
    TrimmedTail,
    /// A TIB2 store segment failed verification (checksum mismatch,
    /// short read, contradictory header); the rank is replayed up to
    /// the last verified segment boundary. Segment granularity means
    /// one flipped bit costs `seg_actions` actions of one rank, not the
    /// whole rank (`lines_trimmed` counts the trimmed actions exactly,
    /// from the footer index).
    DamagedSegment,
}

impl std::fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradationReason::MissingFile => "missing-file",
            DegradationReason::TrimmedTail => "trimmed-tail",
            DegradationReason::DamagedSegment => "damaged-segment",
        })
    }
}

/// One damaged rank's report.
#[derive(Debug, Clone)]
pub struct RankDegradation {
    /// The damaged rank.
    pub rank: usize,
    /// What kind of damage.
    pub reason: DegradationReason,
    /// Actions salvaged from the leading prefix.
    pub actions_kept: u64,
    /// Trace lines discarded (the damaged line and everything after it;
    /// for a missing file, the estimated action count).
    pub lines_trimmed: u64,
    /// Human-readable diagnosis (parse error, file error).
    pub detail: String,
}

/// One rank's salvaged stream.
struct ScannedRank {
    actions: SegmentColumns,
    degradation: Option<RankDegradation>,
}

/// Reads `rank`'s trace file, keeping the longest parseable prefix.
/// Damage (unreadable bytes, a parse error, a line owned by another
/// pid, a peer past the intern range) trims the stream at that point.
fn scan_rank(dir: &Path, rank: usize) -> std::io::Result<ScannedRank> {
    let path = dir.join(process_trace_filename(rank));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ScannedRank {
                actions: SegmentColumns::new(),
                degradation: Some(RankDegradation {
                    rank,
                    reason: DegradationReason::MissingFile,
                    actions_kept: 0,
                    lines_trimmed: 0,
                    detail: format!("{}: not found", path.display()),
                }),
            });
        }
        Err(e) => return Err(e),
    };
    let mut actions = SegmentColumns::new();
    let mut trim: Option<String> = None;
    let mut lines_trimmed = 0u64;
    for (idx, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let line_no = idx + 1;
        if trim.is_some() {
            // Count the untrusted tail (non-empty payload lines only).
            if !raw.iter().all(u8::is_ascii_whitespace) {
                lines_trimmed += 1;
            }
            continue;
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            trim = Some(format!("line {line_no}: not valid UTF-8"));
            lines_trimmed += 1;
            continue;
        };
        match parse_line(text, line_no) {
            Ok(None) => {}
            Ok(Some((pid, a))) if pid == rank => {
                if let Err(e) = actions.push(&a) {
                    trim = Some(format!("line {line_no}: {e}"));
                    lines_trimmed += 1;
                }
            }
            Ok(Some((pid, _))) => {
                trim = Some(format!("line {line_no}: belongs to p{pid}, not p{rank}"));
                lines_trimmed += 1;
            }
            Err(e) => {
                trim = Some(e.to_string());
                lines_trimmed += 1;
            }
        }
    }
    let degradation = trim.map(|detail| RankDegradation {
        rank,
        reason: DegradationReason::TrimmedTail,
        actions_kept: actions.len() as u64,
        lines_trimmed,
        detail: format!("{}: {detail}", path.display()),
    });
    Ok(ScannedRank { actions, degradation })
}

impl Input {
    /// The `--degraded` scan of a (possibly damaged) per-process trace
    /// directory: each rank's longest parseable prefix, a missing rank
    /// as an empty stream. The expected action count is what present
    /// ranks carried (kept + trimmed lines), and for each missing rank
    /// the maximum over present ranks — SPMD traces are near-uniform
    /// per rank, so the max is a conservative (ratio-lowering) stand-in
    /// for the lost file. Only environmental errors (an unreadable
    /// file) remain errors.
    pub fn salvage_files(dir: &Path, nproc: usize) -> Self {
        let scanned: Result<Vec<ScannedRank>, ReplayError> = (0..nproc)
            .map(|rank| {
                scan_rank(dir, rank).map_err(|source| ReplayError::MissingRank {
                    rank,
                    path: dir.join(process_trace_filename(rank)),
                    source,
                })
            })
            .collect();
        let mut scanned = match scanned {
            Ok(s) => s,
            Err(e) => return Input { cursors: Err(e), ..Input::new(Vec::new(), 0, 0) },
        };
        let per_rank_total: Vec<Option<u64>> = scanned
            .iter()
            .map(|s| match &s.degradation {
                Some(d) if d.reason == DegradationReason::MissingFile => None,
                Some(d) => Some(d.actions_kept + d.lines_trimmed),
                None => Some(s.actions.len() as u64),
            })
            .collect();
        let max_present = per_rank_total.iter().flatten().copied().max().unwrap_or(0);
        let actions_expected = per_rank_total.iter().map(|t| t.unwrap_or(max_present)).sum();
        let mut ranks = Vec::new();
        for s in &mut scanned {
            if let Some(mut d) = s.degradation.take() {
                if d.reason == DegradationReason::MissingFile {
                    d.lines_trimmed = max_present;
                }
                ranks.push(d);
            }
        }
        let cursors =
            scanned.into_iter().map(|s| Cursor::resident(Arc::new(s.actions))).collect();
        Input { damage: ranks, ..Input::new(cursors, actions_expected, 0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{Replay, ReplayOutcome};
    use crate::testkit::{mycluster, plain_cfg, ring_trace, tmp_dir};

    fn salvage(d: &Path) -> ReplayOutcome {
        let (p, hosts) = mycluster(4);
        Replay::new(Input::salvage_files(d, 4), p, &hosts, &plain_cfg())
            .tolerate_damage(true)
            .run()
            .unwrap()
    }

    #[test]
    fn missing_rank_is_stubbed_and_quantified() {
        let d = tmp_dir("missing");
        ring_trace().save_per_process(&d).unwrap();
        std::fs::remove_file(d.join("SG_process2.trace")).unwrap();
        let out = salvage(&d);
        assert!(out.is_partial());
        assert!(out.completeness() < 1.0, "ratio {}", out.completeness());
        assert_eq!(out.ranks.len(), 1);
        assert_eq!(out.ranks[0].rank, 2);
        assert_eq!(out.ranks[0].reason, DegradationReason::MissingFile);
        // The ring blocks without rank 2 — downgraded, not an error.
        assert!(out.failure.is_some());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn truncated_tail_is_trimmed_and_quantified() {
        let d = tmp_dir("trunc");
        ring_trace().save_per_process(&d).unwrap();
        let path = d.join("SG_process1.trace");
        let bytes = std::fs::read(&path).unwrap();
        // Cut mid-way through the second line.
        let cut = bytes.iter().position(|&b| b == b'\n').unwrap() + 5;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let out = salvage(&d);
        assert!(out.is_partial());
        assert!(out.completeness() < 1.0);
        assert_eq!(out.ranks.len(), 1);
        assert_eq!(out.ranks[0].reason, DegradationReason::TrimmedTail);
        assert_eq!(out.ranks[0].actions_kept, 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn garbage_line_trims_everything_after_it() {
        let d = tmp_dir("flip");
        ring_trace().save_per_process(&d).unwrap();
        let path = d.join("SG_process3.trace");
        std::fs::write(&path, "p3 recv p2\np3 c\u{f6}mpute 1e6\np3 send p0 1e6\n").unwrap();
        let out = salvage(&d);
        let d3 = out.ranks.iter().find(|r| r.rank == 3).expect("rank 3 degraded");
        assert_eq!(d3.actions_kept, 1);
        assert_eq!(d3.lines_trimmed, 2, "damaged line + untrusted tail");
        assert!(out.completeness() < 1.0);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn fully_damaged_bundle_never_panics() {
        let d = tmp_dir("allbad");
        for r in 0..4 {
            std::fs::write(
                d.join(format!("SG_process{r}.trace")),
                [0xFFu8, 0xFE, 0x00, b'\n', b'x'],
            )
            .unwrap();
        }
        let out = salvage(&d);
        assert_eq!(out.actions_replayed, 0);
        assert!(out.completeness() < 1.0);
        assert_eq!(out.ranks.len(), 4);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
