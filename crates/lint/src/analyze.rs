//! The analysis driver: runs every lint over a trace and assembles the
//! [`Report`].
//!
//! The passes, in order:
//!
//! 1. **Per-action scan** — rank ranges (TL0009), `comm_size` discipline
//!    (TL0005, TL0006), wait/request discipline (TL0007, TL0008), volume
//!    sanity (TL0010–TL0012) and self-messages (TL0013).
//! 2. **Ordered point-to-point matching** ([`tit_core::match_p2p`]) —
//!    unmatched sends/receives (TL0001, TL0002) and byte annotations
//!    contradicting the matched send (TL0014).
//! 3. **Collective alignment** ([`tit_core::collective_sequences`]) —
//!    the first diverging collective per rank, located on both sides
//!    (TL0004).
//! 4. **Abstract scheduling** ([`crate::schedule`]) — guaranteed
//!    deadlock cycles with every member's rank, action index and
//!    keyword (TL0003).
//! 5. **Shape** — empty ranks (TL0017).
//!
//! Findings are then resolved against the [`LintConfig`] (overridden
//! severities applied, `allow`ed lints dropped), annotated with
//! `file:line` sources when available, deduplicated and sorted
//! deterministically.

use crate::finding::{Finding, LintCode, Location, Report, Severity};
use crate::schedule::schedule;
use crate::source::{load_dir_jobs, SourceMap};
use crate::LintConfig;
use std::path::Path;
use tit_core::{collective_sequences, match_p2p, Action, TiTrace};

/// Analyzes `trace` with default lint levels and no source information.
pub fn analyze(trace: &TiTrace) -> Report {
    analyze_with(trace, None, &LintConfig::default())
}

/// Analyzes `trace`, resolving severities against `cfg` and annotating
/// findings with `file:line` from `sources` when provided.
pub fn analyze_with(
    trace: &TiTrace,
    sources: Option<&SourceMap>,
    cfg: &LintConfig,
) -> Report {
    let mut findings = Vec::new();
    scan_actions(trace, &mut findings);
    lint_p2p(trace, &mut findings);
    lint_collectives(trace, &mut findings);
    lint_deadlocks(trace, &mut findings);
    lint_shape(trace, &mut findings);
    finalize(trace, findings, sources, cfg)
}

/// Lints the conventional per-rank trace directory layout
/// (`SG_process0.trace` … `SG_process<nproc-1>.trace`).
///
/// Loading is total: missing files and unparseable lines become
/// findings (TL0015, TL0016) merged into the report, and the analysis
/// runs on everything that did parse.
pub fn lint_dir(dir: &Path, nproc: usize, cfg: &LintConfig) -> Report {
    lint_dir_jobs(dir, nproc, cfg, 1)
}

/// [`lint_dir`] loading up to `jobs` rank files concurrently (`0` = one
/// worker per CPU). The report is identical to the serial one — loading
/// parallelises per file, the analysis itself is unchanged.
pub fn lint_dir_jobs(dir: &Path, nproc: usize, cfg: &LintConfig, jobs: usize) -> Report {
    let loaded = load_dir_jobs(dir, nproc, jobs);
    let missing: Vec<usize> = loaded
        .findings
        .iter()
        .filter(|f| f.code == LintCode::MissingRankFile)
        .map(|f| f.primary.rank)
        .collect();
    let mut findings = loaded.findings;
    scan_actions(&loaded.trace, &mut findings);
    lint_p2p(&loaded.trace, &mut findings);
    lint_collectives(&loaded.trace, &mut findings);
    lint_deadlocks(&loaded.trace, &mut findings);
    lint_shape(&loaded.trace, &mut findings);
    // An absent file already has its own finding; the resulting empty
    // rank is a consequence, not a second defect.
    findings.retain(|f| !(f.code == LintCode::EmptyRank && missing.contains(&f.primary.rank)));
    finalize(&loaded.trace, findings, Some(&loaded.sources), cfg)
}

/// Pass 1: everything decidable from one action at a time (plus the
/// per-rank running state for `comm_size` and request discipline).
fn scan_actions(trace: &TiTrace, findings: &mut Vec<Finding>) {
    let n = trace.num_processes();
    let mut comm_size: Option<(usize, usize)> = None; // (declaring rank, size)
    for (rank, actions) in trace.actions.iter().enumerate() {
        let mut seen_comm_size = false;
        let mut reported_orphan_collective = false;
        let mut pending_reqs: u64 = 0;
        for (index, a) in actions.iter().enumerate() {
            let loc = || Location::action(rank, index, a.keyword());
            lint_volumes(a, rank, index, findings);
            match *a {
                Action::Send { dst: peer, .. }
                | Action::Isend { dst: peer, .. }
                | Action::Recv { src: peer, .. }
                | Action::Irecv { src: peer, .. } => {
                    if peer >= n {
                        findings.push(Finding::new(
                            LintCode::RankOutOfRange,
                            loc(),
                            format!(
                                "{} references p{peer}, outside the {n}-process set",
                                a.keyword()
                            ),
                        ));
                    } else if peer == rank {
                        // Self-sends get their own code: a blocking
                        // rendezvous self-send can never complete, so
                        // the send side is the actionable half.
                        let code = if matches!(a, Action::Send { .. } | Action::Isend { .. }) {
                            LintCode::SelfSend
                        } else {
                            LintCode::SelfMessage
                        };
                        findings.push(Finding::new(
                            code,
                            loc(),
                            format!("p{rank} {}s to itself", a.keyword()),
                        ));
                    }
                }
                Action::CommSize { nproc } => {
                    seen_comm_size = true;
                    match comm_size {
                        None => comm_size = Some((rank, nproc)),
                        Some((first, expected)) if expected != nproc => {
                            findings.push(Finding::new(
                                LintCode::InconsistentCommSize,
                                loc(),
                                format!(
                                    "comm_size declares {nproc} processes but p{first} \
                                     declared {expected}"
                                ),
                            ));
                        }
                        Some(_) => {}
                    }
                }
                Action::Wait => {
                    if pending_reqs == 0 {
                        findings.push(Finding::new(
                            LintCode::WaitWithoutRequest,
                            loc(),
                            format!("wait on p{rank} has no pending non-blocking request"),
                        ));
                    } else {
                        pending_reqs -= 1;
                    }
                }
                _ => {}
            }
            if a.is_collective() && !seen_comm_size && !reported_orphan_collective {
                reported_orphan_collective = true;
                findings.push(Finding::new(
                    LintCode::CollectiveBeforeCommSize,
                    loc(),
                    format!("{} on p{rank} before any comm_size", a.keyword()),
                ));
            }
            if a.is_nonblocking() {
                pending_reqs += 1;
            }
        }
        if pending_reqs > 0 {
            findings.push(Finding::new(
                LintCode::DanglingRequests,
                Location::rank(rank),
                format!(
                    "p{rank} ends its trace with {pending_reqs} non-blocking request(s) \
                     never completed by a wait"
                ),
            ));
        }
    }
}

/// Volume sanity for one action: NaN/infinite (TL0010), negative
/// (TL0011), zero-byte point-to-point send (TL0012), zero-volume
/// collective payload or zero-annotated receive (TL0020).
fn lint_volumes(a: &Action, rank: usize, index: usize, findings: &mut Vec<Finding>) {
    let checked: Vec<(&str, f64)> = match *a {
        Action::Compute { flops } => vec![("flops", flops)],
        Action::Send { bytes, .. } | Action::Isend { bytes, .. } | Action::Bcast { bytes } => {
            vec![("bytes", bytes)]
        }
        Action::Recv { bytes, .. } | Action::Irecv { bytes, .. } => {
            bytes.map(|b| ("bytes", b)).into_iter().collect()
        }
        Action::Reduce { vcomm, vcomp } | Action::AllReduce { vcomm, vcomp } => {
            vec![("communicated bytes", vcomm), ("combining flops", vcomp)]
        }
        Action::Barrier | Action::CommSize { .. } | Action::Wait => Vec::new(),
    };
    for (what, v) in checked {
        let loc = Location::action(rank, index, a.keyword());
        if !v.is_finite() {
            findings.push(Finding::new(
                LintCode::NonFiniteVolume,
                loc,
                format!("{} on p{rank} has a non-finite volume ({what} = {v})", a.keyword()),
            ));
        } else if v < 0.0 {
            findings.push(Finding::new(
                LintCode::NegativeVolume,
                loc,
                format!("{} on p{rank} has a negative volume ({what} = {v})", a.keyword()),
            ));
        } else if v == 0.0
            && matches!(a, Action::Send { .. } | Action::Isend { .. })
        {
            findings.push(Finding::new(
                LintCode::ZeroVolumeComm,
                loc,
                format!("{} on p{rank} transfers zero bytes", a.keyword()),
            ));
        } else if v == 0.0
            && what != "combining flops"
            && matches!(
                a,
                Action::Recv { .. }
                    | Action::Irecv { .. }
                    | Action::Bcast { .. }
                    | Action::Reduce { .. }
                    | Action::AllReduce { .. }
            )
        {
            findings.push(Finding::new(
                LintCode::ZeroVolumeTransfer,
                loc,
                format!("{} on p{rank} declares a zero-byte transfer", a.keyword()),
            ));
        }
    }
}

/// Pass 2: ordered matching — missing receives/sends and contradicted
/// byte annotations.
fn lint_p2p(trace: &TiTrace, findings: &mut Vec<Finding>) {
    let n = trace.num_processes();
    let matching = match_p2p(trace);
    for s in &matching.unmatched_sends {
        if s.peer >= n {
            continue; // TL0009 already covers it, and no receive could exist
        }
        let kw = if s.nonblocking { "Isend" } else { "send" };
        findings.push(Finding::new(
            LintCode::MissingRecv,
            Location::action(s.rank, s.index, kw),
            format!(
                "{kw} of {} B from p{} to p{} has no matching receive on p{}",
                s.bytes.unwrap_or(0.0),
                s.rank,
                s.peer,
                s.peer
            ),
        ));
    }
    for r in &matching.unmatched_recvs {
        if r.peer >= n {
            continue;
        }
        let kw = if r.nonblocking { "Irecv" } else { "recv" };
        findings.push(Finding::new(
            LintCode::MissingSend,
            Location::action(r.rank, r.index, kw),
            format!(
                "{kw} on p{} from p{} has no matching send on p{}",
                r.rank, r.peer, r.peer
            ),
        ));
    }
    for m in &matching.matched {
        let (Some(declared), Some(sent)) = (m.recv.bytes, m.send.bytes) else {
            continue;
        };
        if declared == sent || !declared.is_finite() || !sent.is_finite() {
            continue; // non-finite volumes already have their own finding
        }
        let recv_kw = if m.recv.nonblocking { "Irecv" } else { "recv" };
        let send_kw = if m.send.nonblocking { "Isend" } else { "send" };
        let mut f = Finding::new(
            LintCode::RecvBytesMismatch,
            Location::action(m.recv.rank, m.recv.index, recv_kw),
            format!(
                "{recv_kw} on p{} declares {declared} B but the matched {send_kw} \
                 from p{} carries {sent} B",
                m.recv.rank, m.send.rank
            ),
        );
        f.related.push(Location::action(m.send.rank, m.send.index, send_kw));
        findings.push(f);
    }
}

/// Pass 3: collective alignment — the first diverging collective per
/// rank, against rank 0's sequence.
fn lint_collectives(trace: &TiTrace, findings: &mut Vec<Finding>) {
    let seqs = collective_sequences(trace);
    if seqs.len() < 2 {
        return;
    }
    let reference = &seqs[0];
    for (rank, seq) in seqs.iter().enumerate().skip(1) {
        let first_kind_diff = reference
            .iter()
            .zip(seq.iter())
            .position(|((_, a), (_, b))| a != b);
        let diverge = first_kind_diff.or(if reference.len() == seq.len() {
            None
        } else {
            Some(reference.len().min(seq.len()))
        });
        let Some(k) = diverge else { continue };
        let mine = seq.get(k);
        let theirs = reference.get(k);
        let message = match (mine, theirs) {
            (Some(&(_, kw)), Some(&(_, ref_kw))) => format!(
                "collective #{k} on p{rank} is {kw} but p0's is {ref_kw}"
            ),
            (Some(&(_, kw)), None) => format!(
                "p{rank} performs {} collective(s) but p0 only {}; first extra is {kw}",
                seq.len(),
                reference.len()
            ),
            (None, Some(&(_, ref_kw))) => format!(
                "p{rank} performs {} collective(s) but p0 performs {}; p0's \
                 collective #{k} ({ref_kw}) is unmatched",
                seq.len(),
                reference.len()
            ),
            (None, None) => continue,
        };
        let mut f = match mine {
            Some(&(index, kw)) => Finding::new(
                LintCode::CollectiveDivergence,
                Location::action(rank, index, kw),
                message,
            ),
            None => Finding::new(LintCode::CollectiveDivergence, Location::rank(rank), message),
        };
        if let Some(&(ref_index, ref_kw)) = theirs {
            f.related.push(Location::action(0, ref_index, ref_kw));
        }
        findings.push(f);
    }
}

/// Pass 4: abstract scheduling — guaranteed deadlock cycles (TL0003).
fn lint_deadlocks(trace: &TiTrace, findings: &mut Vec<Finding>) {
    let out = schedule(trace);
    if out.completed {
        return;
    }
    for cycle in &out.cycles {
        let members: Vec<&crate::schedule::Blocked> =
            cycle.iter().map(|&i| &out.blocked[i]).collect();
        let mut chain = String::new();
        for b in &members {
            if !chain.is_empty() {
                chain.push_str(" -> ");
            }
            chain.push_str(&format!("p{} ({} at action {})", b.rank, b.keyword, b.index));
        }
        chain.push_str(&format!(" -> p{}", members[0].rank));
        let mut f = Finding::new(
            LintCode::DeadlockCycle,
            Location::action(members[0].rank, members[0].index, members[0].keyword),
            format!(
                "guaranteed deadlock: {} rank(s) block each other in a cycle: {chain}",
                members.len()
            ),
        );
        for b in members.iter().skip(1) {
            f.related.push(Location::action(b.rank, b.index, b.keyword));
        }
        findings.push(f);
    }
    if out.cycles.is_empty()
        && !findings.iter().any(|f| f.code.default_severity() == Severity::Error)
    {
        // Stalled with no cycle and no other explanation on record:
        // still refuse to call the trace replayable.
        let b = &out.blocked[0];
        let mut f = Finding::new(
            LintCode::DeadlockCycle,
            Location::action(b.rank, b.index, b.keyword),
            format!(
                "trace cannot run to completion: {} rank(s) block forever \
                 with no matching progress available",
                out.blocked.len()
            ),
        );
        for b in out.blocked.iter().skip(1) {
            f.related.push(Location::action(b.rank, b.index, b.keyword));
        }
        findings.push(f);
    }
}

/// Pass 5: shape — ranks with no actions at all (TL0017).
fn lint_shape(trace: &TiTrace, findings: &mut Vec<Finding>) {
    if trace.num_actions() == 0 {
        return;
    }
    for (rank, actions) in trace.actions.iter().enumerate() {
        if actions.is_empty() {
            findings.push(Finding::new(
                LintCode::EmptyRank,
                Location::rank(rank),
                format!("p{rank} has no actions while other ranks do"),
            ));
        }
    }
}

/// Applies severities, drops `allow`ed findings, annotates sources, and
/// orders the report deterministically.
fn finalize(
    trace: &TiTrace,
    mut findings: Vec<Finding>,
    sources: Option<&SourceMap>,
    cfg: &LintConfig,
) -> Report {
    for f in &mut findings {
        f.severity = cfg.severity(f.code);
        if let Some(map) = sources {
            map.annotate(&mut f.primary);
            for loc in &mut f.related {
                map.annotate(loc);
            }
        }
    }
    findings.retain(|f| f.severity != Severity::Allow);
    findings.sort_by(|a, b| {
        (
            a.primary.rank,
            a.primary.index.unwrap_or(usize::MAX),
            a.code.id(),
            &a.message,
        )
            .cmp(&(
                b.primary.rank,
                b.primary.index.unwrap_or(usize::MAX),
                b.code.id(),
                &b.message,
            ))
    });
    findings.dedup();
    Report {
        findings,
        num_processes: trace.num_processes(),
        num_actions: trace.num_actions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::Severity;

    fn codes(report: &Report) -> Vec<LintCode> {
        report.findings.iter().map(|f| f.code).collect()
    }

    /// The acceptance fixture: a hand-crafted 3-rank circular
    /// send/recv deadlock, statically detected with the full cycle.
    #[test]
    fn detects_three_rank_circular_deadlock_with_cycle_members() {
        let mut t = TiTrace::new(3);
        for r in 0..3usize {
            t.push(r, Action::Recv { src: (r + 2) % 3, bytes: None });
            t.push(r, Action::Send { dst: (r + 1) % 3, bytes: 1024.0 });
        }
        let report = analyze(&t);
        assert!(report.has_errors());
        let deadlock = report
            .findings
            .iter()
            .find(|f| f.code == LintCode::DeadlockCycle)
            .expect("deadlock finding");
        // The full cycle: 3 members, each with rank + action index +
        // keyword.
        assert_eq!(deadlock.primary.rank, 0);
        assert_eq!(deadlock.primary.index, Some(0));
        assert_eq!(deadlock.primary.keyword, Some("recv"));
        assert_eq!(deadlock.related.len(), 2);
        let mut cycle_ranks: Vec<usize> = std::iter::once(deadlock.primary.rank)
            .chain(deadlock.related.iter().map(|l| l.rank))
            .collect();
        cycle_ranks.sort_unstable();
        assert_eq!(cycle_ranks, vec![0, 1, 2]);
        assert!(deadlock.message.contains("p0 (recv at action 0)"), "{}", deadlock.message);
        // Counts balance, so no send or receive is unmatched: the
        // deadlock is only visible to the abstract schedule.
        let c = codes(&report);
        assert!(!c.contains(&LintCode::MissingRecv) && !c.contains(&LintCode::MissingSend));
    }

    #[test]
    fn detects_missing_recv_without_simulating() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Send { dst: 1, bytes: 64.0 });
        t.push(0, Action::Send { dst: 1, bytes: 128.0 });
        t.push(1, Action::Recv { src: 0, bytes: None });
        let report = analyze(&t);
        let missing: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.code == LintCode::MissingRecv)
            .collect();
        assert_eq!(missing.len(), 1);
        // FIFO matching pins the *second* send as the unmatched one.
        assert_eq!(missing[0].primary.index, Some(1));
        assert!(missing[0].message.contains("128"), "{}", missing[0].message);
    }

    #[test]
    fn detects_missing_send() {
        let mut t = TiTrace::new(2);
        t.push(1, Action::Recv { src: 0, bytes: None });
        let report = analyze(&t);
        assert!(codes(&report).contains(&LintCode::MissingSend));
        // The stall is explained by the missing send; no synthetic
        // deadlock finding piles on.
        assert!(!codes(&report).contains(&LintCode::DeadlockCycle));
    }

    #[test]
    fn detects_collective_divergence_with_both_sides() {
        let mut t = TiTrace::new(2);
        for r in 0..2usize {
            t.push(r, Action::CommSize { nproc: 2 });
        }
        t.push(0, Action::Barrier);
        t.push(0, Action::Bcast { bytes: 64.0 });
        t.push(1, Action::Bcast { bytes: 64.0 });
        t.push(1, Action::Barrier);
        let report = analyze(&t);
        let div = report
            .findings
            .iter()
            .find(|f| f.code == LintCode::CollectiveDivergence)
            .expect("divergence finding");
        assert_eq!(div.primary.rank, 1);
        assert_eq!(div.primary.index, Some(1), "first diverging action on p1");
        assert_eq!(div.related[0].rank, 0);
        assert!(div.message.contains("bcast"), "{}", div.message);
    }

    #[test]
    fn detects_collective_count_mismatch() {
        let mut t = TiTrace::new(2);
        for r in 0..2usize {
            t.push(r, Action::CommSize { nproc: 2 });
            t.push(r, Action::Barrier);
        }
        t.push(0, Action::Barrier);
        let report = analyze(&t);
        assert!(codes(&report).contains(&LintCode::CollectiveDivergence));
    }

    #[test]
    fn volume_sanity_lints() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Compute { flops: f64::NAN });
        t.push(0, Action::Send { dst: 1, bytes: -5.0 });
        t.push(0, Action::Isend { dst: 1, bytes: 0.0 });
        t.push(1, Action::Recv { src: 0, bytes: None });
        t.push(1, Action::Irecv { src: 0, bytes: None });
        t.push(1, Action::Wait);
        let report = analyze(&t);
        let c = codes(&report);
        assert!(c.contains(&LintCode::NonFiniteVolume), "{c:?}");
        assert!(c.contains(&LintCode::NegativeVolume), "{c:?}");
        assert!(c.contains(&LintCode::ZeroVolumeComm), "{c:?}");
    }

    #[test]
    fn zero_volume_transfers_warn_separately_from_sends() {
        // TL0020 covers zero-payload collectives and zero-annotated
        // receives; the zero-byte *send* stays TL0012.
        let mut t = TiTrace::new(2);
        for r in 0..2usize {
            t.push(r, Action::CommSize { nproc: 2 });
            t.push(r, Action::Bcast { bytes: 0.0 });
            t.push(r, Action::AllReduce { vcomm: 0.0, vcomp: 8.0 });
        }
        t.push(0, Action::Send { dst: 1, bytes: 8.0 });
        t.push(1, Action::Recv { src: 0, bytes: Some(0.0) });
        let report = analyze(&t);
        let zv: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.code == LintCode::ZeroVolumeTransfer)
            .collect();
        // bcast ×2 + allReduce ×2 + the annotated recv.
        assert_eq!(zv.len(), 5, "{}", report.render_text());
        assert!(zv.iter().all(|f| f.severity == Severity::Warn));
        // The zero vcomp-free allReduce must NOT fire for its flops,
        // and no TL0012 fires (the only send carries 8 bytes)...
        assert!(!codes(&report).contains(&LintCode::ZeroVolumeComm));
        // ...and the recv's declared 0 bytes also contradicts the
        // matched 8-byte send (TL0014 stays independent).
        assert!(codes(&report).contains(&LintCode::RecvBytesMismatch));
        let json = report.to_json();
        assert!(json.contains("\"code\":\"TL0020\""), "{json}");
        assert!(report.render_text().contains("TL0020"));
    }

    #[test]
    fn self_send_is_its_own_code() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Isend { dst: 0, bytes: 4.0 });
        t.push(0, Action::Wait);
        t.push(1, Action::Compute { flops: 1.0 });
        let report = analyze(&t);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == LintCode::SelfSend)
            .expect("self-send finding");
        assert_eq!(f.severity, Severity::Warn);
        assert_eq!(f.primary.rank, 0);
        assert!(f.message.contains("itself"), "{}", f.message);
        assert!(report.to_json().contains("\"code\":\"TL0019\""));
    }

    #[test]
    fn recv_bytes_mismatch_points_at_both_endpoints() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Send { dst: 1, bytes: 100.0 });
        t.push(1, Action::Recv { src: 0, bytes: Some(64.0) });
        let report = analyze(&t);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == LintCode::RecvBytesMismatch)
            .expect("mismatch finding");
        assert_eq!(f.severity, Severity::Warn);
        assert_eq!(f.primary.rank, 1);
        assert_eq!(f.related[0].rank, 0);
        assert!(f.message.contains("100"), "{}", f.message);
    }

    #[test]
    fn self_message_and_empty_rank_are_warnings() {
        let mut t = TiTrace::new(3);
        t.push(0, Action::Send { dst: 0, bytes: 8.0 });
        t.push(0, Action::Recv { src: 0, bytes: None });
        t.push(1, Action::Compute { flops: 1.0 });
        let report = analyze(&t);
        // The send side is TL0019, the receive side TL0013.
        let self_sends =
            report.findings.iter().filter(|f| f.code == LintCode::SelfSend).count();
        let self_msgs =
            report.findings.iter().filter(|f| f.code == LintCode::SelfMessage).count();
        assert_eq!(self_sends, 1);
        assert_eq!(self_msgs, 1);
        let empty: Vec<&Finding> =
            report.findings.iter().filter(|f| f.code == LintCode::EmptyRank).collect();
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0].primary.rank, 2);
        assert!(report.findings.iter().all(|f| f.code == LintCode::SelfMessage
            || f.code == LintCode::SelfSend
            || f.code == LintCode::EmptyRank
            || f.severity == Severity::Error));
    }

    #[test]
    fn wait_discipline_and_comm_size_lints() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Wait);
        t.push(0, Action::CommSize { nproc: 2 });
        t.push(0, Action::Barrier);
        t.push(1, Action::Barrier); // before its comm_size
        t.push(1, Action::CommSize { nproc: 3 }); // inconsistent
        t.push(1, Action::Irecv { src: 0, bytes: None }); // dangling
        t.push(0, Action::Send { dst: 1, bytes: 8.0 });
        let report = analyze(&t);
        let c = codes(&report);
        assert!(c.contains(&LintCode::WaitWithoutRequest), "{c:?}");
        assert!(c.contains(&LintCode::CollectiveBeforeCommSize), "{c:?}");
        assert!(c.contains(&LintCode::InconsistentCommSize), "{c:?}");
        assert!(c.contains(&LintCode::DanglingRequests), "{c:?}");
    }

    #[test]
    fn rank_out_of_range_suppresses_duplicate_p2p_lints() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Send { dst: 9, bytes: 8.0 });
        let report = analyze(&t);
        let c = codes(&report);
        assert!(c.contains(&LintCode::RankOutOfRange), "{c:?}");
        assert!(!c.contains(&LintCode::MissingRecv), "{c:?}");
    }

    #[test]
    fn clean_trace_reports_nothing() {
        let mut t = TiTrace::new(2);
        for r in 0..2usize {
            t.push(r, Action::CommSize { nproc: 2 });
        }
        t.push(0, Action::Compute { flops: 1e6 });
        t.push(0, Action::Send { dst: 1, bytes: 64.0 });
        t.push(1, Action::Recv { src: 0, bytes: Some(64.0) });
        for r in 0..2usize {
            t.push(r, Action::Barrier);
            t.push(r, Action::AllReduce { vcomm: 8.0, vcomp: 8.0 });
        }
        let report = analyze(&t);
        assert!(report.findings.is_empty(), "{}", report.render_text());
        assert_eq!(report.num_processes, 2);
        assert_eq!(report.num_actions, 9);
    }

    #[test]
    fn config_can_allow_and_escalate() {
        let mut t = TiTrace::new(3);
        t.push(0, Action::Send { dst: 0, bytes: 8.0 });
        t.push(0, Action::Recv { src: 0, bytes: None });
        t.push(1, Action::Compute { flops: 1.0 });
        let mut cfg = LintConfig::default();
        cfg.set_level(LintCode::SelfMessage, Severity::Allow);
        cfg.set_level(LintCode::SelfSend, Severity::Allow);
        cfg.set_level(LintCode::EmptyRank, Severity::Error);
        let report = analyze_with(&t, None, &cfg);
        let c = codes(&report);
        assert!(!c.contains(&LintCode::SelfMessage), "{c:?}");
        assert!(!c.contains(&LintCode::SelfSend), "{c:?}");
        let empty = report.findings.iter().find(|f| f.code == LintCode::EmptyRank).unwrap();
        assert_eq!(empty.severity, Severity::Error);
        assert!(report.has_errors());
    }

    #[test]
    fn findings_are_deterministically_ordered() {
        let mut t = TiTrace::new(3);
        for r in 0..3usize {
            t.push(r, Action::Recv { src: (r + 2) % 3, bytes: None });
            t.push(r, Action::Send { dst: (r + 1) % 3, bytes: -1.0 });
        }
        let a = analyze(&t);
        let b = analyze(&t);
        assert_eq!(a.findings, b.findings);
        let keys: Vec<(usize, Option<usize>)> =
            a.findings.iter().map(|f| (f.primary.rank, f.primary.index)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
