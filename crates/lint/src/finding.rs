//! Lint findings: the stable code catalogue, severities, source
//! locations, and the human-readable / JSON renderings.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use tit_core::json::Json;
use tit_core::json_obj;

/// How severe a finding is — and therefore what the driver does with it.
///
/// `Error` findings make `tit-lint` exit non-zero and make the
/// `tit-replay --lint` preflight refuse to start the simulator; `Warn`
/// findings are reported; `Allow` findings are suppressed entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suppressed: the finding is dropped from the report.
    Allow,
    /// Reported but does not fail the lint.
    Warn,
    /// Proves the trace cannot replay faithfully; fails the lint.
    Error,
}

impl Severity {
    /// Lowercase label used in both renderings (`error`, `warning`,
    /// `allow`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a severity label (`error` / `warn` / `warning` / `allow`).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "error" | "deny" => Some(Severity::Error),
            "warn" | "warning" => Some(Severity::Warn),
            "allow" => Some(Severity::Allow),
            _ => None,
        }
    }
}

/// The lint catalogue. Codes are stable across releases: new lints get
/// new codes, retired lints leave holes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// TL0001: a send with no matching receive on the destination.
    MissingRecv,
    /// TL0002: a receive with no matching send from the source.
    MissingSend,
    /// TL0003: a guaranteed deadlock — a cycle in the cross-rank
    /// wait-for graph under the most permissive (eager-send) semantics.
    DeadlockCycle,
    /// TL0004: collective sequences diverge between ranks.
    CollectiveDivergence,
    /// TL0005: a collective before any `comm_size` on that rank.
    CollectiveBeforeCommSize,
    /// TL0006: ranks disagree on the declared communicator size.
    InconsistentCommSize,
    /// TL0007: a `wait` with no pending non-blocking request.
    WaitWithoutRequest,
    /// TL0008: non-blocking requests still pending at end of trace.
    DanglingRequests,
    /// TL0009: an action references a rank outside the process set.
    RankOutOfRange,
    /// TL0010: a NaN or infinite volume.
    NonFiniteVolume,
    /// TL0011: a negative volume.
    NegativeVolume,
    /// TL0012: a zero-byte point-to-point communication.
    ZeroVolumeComm,
    /// TL0013: a rank sending to or receiving from itself.
    SelfMessage,
    /// TL0014: a receive's byte annotation contradicts the matched send.
    RecvBytesMismatch,
    /// TL0015: an expected per-rank trace file is missing.
    MissingRankFile,
    /// TL0016: a trace line that does not parse (or cannot be read).
    ParseFailure,
    /// TL0017: a rank with no actions while others have some.
    EmptyRank,
    /// TL0018: a line in a per-rank trace file declares a different
    /// process id than the file's rank.
    RankMismatch,
    /// TL0019: a rank sending to itself (`send`/`Isend` with
    /// `dst == rank`) — under the replayer's mailbox discipline the
    /// message can only be consumed by the same rank's later receive,
    /// which a blocking self-send above the eager threshold never
    /// reaches.
    SelfSend,
    /// TL0020: a collective with zero payload, or a receive explicitly
    /// annotated with zero bytes — usually an extraction bug (the
    /// zero-byte point-to-point *send* case is TL0012).
    ZeroVolumeTransfer,
}

impl LintCode {
    /// Every lint in the catalogue, in code order.
    pub const ALL: [LintCode; 20] = [
        LintCode::MissingRecv,
        LintCode::MissingSend,
        LintCode::DeadlockCycle,
        LintCode::CollectiveDivergence,
        LintCode::CollectiveBeforeCommSize,
        LintCode::InconsistentCommSize,
        LintCode::WaitWithoutRequest,
        LintCode::DanglingRequests,
        LintCode::RankOutOfRange,
        LintCode::NonFiniteVolume,
        LintCode::NegativeVolume,
        LintCode::ZeroVolumeComm,
        LintCode::SelfMessage,
        LintCode::RecvBytesMismatch,
        LintCode::MissingRankFile,
        LintCode::ParseFailure,
        LintCode::EmptyRank,
        LintCode::RankMismatch,
        LintCode::SelfSend,
        LintCode::ZeroVolumeTransfer,
    ];

    /// The stable code string (`TL0001`…).
    pub fn id(self) -> &'static str {
        match self {
            LintCode::MissingRecv => "TL0001",
            LintCode::MissingSend => "TL0002",
            LintCode::DeadlockCycle => "TL0003",
            LintCode::CollectiveDivergence => "TL0004",
            LintCode::CollectiveBeforeCommSize => "TL0005",
            LintCode::InconsistentCommSize => "TL0006",
            LintCode::WaitWithoutRequest => "TL0007",
            LintCode::DanglingRequests => "TL0008",
            LintCode::RankOutOfRange => "TL0009",
            LintCode::NonFiniteVolume => "TL0010",
            LintCode::NegativeVolume => "TL0011",
            LintCode::ZeroVolumeComm => "TL0012",
            LintCode::SelfMessage => "TL0013",
            LintCode::RecvBytesMismatch => "TL0014",
            LintCode::MissingRankFile => "TL0015",
            LintCode::ParseFailure => "TL0016",
            LintCode::EmptyRank => "TL0017",
            LintCode::RankMismatch => "TL0018",
            LintCode::SelfSend => "TL0019",
            LintCode::ZeroVolumeTransfer => "TL0020",
        }
    }

    /// Looks a lint up by its stable code string.
    pub fn from_id(id: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.id() == id)
    }

    /// Severity before any [`LintConfig`] override.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::ZeroVolumeComm
            | LintCode::SelfMessage
            | LintCode::RecvBytesMismatch
            | LintCode::EmptyRank
            | LintCode::SelfSend
            | LintCode::ZeroVolumeTransfer => Severity::Warn,
            _ => Severity::Error,
        }
    }

    /// One-line description of what the lint proves.
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::MissingRecv => "send with no matching receive",
            LintCode::MissingSend => "receive with no matching send",
            LintCode::DeadlockCycle => "guaranteed deadlock cycle",
            LintCode::CollectiveDivergence => "collective sequences diverge between ranks",
            LintCode::CollectiveBeforeCommSize => "collective before comm_size",
            LintCode::InconsistentCommSize => "ranks disagree on comm_size",
            LintCode::WaitWithoutRequest => "wait with no pending request",
            LintCode::DanglingRequests => "non-blocking requests never waited",
            LintCode::RankOutOfRange => "rank outside the process set",
            LintCode::NonFiniteVolume => "NaN or infinite volume",
            LintCode::NegativeVolume => "negative volume",
            LintCode::ZeroVolumeComm => "zero-byte communication",
            LintCode::SelfMessage => "rank communicates with itself",
            LintCode::RecvBytesMismatch => "receive bytes contradict the matched send",
            LintCode::MissingRankFile => "per-rank trace file missing",
            LintCode::ParseFailure => "unparseable trace line",
            LintCode::EmptyRank => "rank has no actions",
            LintCode::RankMismatch => "trace line owned by a different rank",
            LintCode::SelfSend => "rank sends to itself",
            LintCode::ZeroVolumeTransfer => "zero-volume collective or annotated receive",
        }
    }
}

/// Per-code severity overrides (`--allow TL0013`, `--error TL0012`, …).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: BTreeMap<LintCode, Severity>,
}

impl LintConfig {
    /// Sets the severity for one lint code.
    pub fn set_level(&mut self, code: LintCode, level: Severity) -> &mut Self {
        self.overrides.insert(code, level);
        self
    }

    /// The effective severity of `code` under this configuration.
    pub fn severity(&self, code: LintCode) -> Severity {
        self.overrides.get(&code).copied().unwrap_or_else(|| code.default_severity())
    }
}

/// A place in the trace set a finding points at.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Location {
    /// The rank the finding concerns.
    pub rank: usize,
    /// Index into that rank's action list, when the finding pins one.
    pub index: Option<usize>,
    /// Trace keyword of the action at `index`.
    pub keyword: Option<&'static str>,
    /// Source file the action came from, when the trace was loaded from
    /// text.
    pub file: Option<String>,
    /// 1-based line in `file`.
    pub line: Option<usize>,
}

impl Location {
    /// A location pinning `rank`'s action at `index`.
    pub fn action(rank: usize, index: usize, keyword: &'static str) -> Location {
        Location { rank, index: Some(index), keyword: Some(keyword), file: None, line: None }
    }

    /// A rank-level location (no specific action).
    pub fn rank(rank: usize) -> Location {
        Location { rank, ..Location::default() }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.rank)?;
        if let Some(i) = self.index {
            write!(f, " action {i}")?;
        }
        if let Some(kw) = self.keyword {
            write!(f, " ({kw})")?;
        }
        if let Some(file) = &self.file {
            write!(f, " at {file}")?;
            if let Some(line) = self.line {
                write!(f, ":{line}")?;
            }
        }
        Ok(())
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity (after [`LintConfig`] overrides).
    pub severity: Severity,
    /// What happened, in one sentence.
    pub message: String,
    /// Where it happened.
    pub primary: Location,
    /// Other involved locations (e.g. every member of a deadlock cycle,
    /// or the matched send of a contradicted receive).
    pub related: Vec<Location>,
}

impl Finding {
    /// A finding with the lint's default severity and no related
    /// locations (the severity is re-resolved against the active
    /// [`LintConfig`] when the report is finalised).
    pub fn new(code: LintCode, primary: Location, message: impl Into<String>) -> Finding {
        Finding {
            code,
            severity: code.default_severity(),
            message: message.into(),
            primary,
            related: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}\n  --> {}",
            self.severity.label(),
            self.code.id(),
            self.message,
            self.primary
        )?;
        for loc in &self.related {
            write!(f, "\n  --> {loc}")?;
        }
        Ok(())
    }
}

/// The analyzer's output: every finding, plus trace-shape context.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, deterministically ordered.
    pub findings: Vec<Finding>,
    /// Number of processes analysed.
    pub num_processes: usize,
    /// Total number of actions analysed.
    pub num_actions: usize,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warn).count()
    }

    /// True when at least one finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// Human-readable rendering, one block per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s) over {} action(s) on {} process(es)",
            self.errors(),
            self.warnings(),
            self.num_actions,
            self.num_processes
        );
        out
    }

    /// Machine-readable rendering (the `--format json` output): one
    /// compact JSON line, without a trailing newline.
    ///
    /// Schema: `{"tool","num_processes","num_actions","errors",
    /// "warnings","findings":[{"code","severity","message","rank",
    /// "index","keyword","file","line","related":[…]}]}` where absent
    /// location fields are `null`.
    pub fn to_json(&self) -> String {
        let findings = self.findings.iter().map(|f| {
            let related = f.related.iter().map(|l| json_obj!(l; rank, index, keyword, file, line));
            json_obj!(f.primary; code = f.code.id(), severity = f.severity.label(),
                message = f.message.as_str(), rank, index, keyword, file, line,
                related = Json::Arr(related.collect()))
        });
        json_obj!(self; tool = "tit-lint", num_processes, num_actions, errors = self.errors(),
            warnings = self.warnings(), findings = Json::Arr(findings.collect()))
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let ids: Vec<&str> = LintCode::ALL.iter().map(|c| c.id()).collect();
        let distinct: std::collections::BTreeSet<&&str> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len());
        assert_eq!(LintCode::MissingRecv.id(), "TL0001");
        assert_eq!(LintCode::DeadlockCycle.id(), "TL0003");
        assert_eq!(LintCode::from_id("TL0014"), Some(LintCode::RecvBytesMismatch));
        assert_eq!(LintCode::from_id("TL9999"), None);
    }

    #[test]
    fn config_overrides_default_severity() {
        let mut cfg = LintConfig::default();
        assert_eq!(cfg.severity(LintCode::SelfMessage), Severity::Warn);
        cfg.set_level(LintCode::SelfMessage, Severity::Error);
        cfg.set_level(LintCode::MissingRecv, Severity::Allow);
        assert_eq!(cfg.severity(LintCode::SelfMessage), Severity::Error);
        assert_eq!(cfg.severity(LintCode::MissingRecv), Severity::Allow);
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let mut f = Finding::new(
            LintCode::ParseFailure,
            Location {
                rank: 1,
                index: None,
                keyword: None,
                file: Some("a\"b.trace".into()),
                line: Some(7),
            },
            "bad \"keyword\"\nnext",
        );
        f.related.push(Location::action(0, 2, "send"));
        let report =
            Report { findings: vec![f], num_processes: 2, num_actions: 5 };
        let json = report.to_json();
        assert!(json.contains("\"code\":\"TL0016\""), "{json}");
        assert!(json.contains("\\\"keyword\\\"\\nnext"), "{json}");
        assert!(json.contains("\"file\":\"a\\\"b.trace\""), "{json}");
        assert!(json.contains("\"related\":[{\"rank\":0,\"index\":2"), "{json}");
        assert!(json.contains("\"errors\":1"), "{json}");
    }

    #[test]
    fn text_rendering_names_code_and_location() {
        let f = Finding::new(
            LintCode::MissingRecv,
            Location::action(3, 9, "send"),
            "p3 sends 64 B to p1 but p1 posts no matching receive",
        );
        let text = f.to_string();
        assert!(text.contains("error[TL0001]"), "{text}");
        assert!(text.contains("p3 action 9 (send)"), "{text}");
    }
}
