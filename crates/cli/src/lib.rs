//! `tit-cli` — command-line front ends.
//!
//! * `tit-acquire` — run the emulated instrumented application under an
//!   acquisition mode, producing TAU traces (Figure 2, steps 1-2).
//! * `tit-extract` — `tau2simgrid`: TAU traces → time-independent traces
//!   (step 3), plus the K-nomial gathering bundle (step 4).
//! * `tit-replay` — the trace replay tool: traces + platform +
//!   deployment → simulated time (Figure 4), with streaming
//!   observability outputs (`--timeline`, `--timed-trace`, `--profile`,
//!   `--metrics`).
//! * `tit-profile` — re-renders a per-rank profile (text or JSON) from
//!   a previously written timed-trace CSV.
//! * `tit-lint` — static trace analyzer: ordered send/recv matching,
//!   guaranteed-deadlock detection, collective alignment and volume
//!   sanity, with stable lint codes and JSON output.
//! * `tit-stats` — trace statistics (Table 3's columns) and the
//!   `titlint` structural check.
//! * `tit-calibrate` — flop rate, ping-pong latency, piecewise fit
//!   (Section 5's calibration).
//!
//! Each tool's usage line is its argument grammar (no external
//! dependency): [`Args`] reads the flags it lists and refuses anything
//! else with exit code 2.

#![forbid(unsafe_code)]

use simkern::resource::HostId;
use simkern::Platform;
use std::collections::HashMap;
use std::fmt::Display;
use tit_platform::deployment::Deployment;
use tit_platform::desc::PlatformDesc;
use tit_replay::{Placement, PlatformSource, ReplayConfig, Spec, SpecError};

/// What a flag of a usage line takes after its name.
#[derive(Clone, Copy)]
enum Takes {
    /// A lone `--name`.
    Nothing,
    /// `--name META`.
    Value,
    /// `[--name [META]]`.
    Optional,
}

/// The flags a usage line lists, with what each takes: `--name META`
/// (an upper-case metavariable or an `a|b` list) takes a value, a lone
/// `--name` takes none, and `[--name [META]]` takes an optional one.
fn grammar(usage: &str) -> Vec<(&str, Takes)> {
    let is_meta = |w: &str| {
        let w = w.trim_end_matches([']', ')']);
        !w.is_empty()
            && !w.starts_with('-')
            && (w.contains('|') || w.chars().all(|c| c.is_ascii_uppercase() || ".:_-".contains(c)))
    };
    let words: Vec<&str> = usage.split_whitespace().collect();
    let mut flags = Vec::new();
    for (i, word) in words.iter().enumerate() {
        let Some(at) = word.find("--") else { continue };
        let rest = &word[at + 2..];
        let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        let (name, closed) = rest.split_at(end.unwrap_or(rest.len()));
        let next = words.get(i + 1).copied().unwrap_or("");
        let takes = match next.strip_prefix('[') {
            _ if !closed.is_empty() => Takes::Nothing,
            Some(inner) if is_meta(inner) => Takes::Optional,
            None if is_meta(next) => Takes::Value,
            _ => Takes::Nothing,
        };
        flags.push((name, takes));
    }
    flags
}

/// Command-line flags, read by the grammar of the tool's usage line
/// (see [`Args::from_env`]).
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    values: HashMap<String, String>,
    given: Vec<String>,
}

impl Args {
    /// Parses raw arguments (without the program name) against the
    /// flags `usage` lists; an error names the refused token.
    fn parse(usage: &'static str, raw: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let grammar = grammar(usage);
        let mut args = Args { usage, values: HashMap::new(), given: Vec::new() };
        let mut raw = raw.into_iter().peekable();
        while let Some(tok) = raw.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(format!("unexpected argument {tok:?}"));
            };
            let Some(&(_, takes)) = grammar.iter().find(|(n, _)| *n == name) else {
                return Err(format!("unknown flag --{name}"));
            };
            match (takes, raw.next_if(|v| !v.starts_with("--"))) {
                (Takes::Nothing, Some(word)) => {
                    return Err(format!("--{name} takes no value, got {word:?}"));
                }
                (Takes::Value, None) => return Err(format!("--{name} needs a value")),
                (_, Some(value)) => {
                    args.values.insert(name.to_string(), value);
                }
                (_, None) => {}
            }
            args.given.push(name.to_string());
        }
        Ok(args)
    }

    /// From the process arguments, parsed against the flags `usage`
    /// lists. Refused with exit 2, a message naming the offending token
    /// and then the usage line: a flag `usage` does not list, a value
    /// flag with no value, and a word no flag takes (a bare flag's next
    /// word, or any word past a flag's value). A value is the next
    /// argument not starting with `--`.
    pub fn from_env(usage: &'static str) -> Self {
        Self::parse(usage, std::env::args().skip(1)).unwrap_or_else(|msg| usage_exit(&msg, usage))
    }

    /// The value given to `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string value or exit 2 with a message.
    pub fn require(&self, key: &str) -> String {
        match self.get(key) {
            Some(v) => v.to_string(),
            None => self.usage_error(&format!("missing --{key}")),
        }
    }

    /// Parsed value with default; a value that does not parse exits 2.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.usage_error(&format!("invalid value for --{key}: {v:?}"))),
        }
    }

    /// True when `name` was given, with or without a value.
    pub fn has_flag(&self, name: &str) -> bool {
        self.given.iter().any(|f| f == name)
    }

    /// Prints `msg` and the usage line to stderr and exits 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        usage_exit(msg, self.usage)
    }
}

fn usage_exit(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\nusage: {usage}");
    std::process::exit(2);
}

/// The value of `r`, or — on an error — exit 1 with the one-line
/// diagnostic `{context}: {error}`.
pub fn or_exit<T, E: Display>(r: Result<T, E>, context: impl Display) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{context}: {e}");
        std::process::exit(1)
    })
}

/// Writes `contents` to `path` atomically (tmp sibling, fsync, rename),
/// exiting 1 with a one-line diagnostic when that fails.
pub fn write_atomic_or_die(path: &str, contents: &str) {
    let written = tit_core::write_atomic(std::path::Path::new(path), contents.as_bytes());
    or_exit(written, format_args!("cannot write {path}"));
}

/// Reads and parses an XML input file, exiting 1 with a one-line
/// diagnostic when it is unreadable or malformed.
fn load_xml<T, E: Display>(path: &str, what: &str, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
    let text = std::fs::read_to_string(path);
    let text = or_exit(text, format_args!("cannot read {what} file {path:?}"));
    or_exit(parse(&text), format_args!("bad {what} file"))
}

/// Fills a replay [`Spec`] from the flags that name its options:
/// `--platform FILE`, `--deploy FILE`, `--nodes N`, `--network`,
/// `--collectives`, `--kernel` and `--max-wall SECS`. Without
/// `--platform` the platform is a bordereau-like cluster of `--nodes`
/// (default: one per rank) single-core nodes; without `--deploy` ranks
/// map round-robin. A value the spec refuses exits 2 with the usage
/// line, naming the flag; an unreadable or malformed file exits 1.
pub fn spec(args: &Args) -> Spec {
    let mut spec = Spec::default();
    if let Some(path) = args.get("platform") {
        spec.platform =
            PlatformSource::File(load_xml(path, "platform", PlatformDesc::from_xml_str));
    }
    if let Some(path) = args.get("deploy") {
        spec.placement =
            Placement::Deployment(load_xml(path, "deployment", Deployment::from_xml_str));
    }
    let check = |flag: &str, set: Result<(), SpecError>| {
        if let Err(e) = set {
            args.usage_error(&format!("--{flag}: {e}"));
        }
    };
    for flag in ["network", "collectives", "kernel"] {
        if let Some(name) = args.get(flag) {
            check(flag, spec.set(flag, name));
        }
    }
    if args.get("nodes").is_some() {
        check("nodes", spec.set_nodes(args.get_or("nodes", 0), None));
    }
    if args.get("max-wall").is_some() {
        check("max-wall", spec.set_max_wall(args.get_or("max-wall", 0.0)));
    }
    spec
}

/// [`Spec::build`] for `np` ranks, exiting 1 with a one-line diagnostic
/// when the placement does not fit the platform: a `--deploy` file
/// naming a host the platform lacks is a bad input file like any other.
pub fn build(spec: &Spec, np: usize) -> (Platform, Vec<HostId>, ReplayConfig) {
    let file = matches!(spec.placement, Placement::Deployment(_));
    or_exit(spec.build(np), if file { "bad deployment file" } else { "cannot build the platform" })
}

/// Parses a Table 2 mode label (`R`, `F-8`, `S-2`, `SF-2,8` or
/// `SF-(2,8)`): a folding factor is at least 1, and the only scattered
/// scenario modelled has 2 sites.
pub fn parse_mode(s: &str) -> Result<mpi_emul::AcquisitionMode, String> {
    use mpi_emul::AcquisitionMode as M;
    let s = s.trim();
    let label = s.to_ascii_uppercase();
    let count = |x: &str| x.trim().parse::<usize>().ok();
    let mode = if label == "R" {
        Some(M::Regular)
    } else if let Some(rest) = label.strip_prefix("SF-") {
        let rest = rest.trim_start_matches('(').trim_end_matches(')');
        rest.split_once(',').and_then(|(u, v)| Some(M::ScatterFold(count(u)?, count(v)?)))
    } else if let Some(x) = label.strip_prefix("F-") {
        count(x).map(M::Folding)
    } else {
        label.strip_prefix("S-").and_then(count).map(M::Scattering)
    };
    match mode {
        Some(m @ (M::Regular | M::Folding(1..) | M::Scattering(2) | M::ScatterFold(2, 1..))) => Ok(m),
        _ => Err(format!("unknown acquisition mode {s:?} (expected R, F-x, S-2, SF-2,x with x >= 1)")),
    }
}

/// Parses a byte size with an optional binary-power suffix:
/// `4096`, `64K`, `512M`, `2G`, `1T` — case-insensitive, with an
/// optional trailing `B`/`iB` (`512MiB` ≡ `512MB` ≡ `512M`).
pub fn parse_byte_size(s: &str) -> Result<u64, String> {
    let t = s.trim().to_ascii_lowercase();
    let t = t.strip_suffix("ib").unwrap_or(&t);
    let t = t.strip_suffix('b').unwrap_or(t);
    let (digits, shift) = match t.as_bytes().last() {
        Some(b'k') => (&t[..t.len() - 1], 10u32),
        Some(b'm') => (&t[..t.len() - 1], 20),
        Some(b'g') => (&t[..t.len() - 1], 30),
        Some(b't') => (&t[..t.len() - 1], 40),
        _ => (t, 0),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad byte size {s:?} (expected e.g. 4096, 64K, 512M, 2G)"))?;
    n.checked_mul(1u64 << shift).ok_or_else(|| format!("byte size {s:?} overflows u64"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_emul::AcquisitionMode as M;

    const USAGE: &str = "tool (--dir DIR --np N | --store FILE) [--mode R|F-x] [--profile [FILE]] [--validate] [--jobs N]";

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(USAGE, s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_values_bare_and_optional_flags() {
        let a = args("--np 8 --validate --dir d --profile --mode F-2").unwrap();
        assert_eq!((a.get("np"), a.get("dir"), a.get("mode")), (Some("8"), Some("d"), Some("F-2")));
        assert!(a.has_flag("validate") && a.has_flag("profile") && a.has_flag("np"));
        assert!(!a.has_flag("jobs"));
        assert_eq!(a.get("profile"), None);
        assert_eq!(a.get_or("np", 0usize), 8);
        assert_eq!(a.get_or("jobs", 3usize), 3);
        let a = args("--store s.tib2 --profile p.json").unwrap();
        assert_eq!((a.get("store"), a.get("profile")), (Some("s.tib2"), Some("p.json")));
    }

    #[test]
    fn refusals_name_the_offending_token() {
        for (argv, msg) in [
            ("--np 4 --jbos 2", "unknown flag --jbos"),
            ("--tool", "unknown flag --tool"),
            ("--np --validate", "--np needs a value"),
            ("--dir", "--dir needs a value"),
            ("--validate yes", "--validate takes no value, got \"yes\""),
            ("--np 4 --validate --dir d yes", "unexpected argument \"yes\""),
            ("stray --np 4", "unexpected argument \"stray\""),
        ] {
            assert_eq!(args(argv).unwrap_err(), msg, "{argv}");
        }
    }

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_byte_size("4096").unwrap(), 4096);
        assert_eq!(parse_byte_size("64K").unwrap(), 64 << 10);
        assert_eq!(parse_byte_size("512M").unwrap(), 512 << 20);
        assert_eq!(parse_byte_size("512MiB").unwrap(), 512 << 20);
        assert_eq!(parse_byte_size("512mb").unwrap(), 512 << 20);
        assert_eq!(parse_byte_size("2G").unwrap(), 2u64 << 30);
        assert_eq!(parse_byte_size(" 1T ").unwrap(), 1u64 << 40);
        assert_eq!(parse_byte_size("123B").unwrap(), 123);
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("M").is_err());
        assert!(parse_byte_size("1.5G").is_err());
        assert!(parse_byte_size("99999999999999999999G").is_err());
        assert!(parse_byte_size("-1M").is_err());
    }

    #[test]
    fn mode_labels_roundtrip() {
        assert_eq!(parse_mode("R").unwrap(), M::Regular);
        assert_eq!(parse_mode("F-8").unwrap(), M::Folding(8));
        assert_eq!(parse_mode("S-2").unwrap(), M::Scattering(2));
        assert_eq!(parse_mode("SF-2,16").unwrap(), M::ScatterFold(2, 16));
        assert_eq!(parse_mode("SF-(2,4)").unwrap(), M::ScatterFold(2, 4));
        for bad in ["Q-9", "F-0", "F-x", "S-3", "SF-3,2", "SF-2,0", "SF-2"] {
            assert!(parse_mode(bad).is_err(), "{bad}");
        }
        for m in [M::Regular, M::Folding(2), M::Scattering(2), M::ScatterFold(2, 8)] {
            assert_eq!(parse_mode(&m.label()).unwrap(), m);
        }
    }
}
