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
//! * `tit-stats` — trace statistics and validation (Table 3's columns).
//! * `tit-calibrate` — flop rate, ping-pong latency, piecewise fit
//!   (Section 5's calibration).
//!
//! Argument parsing is a deliberately small `--key value` convention
//! (no external dependency): [`Args`].

#![forbid(unsafe_code)]

use simkern::resource::HostId;
use simkern::Platform;
use std::collections::HashMap;
use std::fmt::Display;
use tit_platform::deployment::Deployment;
use tit_platform::desc::PlatformDesc;
use tit_replay::{Placement, PlatformSource, ReplayConfig, Spec, SpecError};

/// Minimal `--key value` / `--flag` parser.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses raw arguments (without the program name). `--key value`
    /// pairs, bare `--flag`s (followed by another `--` or end), and
    /// positional values.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                match it.next_if(|v| !v.starts_with("--")) {
                    Some(v) => {
                        out.values.insert(key.to_string(), v);
                    }
                    None => out.flags.push(key.to_string()),
                }
            } else {
                out.positional.push(tok);
            }
        }
        out
    }

    /// From the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// From the process arguments of a tool whose `usage` line lists
    /// every flag it takes: any other `--flag` exits 2, naming it.
    pub fn from_env_listed(usage: &str) -> Self {
        let args = Self::from_env();
        let listed = |name: &str| {
            usage
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|word| word.strip_prefix("--") == Some(name))
        };
        if let Some(name) = args.values.keys().chain(&args.flags).filter(|k| !listed(k)).min() {
            usage_error(&format!("unknown flag --{name}"), usage);
        }
        args
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string value or exit with a message.
    pub fn require(&self, key: &str, usage: &str) -> String {
        match self.get(key) {
            Some(v) => v.to_string(),
            None => {
                eprintln!("missing --{key}\nusage: {usage}");
                std::process::exit(2);
            }
        }
    }

    /// Parsed value with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v:?}");
                std::process::exit(2);
            }),
        }
    }

    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// Prints `msg` and the usage line to stderr and exits 2.
pub fn usage_error(msg: &str, usage: &str) -> ! {
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
/// map round-robin. A value the spec refuses exits 2 with `usage`,
/// naming the flag; an unreadable or malformed file exits 1.
pub fn spec(args: &Args, usage: &str) -> Spec {
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
            usage_error(&format!("--{flag}: {e}"), usage);
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
/// `SF-(2,8)`).
pub fn parse_mode(s: &str) -> Result<mpi_emul::AcquisitionMode, String> {
    use mpi_emul::AcquisitionMode as M;
    let s = s.trim();
    if s.eq_ignore_ascii_case("r") {
        return Ok(M::Regular);
    }
    if let Some(x) = s.strip_prefix("F-").or_else(|| s.strip_prefix("f-")) {
        return x.parse().map(M::Folding).map_err(|_| format!("bad folding factor in {s:?}"));
    }
    if let Some(y) = s.strip_prefix("S-").or_else(|| s.strip_prefix("s-")) {
        return y.parse().map(M::Scattering).map_err(|_| format!("bad site count in {s:?}"));
    }
    if let Some(rest) = s.strip_prefix("SF-").or_else(|| s.strip_prefix("sf-")) {
        let rest = rest.trim_start_matches('(').trim_end_matches(')');
        let (u, v) = rest.split_once(',').ok_or_else(|| format!("bad SF mode {s:?}"))?;
        let u = u.trim().parse().map_err(|_| format!("bad site count in {s:?}"))?;
        let v = v.trim().parse().map_err(|_| format!("bad folding factor in {s:?}"))?;
        return Ok(M::ScatterFold(u, v));
    }
    Err(format!("unknown acquisition mode {s:?} (expected R, F-x, S-y, SF-u,v)"))
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

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_pairs_flags_positionals() {
        // A bare flag is one followed by another `--` option or the end;
        // `--key value` pairs are greedy.
        let a = args("file.trace --np 8 --validate --out dir");
        assert_eq!(a.get("np"), Some("8"));
        assert!(a.has_flag("validate"));
        assert_eq!(a.get("out"), Some("dir"));
        assert_eq!(a.positional(), &["file.trace".to_string()]);
        assert_eq!(a.get_or("np", 0usize), 8);
        assert_eq!(a.get_or("missing", 3usize), 3);
    }

    #[test]
    fn trailing_flag() {
        let a = args("--np 4 --profile");
        assert!(a.has_flag("profile"));
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
        assert!(parse_mode("Q-9").is_err());
        for m in [M::Regular, M::Folding(2), M::Scattering(2), M::ScatterFold(2, 8)] {
            assert_eq!(parse_mode(&m.label()).unwrap(), m);
        }
    }
}
