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
use simkern::{NetworkConfig, Platform};
use std::collections::HashMap;
use tit_platform::deployment::Deployment;
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;
use tit_replay::collectives::CollectiveAlgo;

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
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        // panics: peek() just returned Some for this element
                        let v = it.next().unwrap();
                        out.values.insert(key.to_string(), v);
                    }
                    _ => out.flags.push(key.to_string()),
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

/// Writes `contents` to `path` atomically (tmp sibling, fsync, rename),
/// exiting 1 with a one-line diagnostic when that fails.
pub fn write_atomic_or_die(path: &str, contents: &str) {
    if let Err(e) = tit_core::write_atomic(std::path::Path::new(path), contents.as_bytes()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Reads and parses an XML input file, exiting 1 with a one-line
/// diagnostic when it is unreadable or malformed.
fn load_xml<T, E: std::fmt::Display>(
    path: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {what} file {path:?}: {e}");
        std::process::exit(1);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("bad {what} file: {e}");
        std::process::exit(1);
    })
}

/// The `--platform FILE` / `--deploy FILE` / `--nodes N` flags: the
/// platform (default: a bordereau-like cluster of `--nodes`, default
/// `np`, single-core nodes) and each of the `np` ranks' host (default:
/// round-robin). An unreadable or malformed file exits 1.
pub fn platform_and_hosts(args: &Args, np: usize) -> (Platform, Vec<HostId>) {
    let desc = match args.get("platform") {
        Some(path) => load_xml(path, "platform", PlatformDesc::from_xml_str),
        None => PlatformDesc::single(presets::bordereau_one_core(args.get_or("nodes", np))),
    };
    let platform = desc.build();
    let deployment = match args.get("deploy") {
        Some(path) => load_xml(path, "deployment", Deployment::from_xml_str),
        None => Deployment::round_robin(&desc.host_names(), np),
    };
    let hosts = deployment.host_ids(&platform);
    (platform, hosts)
}

/// The `--network mpi|flow|constant` and `--collectives
/// binomial|flat` flags; an unknown name exits 2 with `usage`.
pub fn network_and_collectives(args: &Args, usage: &str) -> (NetworkConfig, CollectiveAlgo) {
    let algo = match args.get_or("collectives", "binomial".to_string()).as_str() {
        "binomial" => CollectiveAlgo::Binomial,
        "flat" => CollectiveAlgo::Flat,
        other => usage_error(&format!("unknown collective algorithm {other:?}"), usage),
    };
    let network = match args.get_or("network", "mpi".to_string()).as_str() {
        "mpi" => NetworkConfig::mpi_cluster(),
        "flow" => NetworkConfig::default(),
        "constant" => NetworkConfig::constant(),
        other => usage_error(&format!("unknown network model {other:?}"), usage),
    };
    (network, algo)
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
