//! Differential and property tests for PR 4's ingestion fast path.
//!
//! The contract under test: the parallel loader is **indistinguishable**
//! from the serial one — identical traces (byte-identical when
//! re-serialised), identical errors on every fault-injection class the
//! pipeline can suffer — and the compact struct-of-arrays representation
//! round-trips the boxed `Action` form losslessly. The text readers'
//! byte tokenizer is held to the `&str` parser it replaced, kept here
//! verbatim as the oracle, on restyled, mutated and megabyte lines and
//! on whole directories.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::time::{Duration, Instant};
use titr::extract::faultinject::Injector;
use titr::trace::compact::{tag, CompactTrace};
use titr::trace::trace::process_trace_filename;
use titr::trace::{
    format_action, ingest, parse_line, Action, ParseError, ProcessTraceReader, TiTrace,
};

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("titr-ingest-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A ring trace with every keyword represented.
fn rich_trace(n: usize, iters: usize) -> TiTrace {
    let mut t = TiTrace::new(n);
    for r in 0..n {
        t.push(r, Action::CommSize { nproc: n });
    }
    for _ in 0..iters {
        for r in 0..n {
            t.push(r, Action::Compute { flops: 1.5e6 });
            t.push(r, Action::Isend { dst: (r + 1) % n, bytes: 1024.0 });
            t.push(r, Action::Irecv { src: (r + n - 1) % n, bytes: None });
            t.push(r, Action::Wait);
            t.push(r, Action::Wait);
            t.push(r, Action::Send { dst: (r + 1) % n, bytes: 2048.0 });
            t.push(r, Action::Recv { src: (r + n - 1) % n, bytes: Some(2048.0) });
            t.push(r, Action::Bcast { bytes: 4096.0 });
            t.push(r, Action::Reduce { vcomm: 8.0, vcomp: 1e5 });
            t.push(r, Action::AllReduce { vcomm: 8.0, vcomp: 1e5 });
            t.push(r, Action::Barrier);
        }
    }
    t
}

/// Serialises a trace to the merged text form, for byte-level diffing.
fn merged_bytes(t: &TiTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    t.write_merged(&mut buf).unwrap();
    buf
}

#[test]
fn parallel_load_is_byte_identical_to_serial() {
    let dir = tmp("bytes");
    rich_trace(8, 20).save_per_process(&dir).unwrap();
    let serial = ingest::load_exact(&dir, 8, 1).unwrap();
    for jobs in [0, 2, 5, 8, 32] {
        let parallel = ingest::load_exact(&dir, 8, jobs).unwrap();
        assert_eq!(parallel, serial, "jobs={jobs}");
        assert_eq!(merged_bytes(&parallel), merged_bytes(&serial), "jobs={jobs}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Both loaders must fail identically on a truncated rank file (the
/// tail cut mid-line makes the last line unparseable).
#[test]
fn truncation_fails_identically_on_both_loaders() {
    let dir = tmp("trunc");
    rich_trace(6, 10).save_per_process(&dir).unwrap();
    Injector::new(0x7A).truncate_file(&dir.join(process_trace_filename(3))).unwrap();
    let serial = ingest::load_exact(&dir, 6, 1);
    let parallel = ingest::load_exact(&dir, 6, 4);
    match (serial, parallel) {
        (Err(s), Err(p)) => {
            assert_eq!(s.source.kind(), p.source.kind());
            assert_eq!(s.to_string(), p.to_string());
        }
        // A truncation can land exactly on a line boundary, leaving a
        // shorter but well-formed file: then both must succeed equally.
        (Ok(s), Ok(p)) => assert_eq!(s, p),
        (s, p) => panic!("loaders disagree: serial {s:?} vs parallel {p:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flipped bit either corrupts a keyword/number (parse error on both
/// loaders, same message) or flips a digit silently (same trace on
/// both). With this seed set, both cases occur across the sweep.
#[test]
fn bit_flips_fail_or_survive_identically() {
    for seed in 0..8u64 {
        let dir = tmp(&format!("flip{seed}"));
        rich_trace(4, 6).save_per_process(&dir).unwrap();
        let victim = dir.join(process_trace_filename((seed % 4) as usize));
        Injector::new(seed).flip_bit(&victim).unwrap();
        let serial = ingest::load_exact(&dir, 4, 1);
        let parallel = ingest::load_exact(&dir, 4, 3);
        match (serial, parallel) {
            (Err(s), Err(p)) => {
                assert_eq!(s.source.kind(), p.source.kind(), "seed {seed}");
                assert_eq!(s.to_string(), p.to_string(), "seed {seed}");
            }
            (Ok(s), Ok(p)) => assert_eq!(s, p, "seed {seed}"),
            (s, p) => panic!("seed {seed}: loaders disagree: {s:?} vs {p:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A dropped rank's file fails both loaders with the same error, which
/// names the missing rank and its file.
#[test]
fn dropped_ranks_fail_identically_on_both_loaders() {
    for victim in [0usize, 2, 5] {
        let dir = tmp(&format!("drop{victim}"));
        rich_trace(6, 4).save_per_process(&dir).unwrap();
        Injector::new(9).drop_rank(&dir, victim).unwrap();
        let serial = ingest::load_exact(&dir, 6, 1).unwrap_err();
        let parallel = ingest::load_exact(&dir, 6, 4).unwrap_err();
        assert_eq!(serial.source.kind(), parallel.source.kind(), "victim {victim}");
        assert_eq!(serial.to_string(), parallel.to_string(), "victim {victim}");
        assert_eq!(serial.rank, victim);
        assert_eq!(serial.source.kind(), std::io::ErrorKind::NotFound, "victim {victim}");
        let file = process_trace_filename(victim);
        assert!(serial.to_string().contains(&file), "victim {victim}: {serial}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The lint loader's parallel path produces the same report on damaged
/// directories as the serial one — total loading included.
#[test]
fn lint_reports_are_identical_on_damaged_dirs() {
    let dir = tmp("lintpar");
    rich_trace(6, 4).save_per_process(&dir).unwrap();
    let mut inj = Injector::new(0xBAD);
    inj.truncate_file(&dir.join(process_trace_filename(1))).unwrap();
    inj.drop_rank(&dir, 4).unwrap();
    let cfg = titr::lint::LintConfig::default();
    let serial = titr::lint::lint_dir(&dir, 6, &cfg);
    for jobs in [0, 2, 6] {
        let par = titr::lint::lint_dir_jobs(&dir, 6, &cfg, jobs);
        assert_eq!(par.to_json(), serial.to_json(), "jobs={jobs}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Streaming file replay and the parallel compact fast path agree on
/// the simulated time to the last bit.
#[test]
fn compact_fast_path_replays_identically_to_streaming() {
    use titr::platform::{desc::PlatformDesc, presets};
    use titr::simkern::resource::HostId;
    let dir = tmp("fastpath");
    let n = 8;
    rich_trace(n, 6).save_per_process(&dir).unwrap();
    let hosts: Vec<HostId> = (0..n as u32).map(HostId).collect();
    let cfg = titr::replay::ReplayConfig::default();
    let mk = || PlatformDesc::single(presets::bordereau_one_core(n)).build();
    let input = titr::replay::Input::files(&dir, n);
    let streaming = titr::replay::Replay::new(input, mk(), &hosts, &cfg).run().unwrap();
    let fast = titr::replay::replay_compact(
        &std::sync::Arc::new(titr::trace::load_compact_exact(&dir, n, 0).unwrap()),
        mk(),
        &hosts,
        &cfg,
    )
    .unwrap();
    assert_eq!(streaming.simulated_time, fast.simulated_time);
    assert_eq!(streaming.actions_replayed, fast.actions_replayed);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn arb_action() -> impl Strategy<Value = Action> {
    let vol = 0.0..1e9f64;
    let pid = 0usize..16;
    prop_oneof![
        vol.clone().prop_map(|flops| Action::Compute { flops }),
        (pid.clone(), vol.clone()).prop_map(|(dst, bytes)| Action::Send { dst, bytes }),
        (pid.clone(), vol.clone()).prop_map(|(dst, bytes)| Action::Isend { dst, bytes }),
        pid.clone().prop_map(|src| Action::Recv { src, bytes: None }),
        (pid.clone(), vol.clone()).prop_map(|(src, b)| Action::Recv { src, bytes: Some(b) }),
        pid.clone().prop_map(|src| Action::Irecv { src, bytes: None }),
        vol.clone().prop_map(|bytes| Action::Bcast { bytes }),
        (vol.clone(), vol.clone()).prop_map(|(vcomm, vcomp)| Action::Reduce { vcomm, vcomp }),
        (vol.clone(), vol).prop_map(|(vcomm, vcomp)| Action::AllReduce { vcomm, vcomp }),
        Just(Action::Barrier),
        (1usize..1024).prop_map(|nproc| Action::CommSize { nproc }),
        Just(Action::Wait),
    ]
}

/// `TIB2` conversion is `--jobs`-invariant: converting a trace
/// directory to a store is byte-identical whatever the worker count
/// (parsing fans out over ranks, the store is written serially).
#[test]
fn tib2_conversion_and_load_are_jobs_invariant() {
    use titr::trace::tib2::convert_dir_atomic;

    let trace = rich_trace(5, 40);
    let dir = tmp("tib2-jobs");
    trace.save_per_process(&dir).unwrap();

    let mut stores = Vec::new();
    for jobs in [1usize, 2, 4] {
        let dest = dir.join(format!("j{jobs}.tib2"));
        let s = convert_dir_atomic(&dir, 5, &dest, 32, jobs).unwrap();
        stores.push((dest, s.fingerprint));
    }
    let baseline = std::fs::read(&stores[0].0).unwrap();
    for (path, fp) in &stores[1..] {
        assert_eq!(std::fs::read(path).unwrap(), baseline, "conversion differs by --jobs");
        assert_eq!(*fp, stores[0].1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// CompactTrace round-trips any boxed trace losslessly.
    #[test]
    fn compact_roundtrips_arbitrary_traces(
        actions in proptest::collection::vec((0usize..6, arb_action()), 0..300)
    ) {
        let mut t = TiTrace::new(6);
        for (pid, a) in actions {
            t.push(pid, a);
        }
        let c = CompactTrace::from_trace(&t).unwrap();
        prop_assert_eq!(c.num_actions(), t.num_actions());
        prop_assert_eq!(c.to_trace(), t);
    }

    /// Per-action access agrees with the boxed form, and every tag maps
    /// back to the action's own keyword.
    #[test]
    fn compact_get_matches_boxed_indexing(
        actions in proptest::collection::vec(arb_action(), 1..100)
    ) {
        let mut t = TiTrace::new(1);
        for a in &actions {
            t.push(0, *a);
        }
        let c = CompactTrace::from_trace(&t).unwrap();
        for (i, a) in actions.iter().enumerate() {
            prop_assert_eq!(c.get(0, i), Some(*a));
            prop_assert_eq!(tag::keyword(tag::of(a)), Some(a.keyword()));
        }
        prop_assert_eq!(c.get(0, actions.len()), None);
    }

    /// The parallel loader reproduces the serial loader on arbitrary
    /// well-formed traces, whatever the worker count.
    #[test]
    fn parallel_loader_matches_serial_on_arbitrary_traces(
        actions in proptest::collection::vec((0usize..4, arb_action()), 1..200),
        jobs in 2usize..8
    ) {
        let mut t = TiTrace::new(4);
        for (pid, a) in actions {
            t.push(pid, a);
        }
        let dir = tmp(&format!("prop{jobs}-{}", t.num_actions()));
        t.save_per_process(&dir).unwrap();
        let serial = ingest::load_exact(&dir, 4, 1).unwrap();
        let parallel = ingest::load_exact(&dir, 4, jobs).unwrap();
        prop_assert_eq!(&parallel, &serial);
        prop_assert_eq!(merged_bytes(&parallel), merged_bytes(&serial));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The text parser as it stood before the byte tokenizer, kept verbatim
/// (its body unchanged, only the imports adapted) as the differential
/// oracle: the byte tokenizer must return exactly what this returns,
/// line for line.
mod oracle {
    use titr::trace::{Action, ParseError};

    type Pid = usize;

    fn err(line: usize, message: impl Into<String>) -> ParseError {
        ParseError { line, message: message.into() }
    }

    fn parse_pid(tok: &str, line: usize) -> Result<Pid, ParseError> {
        let digits = tok.strip_prefix('p').unwrap_or(tok);
        digits
            .parse::<usize>()
            .map_err(|_| err(line, format!("invalid process id {tok:?}")))
    }

    fn parse_vol(tok: &str, line: usize) -> Result<f64, ParseError> {
        let v: f64 =
            tok.parse().map_err(|_| err(line, format!("invalid volume {tok:?}")))?;
        if !v.is_finite() || v < 0.0 {
            return Err(err(line, format!("volume must be finite and >= 0, got {tok:?}")));
        }
        Ok(v)
    }

    /// Parses one trace line into `(pid, action)`.
    ///
    /// Empty lines and `#` comments yield `Ok(None)`.
    pub fn parse_line(raw: &str, line_no: usize) -> Result<Option<(Pid, Action)>, ParseError> {
        let raw = raw.trim();
        if raw.is_empty() || raw.starts_with('#') {
            return Ok(None);
        }
        let mut it = it_fields(raw);
        let pid_tok = it.next().ok_or_else(|| err(line_no, "empty line"))?;
        let pid = parse_pid(pid_tok, line_no)?;
        let kw = it.next().ok_or_else(|| err(line_no, "missing action keyword"))?;
        let mut arg = |what: &str| {
            it.next().ok_or_else(|| err(line_no, format!("{kw}: missing {what}")))
        };
        let action = match kw {
            "compute" => Action::Compute { flops: parse_vol(arg("volume")?, line_no)? },
            "send" => Action::Send {
                dst: parse_pid(arg("destination")?, line_no)?,
                bytes: parse_vol(arg("volume")?, line_no)?,
            },
            "Isend" | "isend" => Action::Isend {
                dst: parse_pid(arg("destination")?, line_no)?,
                bytes: parse_vol(arg("volume")?, line_no)?,
            },
            "recv" => {
                let src = parse_pid(arg("source")?, line_no)?;
                let bytes = match it_next_opt(&mut it) {
                    Some(tok) => Some(parse_vol(tok, line_no)?),
                    None => None,
                };
                Action::Recv { src, bytes }
            }
            "Irecv" | "irecv" => {
                let src = parse_pid(arg("source")?, line_no)?;
                let bytes = match it_next_opt(&mut it) {
                    Some(tok) => Some(parse_vol(tok, line_no)?),
                    None => None,
                };
                Action::Irecv { src, bytes }
            }
            "bcast" => Action::Bcast { bytes: parse_vol(arg("volume")?, line_no)? },
            "reduce" => Action::Reduce {
                vcomm: parse_vol(arg("vcomm")?, line_no)?,
                vcomp: parse_vol(arg("vcomp")?, line_no)?,
            },
            "allReduce" | "allreduce" => Action::AllReduce {
                vcomm: parse_vol(arg("vcomm")?, line_no)?,
                vcomp: parse_vol(arg("vcomp")?, line_no)?,
            },
            "barrier" => Action::Barrier,
            "comm_size" => Action::CommSize {
                nproc: arg("#proc")?
                    .parse()
                    .map_err(|_| err(line_no, "comm_size: invalid process count"))?,
            },
            "wait" => Action::Wait,
            other => return Err(err(line_no, format!("unknown action keyword {other:?}"))),
        };
        if it.next().is_some() {
            return Err(err(line_no, format!("{kw}: trailing garbage")));
        }
        Ok(Some((pid, action)))
    }

    fn it_fields(s: &str) -> std::str::SplitWhitespace<'_> {
        s.split_whitespace()
    }

    fn it_next_opt<'a>(it: &mut std::str::SplitWhitespace<'a>) -> Option<&'a str> {
        it.next()
    }
}

/// SplitMix64: the restyling and mutation choices of one generated case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Every character with the Unicode `White_Space` property the
/// restyler uses as a field separator (`\n` excepted: it ends lines).
const SEPARATORS: [&str; 8] = [" ", "\t", "\x0b", "\x0c", "\r", "\u{a0}", "\u{3000}", "\u{2028}"];

fn spaces(mix: &mut Mix) -> String {
    (0..=mix.below(3)).map(|_| *mix.pick(&SEPARATORS)).collect()
}

/// An integral volume written another exact way: a `.0` or `e0`
/// suffix, or the decimal point moved left with a matching exponent.
fn exact_forms(digits: &str, mix: &mut Mix) -> String {
    match mix.below(4) {
        0 => format!("{digits}.0"),
        1 => format!("{digits}e0"),
        2 => format!("{digits}00e-2"),
        _ => {
            let k = 1 + mix.below(digits.len());
            let (int, frac) = digits.split_at(digits.len() - k + 1);
            format!("{int}.{frac}E{}", k - 1)
        }
    }
}

/// Rewrites a canonical line with the same meaning: fields re-spaced
/// with runs of Unicode whitespace, `+` signs and leading zeros on
/// numbers, and integral volumes in decimal or exponent form.
fn restyle(line: &str, mix: &mut Mix) -> String {
    let fields: Vec<&str> = line.split(' ').collect();
    let count = fields.get(1) == Some(&"comm_size");
    let mut out = String::new();
    if mix.one_in(3) {
        out.push_str(&spaces(mix));
    }
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(&spaces(mix));
        }
        let (prefix, num) = match f.strip_prefix('p') {
            Some(d) => ("p", d),
            None if i >= 2 => ("", *f),
            None => {
                out.push_str(f);
                continue;
            }
        };
        out.push_str(prefix);
        if mix.one_in(4) {
            out.push('+');
        }
        if mix.one_in(4) {
            out.push_str(&"0".repeat(1 + mix.below(3)));
        }
        let integral = num.bytes().all(|b| b.is_ascii_digit());
        if prefix.is_empty() && !count && integral && mix.one_in(2) {
            out.push_str(&exact_forms(num, mix));
        } else if prefix.is_empty() && !count && !integral && mix.one_in(3) {
            out.push_str(&format!("{num}e0"));
        } else {
            out.push_str(num);
        }
    }
    if mix.one_in(3) {
        out.push_str(&spaces(mix));
    }
    out
}

/// Comment and blank lines the readers must skip.
const FILLER: [&str; 6] = ["# a comment", "", "   ", "\t#p0 compute 5", "\u{3000}", "#"];

/// Byte strings a mutation inserts: digits, signs, exponent letters,
/// whitespace (ASCII and Unicode), non-ASCII letters, a newline, and
/// bytes that are not UTF-8 (a lone continuation byte, a truncated
/// sequence, 0xFF).
const INSERTS: [&[u8]; 24] = [
    b"0", b"9", b"+", b"-", b".", b"e", b"E", b"p", b"#", b" ", b"\t", b"\r", b"\x0b", b"\n",
    "\u{a0}".as_bytes(), "\u{3000}".as_bytes(), "\u{85}".as_bytes(), "é".as_bytes(),
    "𝕊".as_bytes(), b"inf", b"NaN", b"\x80", b"\xC2", b"\xFF",
];

/// One to three byte-level mutations: truncate, flip a bit, duplicate,
/// delete or insert.
fn mutate(bytes: &mut Vec<u8>, mix: &mut Mix) {
    for _ in 0..=mix.below(3) {
        let at = mix.below(bytes.len() + 1);
        match mix.below(5) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1 << mix.below(8),
            2 if at < bytes.len() => bytes.insert(at, bytes[at]),
            3 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {
                let ins = mix.pick(&INSERTS);
                bytes.splice(at..at, ins.iter().copied());
            }
        }
    }
}

type Parsed = Result<Option<(usize, Action)>, ParseError>;

/// The oracle over a stream, line by line as `BufRead::lines` split it.
/// A line that is not UTF-8 is the one documented difference: an error
/// naming that line.
fn oracle_lines(bytes: &[u8]) -> impl Iterator<Item = Parsed> + '_ {
    bytes.split(|&b| b == b'\n').enumerate().map(|(i, raw)| match std::str::from_utf8(raw) {
        Ok(text) => oracle::parse_line(text, i + 1),
        Err(_) => Err(ParseError { line: i + 1, message: "not valid UTF-8".into() }),
    })
}

/// What `TiTrace::from_reader` must return for `bytes`.
fn oracle_stream(bytes: &[u8]) -> Result<TiTrace, ParseError> {
    let mut t = TiTrace::default();
    for parsed in oracle_lines(bytes) {
        if let Some((pid, a)) = parsed? {
            t.push(pid, a);
        }
    }
    Ok(t)
}

/// What the exact loaders must return for ranks `0..n` of `dir`: ranks
/// in order, lines in order, and the first defective line (unparseable,
/// foreign, or — with `compact` — not internable) reported.
fn oracle_load(dir: &std::path::Path, n: usize, compact: bool) -> Result<TiTrace, String> {
    let mut t = TiTrace::new(n);
    for rank in 0..n {
        let path = dir.join(process_trace_filename(rank));
        let fail = |msg: String| format!("rank {rank}: cannot load {}: {msg}", path.display());
        let bytes = std::fs::read(&path).map_err(|e| fail(e.to_string()))?;
        let mut probe = CompactTrace::new();
        for (i, parsed) in oracle_lines(&bytes).enumerate() {
            let line = i + 1;
            match parsed.map_err(|e| fail(e.to_string()))? {
                None => {}
                Some((pid, _)) if pid != rank => {
                    let misfiled = format!("line {line}: trace line for p{pid} in p{rank}'s file");
                    return Err(fail(misfiled));
                }
                Some((_, a)) => {
                    if compact {
                        probe.push(&a).map_err(|e| fail(format!("line {line}: {e}")))?;
                    }
                    t.push(rank, a);
                }
            }
        }
    }
    Ok(t)
}

/// The streaming reader over one file yields the oracle's actions up to
/// the first defective line, then that line's error.
fn assert_stream_matches_oracle(path: &std::path::Path) -> Result<(), TestCaseError> {
    let bytes = std::fs::read(path).unwrap();
    let mut r = ProcessTraceReader::open(path).unwrap();
    for parsed in oracle_lines(&bytes) {
        match parsed {
            Ok(None) => {}
            Ok(Some(pa)) => prop_assert_eq!(r.next_action().unwrap(), Some(pa)),
            Err(e) => {
                let got = r.next_action().unwrap_err();
                prop_assert_eq!(got.kind(), std::io::ErrorKind::InvalidData);
                prop_assert_eq!(got.to_string(), e.to_string());
                return Ok(());
            }
        }
    }
    prop_assert_eq!(r.next_action().unwrap(), None);
    Ok(())
}

/// Volumes the writer emits in every form it has: small and large
/// integers, fractions, and values past 2^53.
fn arb_volume() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..1000).prop_map(|v| v as f64),
        (0u64..1_000_000_000_000_000).prop_map(|v| v as f64),
        0.0..1e12f64,
        1e15..1e300f64,
        Just(0.0),
    ]
}

fn arb_wide_action() -> impl Strategy<Value = Action> {
    let pid = 0usize..100_000;
    prop_oneof![
        arb_volume().prop_map(|flops| Action::Compute { flops }),
        (pid.clone(), arb_volume()).prop_map(|(dst, bytes)| Action::Send { dst, bytes }),
        (pid.clone(), arb_volume()).prop_map(|(dst, bytes)| Action::Isend { dst, bytes }),
        pid.clone().prop_map(|src| Action::Recv { src, bytes: None }),
        (pid.clone(), arb_volume()).prop_map(|(src, b)| Action::Recv { src, bytes: Some(b) }),
        (pid.clone(), arb_volume()).prop_map(|(src, b)| Action::Irecv { src, bytes: Some(b) }),
        pid.prop_map(|src| Action::Irecv { src, bytes: None }),
        arb_volume().prop_map(|bytes| Action::Bcast { bytes }),
        (arb_volume(), arb_volume()).prop_map(|(vcomm, vcomp)| Action::Reduce { vcomm, vcomp }),
        (arb_volume(), arb_volume()).prop_map(|(vcomm, vcomp)| Action::AllReduce { vcomm, vcomp }),
        Just(Action::Barrier),
        (1usize..1_000_000).prop_map(|nproc| Action::CommSize { nproc }),
        Just(Action::Wait),
    ]
}

/// Collective-heavy actions: half the draws are `reduce`/`allReduce`, so
/// every rank carries side-table entries the join must rebase.
fn arb_reduce_heavy_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (arb_volume(), arb_volume()).prop_map(|(vcomm, vcomp)| Action::Reduce { vcomm, vcomp }),
        (arb_volume(), arb_volume()).prop_map(|(vcomm, vcomp)| Action::AllReduce { vcomm, vcomp }),
        arb_wide_action(),
    ]
}

/// Writes rank `r`'s actions as `SG_process<r>.trace`, every line
/// restyled, with CRLF or LF endings and comment/blank lines mixed in.
fn write_restyled(dir: &std::path::Path, t: &TiTrace, mix: &mut Mix) {
    std::fs::create_dir_all(dir).unwrap();
    for (rank, actions) in t.actions.iter().enumerate() {
        let eol = if mix.one_in(2) { "\r\n" } else { "\n" };
        let mut text = String::new();
        for a in actions {
            if mix.one_in(4) {
                text.push_str(mix.pick::<&str>(&FILLER));
                text.push_str(eol);
            }
            text.push_str(&restyle(&format_action(rank, a), mix));
            text.push_str(eol);
        }
        std::fs::write(dir.join(process_trace_filename(rank)), text).unwrap();
    }
}

proptest! {
    /// Valid lines in every spelling the language allows parse to the
    /// oracle's `(pid, Action)` — which is the action they were written
    /// from — one line at a time and as a stream with CRLF endings and
    /// comment and blank lines.
    #[test]
    fn parser_matches_oracle_on_restyled_valid_lines(
        actions in proptest::collection::vec((0usize..100_000, arb_wide_action()), 1..40),
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let eol = if mix.one_in(2) { "\r\n" } else { "\n" };
        let mut text = String::new();
        let mut want = TiTrace::default();
        for (i, (pid, a)) in actions.iter().enumerate() {
            let line = restyle(&format_action(*pid, a), &mut mix);
            let expected = oracle::parse_line(&line, i + 1);
            prop_assert!(expected == Ok(Some((*pid, *a))), "oracle: {:?} from {:?}", expected, line);
            let got = parse_line(&line, i + 1);
            prop_assert!(got == expected, "{:?}: got {:?}, oracle {:?}", line, got, expected);
            want.push(*pid, *a);
            if mix.one_in(3) {
                text.push_str(mix.pick::<&str>(&FILLER));
                text.push_str(eol);
            }
            text.push_str(&line);
            text.push_str(eol);
        }
        prop_assert_eq!(TiTrace::from_reader(text.as_bytes()), Ok(want));
    }

    /// Damaged lines — truncated, bit-flipped, with bytes duplicated,
    /// deleted or inserted (non-ASCII and invalid UTF-8 included) — give
    /// exactly the oracle's value or error, and a line that is not UTF-8
    /// is an error naming it. Nothing panics.
    #[test]
    fn parser_matches_oracle_on_mutated_lines(
        actions in proptest::collection::vec((0usize..100_000, arb_wide_action()), 1..40),
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        for (i, (pid, a)) in actions.iter().enumerate() {
            let mut bytes = restyle(&format_action(*pid, a), &mut mix).into_bytes();
            mutate(&mut bytes, &mut mix);
            if let Ok(line) = std::str::from_utf8(&bytes) {
                let (got, want) = (parse_line(line, i + 1), oracle::parse_line(line, i + 1));
                prop_assert!(got == want, "{:?}: got {:?}, oracle {:?}", line, got, want);
            }
            // A merged stream grows its process set to the largest pid,
            // so a mutation that inflates a pid is checked line by line
            // only.
            let huge = |p: &Parsed| matches!(p, Ok(Some((pid, _))) if *pid > 1 << 16);
            if !oracle_lines(&bytes).any(|p| huge(&p)) {
                let (got, want) = (TiTrace::from_reader(&bytes[..]), oracle_stream(&bytes));
                prop_assert!(got == want, "{:?}: got {:?}, oracle {:?}", bytes, got, want);
            }
        }
    }

    /// Whole directories, collective-heavy and split over several ranks:
    /// `load_exact`, `load_compact_exact` (one and two workers) and the
    /// streaming reader agree with the oracle — on clean restyled files,
    /// and on the same files after a byte-level mutation of one rank.
    #[test]
    fn loaders_match_oracle_on_whole_directories(
        ranks in proptest::collection::vec(
            proptest::collection::vec(arb_reduce_heavy_action(), 0..30), 1..6),
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let n = ranks.len();
        let t = TiTrace { actions: ranks };
        let dir = tmp(&format!("oracle-{seed:x}"));
        write_restyled(&dir, &t, &mut mix);
        for damaged in [false, true] {
            if damaged {
                let rank = mix.below(n);
                let victim = dir.join(process_trace_filename(rank));
                let mut bytes = std::fs::read(&victim).unwrap();
                if mix.one_in(3) {
                    // A line for another rank, at a line boundary.
                    let starts: Vec<usize> = std::iter::once(0)
                        .chain(bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1))
                        .collect();
                    let at = *mix.pick(&starts);
                    let line = format!("p{} wait\n", rank + 1 + mix.below(3));
                    bytes.splice(at..at, line.into_bytes());
                } else {
                    mutate(&mut bytes, &mut mix);
                }
                std::fs::write(&victim, bytes).unwrap();
            }
            let boxed = oracle_load(&dir, n, false);
            if !damaged {
                prop_assert_eq!(&boxed, &Ok(t.clone()));
            }
            // Column for column: `Debug` prints every column, and the
            // NaN that encodes an unannotated receive equals itself.
            let columns = |c: CompactTrace| format!("{c:?}");
            let compact = oracle_load(&dir, n, true)
                .map(|t| columns(CompactTrace::from_trace(&t).unwrap()));
            for jobs in [1, 2] {
                let got = ingest::load_exact(&dir, n, jobs).map_err(|e| e.to_string());
                prop_assert!(got == boxed, "load_exact jobs={}: {:?} vs {:?}", jobs, got, boxed);
                let got =
                    ingest::load_compact_exact(&dir, n, jobs).map(columns).map_err(|e| e.to_string());
                prop_assert!(got == compact, "compact jobs={}: {:?} vs {:?}", jobs, got, compact);
            }
            for rank in 0..n {
                assert_stream_matches_oracle(&dir.join(process_trace_filename(rank)))?;
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Parsing is linear in the line: 1 MiB lines of digits, of ASCII or
/// Unicode whitespace, of non-ASCII letters, and one that is not UTF-8,
/// each parse well within the bound even in a debug build — alone, and
/// through the byte reader, which gathers them across many buffer
/// refills. Each result is the oracle's.
#[test]
fn megabyte_lines_parse_in_bounded_time() {
    const MIB: usize = 1 << 20;
    let lines: Vec<Vec<u8>> = vec![
        format!("p0 compute {}", "7".repeat(MIB)).into_bytes(),
        format!("p0 send p{} 1", "0".repeat(MIB)).into_bytes(),
        format!("p0{}barrier", " \t".repeat(MIB / 2)).into_bytes(),
        format!("p1 wait{}", "\u{3000}".repeat(MIB / 3)).into_bytes(),
        format!("p2 {}", "é".repeat(MIB / 2)).into_bytes(),
        format!("# {}", "x".repeat(MIB)).into_bytes(),
        [b"p0 compute 1 ".as_slice(), &[0xFF; MIB]].concat(),
    ];
    for bytes in &lines {
        let head = String::from_utf8_lossy(&bytes[..16]).into_owned();
        let t0 = Instant::now();
        if let Ok(line) = std::str::from_utf8(bytes) {
            assert_eq!(parse_line(line, 1), oracle::parse_line(line, 1), "{head:?}");
        }
        assert_eq!(TiTrace::from_reader(&bytes[..]), oracle_stream(bytes), "{head:?}");
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "{head:?}... x 1 MiB took {took:?}");
    }
}
