//! The workspace's one JSON module (`tit_core::json`, re-exported as
//! `titr::trace::json`) against its own emitters and hostile input.
//!
//! Every report (titlint, titobs, titanalyze) must always produce
//! *valid* JSON — control characters escaped, non-finite floats mapped
//! to `null` — no matter what ends up inside a finding message, a
//! metrics note or a simulated time. The parser, which also reads the
//! daemon's untrusted request lines, must answer every input with a
//! value or a typed [`JsonError`] — never a panic — in time linear in
//! the input, and must read back exactly what the serializer wrote.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use titr::lint::{Finding, LintCode, Location, Report, Severity};
use titr::obs::Metrics;
use titr::trace::json::{obj, parse, Json, JsonError, MAX_DEPTH};

/// Strings that stress the escaper: quotes, backslashes, newlines, raw
/// control characters, and multi-byte UTF-8.
fn arb_nasty_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just('\u{0}'),
            Just('\u{1}'),
            Just('\u{1f}'),
            Just('é'),
            Just('𝕊'),
            Just('a'),
            Just('/'),
            Just('{'),
        ],
        0..24,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Floats including the non-finite values the emitters must neutralize.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
        -1e300..1e300f64,
    ]
}

proptest! {
    /// A lint report with arbitrary messages and file names parses back.
    #[test]
    fn lint_report_json_is_always_parseable(
        msgs in proptest::collection::vec((arb_nasty_string(), arb_nasty_string()), 0..6),
    ) {
        let findings = msgs
            .iter()
            .enumerate()
            .map(|(i, (msg, file))| Finding {
                code: LintCode::SelfMessage,
                severity: Severity::Warn,
                message: msg.clone(),
                primary: Location {
                    rank: i,
                    index: Some(i),
                    keyword: Some("send"),
                    file: Some(file.clone()),
                    line: Some(i + 1),
                },
                related: vec![],
            })
            .collect::<Vec<_>>();
        let n = findings.len();
        let report = Report { findings, num_processes: n.max(1), num_actions: n };
        let text = report.to_json();
        let json = parse(&text).expect("lint JSON must parse");
        let arr = json.get("findings").and_then(|f| f.as_arr()).expect("findings array");
        prop_assert_eq!(arr.len(), n);
        for (i, (msg, _)) in msgs.iter().enumerate() {
            let got = arr[i].get("message").and_then(|m| m.as_str()).expect("message string");
            prop_assert_eq!(got, msg.as_str());
        }
    }

    /// Metrics with arbitrary keys, notes, and (possibly non-finite)
    /// values parse back; non-finite values read back as null.
    #[test]
    fn metrics_json_is_always_parseable(
        entries in proptest::collection::vec((arb_nasty_string(), arb_float()), 0..6),
        notes in proptest::collection::vec((arb_nasty_string(), arb_nasty_string()), 0..4),
    ) {
        // Duplicate generated keys overwrite (set_value semantics);
        // dedupe the expectations the same way.
        let entries: std::collections::BTreeMap<String, f64> =
            entries.into_iter().map(|(k, v)| (format!("v.{k}"), v)).collect();
        let notes: std::collections::BTreeMap<String, String> =
            notes.into_iter().map(|(k, t)| (format!("n.{k}"), t)).collect();
        let m = Metrics::new();
        m.incr("counter.one", 7);
        for (k, v) in &entries {
            m.set_value(k, *v);
        }
        for (k, text) in &notes {
            m.set_note(k, text);
        }
        let out = m.to_json();
        let json = parse(&out).expect("metrics JSON must parse");
        prop_assert_eq!(
            json.get("counters").and_then(|c| c.get("counter.one")).and_then(Json::as_u64),
            Some(7)
        );
        // Finite values round-trip; non-finite ones became null (so the
        // file stays machine-readable instead of carrying bare NaN).
        let vals = json.get("values").expect("values object");
        for (k, v) in &entries {
            let got = vals.get(k).expect("value present").as_f64();
            if v.is_finite() {
                prop_assert_eq!(got, Some(*v));
            } else {
                prop_assert_eq!(got, None);
            }
        }
        let ns = json.get("notes").expect("notes object");
        for (k, text) in &notes {
            let got = ns.get(k).and_then(|v| v.as_str());
            prop_assert_eq!(got, Some(text.as_str()));
        }
    }
}

/// The analyzer report JSON parses too, with bounds where expected.
#[test]
fn analyze_report_json_is_parseable() {
    use titr::analyze::{analyze, AnalyzeConfig};
    use titr::npb::ring::RingConfig;
    use titr::platform::deployment::Deployment;
    use titr::platform::desc::PlatformDesc;
    use titr::platform::presets;

    let trace = RingConfig::default().trace();
    let np = trace.num_processes();
    let desc = PlatformDesc::single(presets::bordereau_one_core(np));
    let platform = desc.build();
    let hosts = Deployment::round_robin(&desc.host_names(), np).host_ids(&platform);
    let a = analyze(&trace, &platform, &hosts, &AnalyzeConfig::default()).unwrap();
    let json = parse(&a.to_json()).expect("analyze JSON must parse");
    assert_eq!(json.get("schema").and_then(|s| s.as_str()), Some("tit-analyze-v1"));
    let lower = json.get("bounds").and_then(|b| b.get("lower_s")).and_then(Json::as_f64);
    let upper = json.get("bounds").and_then(|b| b.get("upper_s")).and_then(Json::as_f64);
    assert!(lower.unwrap() > 0.0 && upper.unwrap() >= lower.unwrap());
    let ranks = json.get("ranks").and_then(|r| r.as_arr()).unwrap();
    assert_eq!(ranks.len(), np);
}

/// Valid request lines of the serve protocol (docs/SERVING.md §1), the
/// seeds of the structured mutations below.
const REQUEST_LINES: &[&str] = &[
    r#"{"op":"ping"}"#,
    r#"{"op":"metrics"}"#,
    r#"{"op":"replay","id":"r1","trace_dir":"examples/traces/ring4","np":4,"nodes":4,"platform":"gdx","network":"flow","collectives":"flat","remap":[3,2,1,0],"drop_ranks":[1],"max_wall_s":2.5}"#,
    r#"{"op":"replay","id":"é\"\\\n😀 é","store":"s.tib2","np":2,"max_wall_s":1e-3}"#,
];

/// Nesting levels the parser visits below `v`: 0 for a scalar or an
/// empty container, one more than its deepest child otherwise.
fn levels(v: &Json) -> usize {
    let children: Box<dyn Iterator<Item = &Json>> = match v {
        Json::Arr(items) => Box::new(items.iter()),
        Json::Obj(pairs) => Box::new(pairs.iter().map(|(_, v)| v)),
        _ => return 0,
    };
    children.map(|c| 1 + levels(c)).max().unwrap_or(0)
}

/// `line` wrapped in `k` arrays.
fn nest(line: &str, k: usize) -> String {
    format!("{}{line}{}", "[".repeat(k), "]".repeat(k))
}

/// One structured mutation of `line`; `at` and `byte` pick the place
/// and the replacement.
fn mutate(line: &str, kind: u8, at: usize, byte: u8) -> String {
    let mut b = line.as_bytes().to_vec();
    let i = at % (b.len() + 1);
    match kind {
        0 => b.truncate(i),
        1 if i < b.len() => b[i] ^= byte | 1,
        2 if i < b.len() => b.insert(i, b[i]),
        3 if i < b.len() => {
            b.remove(i);
        }
        _ => b.insert(i, byte),
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// A parse that answers: `Ok` or a typed error, and an `Ok` value reads
/// back exactly from its own serialization.
fn parses_or_refuses(text: &str) -> Result<(), String> {
    match parse(text) {
        Ok(v) => {
            let again = parse(&v.to_string()).map_err(|e| format!("re-parse of {v}: {e}"))?;
            if again == v {
                Ok(())
            } else {
                Err(format!("{v} read back as {again}"))
            }
        }
        Err(JsonError { at, .. }) if at <= text.len() => Ok(()),
        Err(e) => Err(format!("error offset past the input: {e}")),
    }
}

/// Finite floats across the whole `f64` range, from raw bits.
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        (bits >> 12) as f64
    }
}

/// A JSON value grown from a stream of choices: `shape` picks each
/// node's kind, size and number bits; strings come from `strs`.
fn build(shape: &mut impl Iterator<Item = u64>, strs: &[String], depth: usize) -> Json {
    let Some(k) = shape.next() else { return Json::Null };
    let pick = |k: u64| strs[(k >> 8) as usize % strs.len()].clone();
    match k % 7 {
        0 => Json::Null,
        1 => Json::Bool(k & 256 != 0),
        2 => Json::Num(finite(k.rotate_left(17))),
        3 => Json::Num((k >> 40) as f64),
        4 => Json::Str(pick(k)),
        5 if depth < 6 => {
            Json::Arr((0..(k >> 8) % 4).map(|_| build(shape, strs, depth + 1)).collect())
        }
        6 if depth < 6 => Json::Obj(
            (0..(k >> 8) % 4)
                .map(|i| (pick(k >> i), build(shape, strs, depth + 1)))
                .collect(),
        ),
        _ => Json::Str(pick(k)),
    }
}

proptest! {
    /// Arbitrary bytes never panic the parser.
    #[test]
    fn arbitrary_bytes_parse_or_refuse(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let outcome = parses_or_refuses(&text);
        prop_assert!(outcome.is_ok(), "{:?}: {:?}", text, outcome);
    }

    /// Truncated, flipped, duplicated, deleted and inserted bytes in
    /// valid request lines never panic the parser, and whatever still
    /// parses reads back exactly.
    #[test]
    fn mutated_request_lines_parse_or_refuse(
        muts in proptest::collection::vec((0u8..5, any::<usize>(), any::<u8>()), 1..6),
    ) {
        for seed in REQUEST_LINES {
            let mut line = (*seed).to_owned();
            for &(kind, at, byte) in &muts {
                line = mutate(&line, kind, at, byte);
                let outcome = parses_or_refuses(&line);
                prop_assert!(outcome.is_ok(), "{:?}: {:?}", line, outcome);
            }
        }
    }

    /// The serializer's output parses back to the value it came from,
    /// for escape-heavy strings and finite numbers.
    #[test]
    fn values_round_trip(
        shape in proptest::collection::vec(any::<u64>(), 1..48),
        strs in proptest::collection::vec(arb_nasty_string(), 1..6),
    ) {
        let v = build(&mut shape.into_iter(), &strs, 0);
        let text = v.to_string();
        prop_assert!(!text.contains('\n'), "one line: {}", text);
        prop_assert_eq!(parse(&text).map_err(|e| e.to_string()), Ok(v));
    }
}

/// Request lines nested exactly `MAX_DEPTH` levels deep parse; one
/// level more is refused with a typed error, not a stack overflow.
#[test]
fn nesting_is_bounded_at_max_depth() {
    for line in REQUEST_LINES {
        let depth = levels(&parse(line).unwrap());
        let under = nest(line, MAX_DEPTH - depth);
        assert!(parse(&under).is_ok(), "{MAX_DEPTH} levels must parse: {under}");
        let err = parse(&nest(line, MAX_DEPTH - depth + 1)).unwrap_err();
        assert!(err.reason.contains("nesting"), "{err}");
    }
}

/// String scanning is linear in the input: a 1 MiB string, ASCII or
/// multi-byte, parses well within the bound even in a debug build.
#[test]
fn megabyte_strings_parse_in_linear_time() {
    for unit in ["a", "é😀"] {
        let body = unit.repeat((1 << 20) / unit.len());
        let line = obj(vec![("op", "replay".into()), ("id", body.as_str().into())]).to_string();
        let t0 = Instant::now();
        let v = parse(&line).expect("long string parses");
        let took = t0.elapsed();
        assert_eq!(v.get("id").and_then(Json::as_str), Some(body.as_str()));
        assert!(took < Duration::from_secs(2), "{unit:?} x 1 MiB took {took:?}");
    }
}

/// Reports holding NaN or infinity still parse; those numbers read back
/// as `null` instead of corrupting the document.
#[test]
fn non_finite_report_numbers_read_back_as_null() {
    use titr::obs::{KernelReport, Profile, TimeResolved, WindowSpec};
    use titr::replay::tags;
    use titr::simkern::observer::OpRecord;

    let profile = Profile::new(1, tags::name, tags::is_comm);
    let spec = WindowSpec { width: Some(1.0), phases: false };
    let timeres =
        TimeResolved::new(None::<Vec<u8>>, 1, spec, tags::is_comm, tags::is_collective).unwrap();
    for mut sink in [profile.sink(), timeres.sink()] {
        let rec = OpRecord { actor: 0, tag: tags::COMPUTE, start: 0.0, end: 0.5, volume: f64::NAN };
        sink.record(rec);
        sink.engine_ended(f64::INFINITY);
    }
    let mut kernel = KernelReport { simulated_time: f64::NAN, ..KernelReport::default() };
    kernel.profile.wall.total_s = f64::INFINITY;
    let parsed = |what: &str, text: String| {
        parse(&text).unwrap_or_else(|e| panic!("{what} JSON must parse: {e}\n{text}"))
    };

    for (what, text) in [
        ("profile", profile.snapshot().to_json()),
        ("time-resolved", timeres.finish().unwrap().to_json()),
    ] {
        let doc = parsed(what, text);
        assert_eq!(doc.get("simulated_time"), Some(&Json::Null), "{what}: {doc}");
        let rank0 = doc.get("ranks").and_then(Json::as_arr).and_then(<[Json]>::first);
        assert_eq!(rank0.and_then(|r| r.get("flops")), Some(&Json::Null), "{what}: {doc}");
    }
    let doc = parsed("kernel", kernel.to_json());
    assert_eq!(doc.get("simulated_time"), Some(&Json::Null), "{doc}");
    let doc = parsed("kernel walls", kernel.to_json_value(true).to_string());
    assert_eq!(doc.get("wall").and_then(|w| w.get("total_s")), Some(&Json::Null), "{doc}");
}
