//! Post-hoc profile renderer: a timed-trace CSV (produced by
//! `tit-replay --timed-trace`) → the per-rank application profile,
//! without re-running the simulation.
//!
//! ```text
//! tit-profile --input CSV [--format text|json] [--out FILE]
//! ```
//!
//! Each `rank,action,start,end,volume` row is mapped back to its action
//! tag and fed through the same `titobs::Profile` aggregator the replay
//! uses, so the output matches what `tit-replay --profile` would have
//! produced for the same run, up to the CSV's 9-decimal rounding of
//! timestamps.
//!
//! `--out FILE` is written atomically (tmp + rename).
//!
//! The CSV is untrusted input: a row whose times or volume are not
//! finite numbers, whose end precedes its start, or whose rank is not
//! below [`MAX_RANKS`] exits 1 naming `file:line`.

use tit_replay::tags;
use titobs::Profile;

const USAGE: &str = "tit-profile --input CSV [--format text|json] [--out FILE]";

/// Ranks a CSV row may name: far above the paper's largest run (1024
/// ranks), and small enough that the per-rank tables stay bounded.
const MAX_RANKS: usize = 1 << 20;

fn die(input: &str, lineno: usize, what: &str, line: &str) -> ! {
    eprintln!("{input}:{}: {what}: {line:?}", lineno + 1);
    std::process::exit(1);
}

fn main() {
    let args = tit_cli::Args::from_env(USAGE);
    let input = args.require("input");
    let format = args.get_or("format", "text".to_string());
    if format != "text" && format != "json" {
        args.usage_error(&format!("--format: unknown value {format:?} (expected text|json)"));
    }

    let text = tit_cli::or_exit(std::fs::read_to_string(&input), format_args!("cannot read {input}"));

    let profile = Profile::new(0, tags::name, tags::is_comm);
    let mut sink = profile.sink();
    let mut makespan = 0.0f64;
    let mut rank_end: Vec<f64> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if lineno == 0 && line.starts_with("rank,") {
            continue; // header
        }
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 5 {
            die(&input, lineno, "expected 5 columns", line);
        }
        let rank = match cols[0].parse::<usize>() {
            Ok(r) if r < MAX_RANKS => r,
            Ok(_) => die(&input, lineno, &format!("rank not below {MAX_RANKS}"), line),
            Err(_) => die(&input, lineno, "bad rank", line),
        };
        let action = cols[1];
        let num = |col: usize, what: &str| match cols[col].parse::<f64>() {
            Ok(v) if v.is_finite() => v,
            _ => die(&input, lineno, &format!("{what} is not a finite number"), line),
        };
        let (start, end, volume) = (num(2, "start"), num(3, "end"), num(4, "volume"));
        if end < start {
            die(&input, lineno, "end before start", line);
        }
        // Unknown action names map to tag 0 ("other") rather than
        // aborting: foreign rows degrade to an "other" bucket.
        let tag = tags::from_name(action).unwrap_or(0);
        sink.record(simkern::observer::OpRecord { actor: rank, tag, start, end, volume });
        makespan = makespan.max(end);
        if rank >= rank_end.len() {
            rank_end.resize(rank + 1, 0.0);
        }
        rank_end[rank] = rank_end[rank].max(end);
    }
    // A rank's last completion is the best reconstruction of its
    // termination time the CSV offers.
    for (rank, end) in rank_end.iter().enumerate() {
        sink.actor_ended(rank, *end);
    }
    sink.engine_ended(makespan);
    drop(sink);

    let report = profile.snapshot();
    let rendered = match format.as_str() {
        "json" => report.to_json(),
        _ => format!("{}{}", report.render_text(), report.render_tags_text()),
    };
    match args.get("out") {
        Some(path) => tit_cli::write_atomic_or_die(path, &rendered),
        None => print!("{rendered}"),
    }
}
