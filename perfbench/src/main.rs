//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! Runs one workload (see `spec.rs` and README.md) in this process for
//! `S` seconds and prints, as the last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is the run envelope. Inputs are generated on
//! first use under the cargo target dir (`--prepare` is that child
//! step).

mod calib;
mod inputs;
mod replay;
mod report;
mod serve;
mod spec;
mod stats;

use report::{json_num, json_str, result_line, Measured};
use spec::{params, Size, Workload};
use std::path::Path;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |flag: &str| value(args, flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let size = value(args, "--size").unwrap_or("full");
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        traced: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        size: Size::parse(size).ok_or(format!("unknown size {size:?}"))?,
    })
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn envelope(a: &Args, m: &Measured) -> String {
    let p = params(a.workload, a.size);
    let mut fields = vec![
        ("benchmark".to_owned(), json_str("perfbench")),
        ("workload".to_owned(), json_str(a.workload.name())),
        ("size".to_owned(), json_str(a.size.name())),
        ("seed".to_owned(), a.seed.to_string()),
        ("seconds".to_owned(), json_num(a.seconds)),
        ("trace".to_owned(), u8::from(a.traced).to_string()),
        ("nproc".to_owned(), nproc().to_string()),
        (
            "build_profile".to_owned(),
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit".to_owned(), json_str(&commit())),
        ("trace_source".to_owned(), json_str(&p.source.describe())),
        ("error_rate".to_owned(), json_num(m.error_rate())),
    ];
    if let Some(anchor) = p.anchor {
        fields.push(("anchor_simulated_time".to_owned(), json_num(anchor)));
    }
    match a.workload {
        Workload::LuText => fields.push(("jobs".to_owned(), nproc().to_string())),
        Workload::LuWideStore | Workload::PairsStore => {
            fields.push(("seg_actions".to_owned(), p.seg_actions.to_string()));
        }
        Workload::ServeWhatif => {
            fields.push(("clients".to_owned(), serve::CLIENTS.to_string()));
            fields.push(("workers".to_owned(), serve::WORKERS.to_string()));
            fields.push(("slice_actions".to_owned(), serve::SLICE_ACTIONS.to_string()));
            fields.push(("sweeps".to_owned(), p.sweeps.to_string()));
        }
    }
    for (k, v) in &m.facts {
        fields.push(((*k).to_owned(), json_num(*v)));
    }
    let runs: Vec<String> = m
        .runs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    fields.push(("runs".to_owned(), format!("{{{}}}", runs.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"envelope\": {{{}}}}}", body.join(", "))
}

fn run(a: &Args) -> Result<Measured, String> {
    let dir = inputs::ensure(a.workload, a.size)?;
    let p = params(a.workload, a.size);
    std::fs::create_dir_all(inputs::work_root().join("out")).map_err(|e| e.to_string())?;
    match a.workload {
        Workload::ServeWhatif => serve::run(
            &dir,
            p.source.ranks(),
            p.sweeps,
            a.seed,
            a.seconds,
            a.traced,
        ),
        w => {
            let ctx = replay::Ctx {
                workload: w,
                params: p,
                dir,
                seconds: a.seconds,
                jobs: nproc(),
            };
            replay::run(&ctx, a.traced)
        }
    }
}

/// `--list-metrics`: the metric vocabulary, one `metric NAME UNIT
/// BETTER` line per metric, then one README table row per per-layer
/// metric (the smoke test holds BENCHMARK.json and README.md to these).
fn list_metrics() {
    for m in spec::END_TO_END {
        println!("metric {} {} {}", m.name, m.unit, m.better);
    }
    for m in spec::PER_LAYER {
        println!("metric {} {} {}", m.name, m.unit, m.better);
    }
    for m in spec::PER_LAYER {
        let layer = m.name.split('.').next().unwrap_or_default();
        println!(
            "row | `{}` | {layer} | {} | {} | {} |",
            m.name, m.unit, m.moves, m.on
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-metrics") {
        list_metrics();
        return;
    }
    if let Some(name) = value(&args, "--prepare") {
        let (Some(w), Some(size)) = (
            Workload::parse(name),
            Size::parse(value(&args, "--size").unwrap_or("full")),
        ) else {
            eprintln!("perfbench: bad --prepare arguments");
            std::process::exit(2);
        };
        if let Err(e) = inputs::prepare(w, size) {
            eprintln!("perfbench: preparing {name}: {e}");
            std::process::exit(1);
        }
        return;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]");
            std::process::exit(2);
        }
    };
    let m = match run(&a) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload.name());
            std::process::exit(1);
        }
    };
    let table = match m.table(a.traced) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", envelope(&a, &m));
    println!(
        "{}",
        result_line(m.failed == 0 && m.attempted > 0, &m, &table)
    );
}
