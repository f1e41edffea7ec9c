//! Static trace analyzer: lints a time-independent trace set without
//! simulating it.
//!
//! ```text
//! tit-lint --trace-dir DIR --np N [--format text|json]
//!          [--deny-warnings] [--allow CODES] [--warn CODES] [--error CODES]
//!          [--jobs N]
//! ```
//!
//! `--jobs N` parses the per-rank files on N worker threads (`0` = one
//! per CPU); the report is identical to the serial default.
//!
//! `CODES` is a comma-separated list of stable lint codes (`TL0003`) or
//! `all`. Exit status: 0 when the trace is clean (or carries only
//! warnings), 1 when error findings (or, under `--deny-warnings`,
//! warnings) are present, 2 on usage errors.

use std::path::PathBuf;
use tit_cli::Args;
use titlint::{lint_dir_jobs, LintCode, LintConfig, Severity};

const USAGE: &str = "tit-lint --trace-dir DIR --np N [--format text|json] [--deny-warnings] [--allow CODES] [--warn CODES] [--error CODES] [--jobs N]";

/// Sets every code `--{flag}` lists to `level`.
fn apply_levels(args: &Args, cfg: &mut LintConfig, flag: &str, level: Severity) {
    let Some(codes) = args.get(flag) else { return };
    for item in codes.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if item.eq_ignore_ascii_case("all") {
            for code in LintCode::ALL {
                cfg.set_level(code, level);
            }
            continue;
        }
        match LintCode::from_id(item) {
            Some(code) => {
                cfg.set_level(code, level);
            }
            None => args.usage_error(&format!(
                "--{flag}: unknown lint code {item:?} (codes are TL0001..TL0020)"
            )),
        }
    }
}

fn main() {
    let args = Args::from_env(USAGE);
    let dir = PathBuf::from(args.require("trace-dir"));
    let np: usize = args.get_or("np", 0);
    if np == 0 {
        args.usage_error("missing --np");
    }

    let mut cfg = LintConfig::default();
    apply_levels(&args, &mut cfg, "allow", Severity::Allow);
    apply_levels(&args, &mut cfg, "warn", Severity::Warn);
    apply_levels(&args, &mut cfg, "error", Severity::Error);

    let report = lint_dir_jobs(&dir, np, &cfg, args.get_or("jobs", 1));
    match args.get_or("format", "text".to_string()).as_str() {
        "text" => print!("{}", report.render_text()),
        "json" => println!("{}", report.to_json()),
        other => args.usage_error(&format!(
            "--format: unknown value {other:?} (expected text|json)"
        )),
    }
    let fail = report.has_errors() || (args.has_flag("deny-warnings") && report.warnings() > 0);
    std::process::exit(i32::from(fail));
}
