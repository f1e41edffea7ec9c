//! `tit-bench` — experiment harness regenerating every table and figure
//! of the paper's evaluation (Section 6), plus ablations.
//!
//! One module per exhibit; the `src/bin/*` binaries are thin wrappers.
//! Every experiment takes a `scale` in `(0, 1]` multiplying the LU
//! iteration count (`itmax`): trace sizes, action counts and execution
//! times are linear in `itmax`, so results are reported both at scale
//! and extrapolated to the paper's full iteration counts. The defaults
//! keep a full run tractable on one core.
//!
//! | Module | Exhibit |
//! |--------|---------|
//! | [`experiments::table2`] | acquisition-mode overhead |
//! | [`experiments::table3`] | trace sizes and action counts |
//! | [`experiments::fig7`]   | acquisition-time breakdown |
//! | [`experiments::fig8`]   | replay accuracy |
//! | [`experiments::fig9`]   | replay (simulation) time |
//! | [`experiments::ingest`] | serial vs parallel trace loading |
//! | [`experiments::serve`]  | daemon throughput / tail latency |
//! | [`experiments::largetrace`] | §6.5 class D × 1024 |
//! | [`experiments::ablations`]  | design-choice ablations |
//! | [`experiments::observer`]   | observer-overhead guard |
//! | [`experiments::kprof`]      | kernel self-profiling sweep |

#![forbid(unsafe_code)]

pub mod experiments;
pub mod perf;
pub mod table;

pub use perf::{
    record_written, write_ingest_json, write_replay_bench_json, write_scale_json,
    write_serve_json, IngestRecord, ObserverOverhead, PerfRecord,
};
pub use table::Table;

use npb::{Class, LuConfig};
use tit_core::{Action, TiTrace};

/// Scales a class's iteration count; minimum 2 so start-up effects do
/// not dominate.
pub fn scaled_itmax(class: Class, scale: f64) -> usize {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    ((class.itmax() as f64 * scale).round() as usize).max(2)
}

/// An LU instance at the given scale.
pub fn lu_instance(class: Class, nproc: usize, scale: f64) -> LuConfig {
    LuConfig::new(class, nproc).with_itmax(scaled_itmax(class, scale))
}

/// Iteration count for a throughput-sweep row. Up to 64 ranks this is
/// the class's scaled itmax (matching the paper's trace sizes); beyond
/// that the count shrinks proportionally so the total action count
/// stays roughly constant instead of growing linearly with ranks. The
/// sweep measures per-action kernel cost versus rank count — holding
/// trace volume fixed isolates that variable, and keeps the ×1024 row
/// inside this box's memory budget. Floor of 2 as in [`scaled_itmax`].
pub fn sweep_itmax(class: Class, nproc: usize, scale: f64) -> usize {
    let base = scaled_itmax(class, scale);
    if nproc <= 64 {
        base
    } else {
        (base * 64 / nproc).max(2)
    }
}

/// An LU instance sized for a sweep row at `nproc` ranks (the 128–1024
/// rows have no file traces — the paper's LU captures stop at ×64 — so
/// sweeps generate them with the same generator that backs `tit-gen`).
pub fn lu_sweep_instance(class: Class, nproc: usize, scale: f64) -> LuConfig {
    LuConfig::new(class, nproc).with_itmax(sweep_itmax(class, nproc, scale))
}

/// A disjoint-pairs ping-pong trace: rank `2i` exchanges messages with
/// rank `2i+1` only, with per-pair volumes and compute grains staggered
/// deterministically so completions do not all coincide.
///
/// This is the kernel scale-invariance probe (docs/KERNEL.md §2): every
/// contention island is one pair's two NICs no matter how many ranks
/// the platform has, so per-action kernel cost must stay flat from ×8
/// to ×1024 — `scripts/check_bench.py` gates on exactly that. The LU
/// rows cannot serve here: LU's pipelined wavefront chains flows
/// through shared NICs into islands that grow with the machine, so its
/// per-action cost is dominated by model physics, not kernel overhead.
///
/// Panics if `nproc` is odd (pairs need a partner).
pub fn pairs_trace(nproc: usize, iters: usize) -> TiTrace {
    assert!(nproc.is_multiple_of(2), "pairs_trace needs an even rank count");
    let mut t = TiTrace::new(nproc);
    for r in 0..nproc {
        t.push(r, Action::CommSize { nproc });
    }
    for it in 0..iters {
        for pair in 0..nproc / 2 {
            let (even, odd) = (2 * pair, 2 * pair + 1);
            let bytes = 65536.0 * (1.0 + (pair % 5) as f64 * 0.25);
            let flops = 5e5 * (1.0 + ((pair + it) % 3) as f64 * 0.5);
            t.push(even, Action::Send { dst: odd, bytes });
            t.push(odd, Action::Recv { src: even, bytes: None });
            t.push(odd, Action::Send { dst: even, bytes });
            t.push(even, Action::Recv { src: odd, bytes: None });
            t.push(even, Action::Compute { flops });
            t.push(odd, Action::Compute { flops });
        }
    }
    t
}

/// Iteration count for a pairs-sweep row: total action volume is held
/// at roughly `12M x scale` actions regardless of rank count (each
/// iteration contributes 6 actions per pair), so rows differ only in
/// machine size — the variable the flatness gate isolates.
pub fn pairs_iters(nproc: usize, scale: f64) -> usize {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    ((12_000_000.0 * scale / (3.0 * nproc as f64)) as usize).max(2)
}

/// Extrapolation factor from a scaled run to the paper's full run.
pub fn extrapolation(class: Class, scale: f64) -> f64 {
    class.itmax() as f64 / scaled_itmax(class, scale) as f64
}

/// A scratch directory under the target dir (so `cargo clean` removes
/// experiment residue), cleaned on creation.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("experiments")
    .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    // panics: a scratch dir that cannot be created aborts the bench run
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The flags a tit-bench binary was given (`None`: not given).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Flags {
    /// `--scale S`, in `(0, 1]`.
    pub scale: Option<f64>,
    /// `--max-ranks N`: sweeps skip rows with more ranks. CI smoke runs
    /// cap the sweeps at ×128 (one beyond-paper row) so a pull-request
    /// run stays minutes, while baseline regeneration sweeps ×1024.
    pub max_ranks: Option<usize>,
}

impl Flags {
    /// Parses raw arguments (without the program name) for the flags in
    /// `accepted` (`--scale`, `--max-ranks`). An error names the refused
    /// token: a word `accepted` does not hold, a flag with no value, or
    /// a malformed or out-of-range value.
    pub fn parse(raw: Vec<String>, accepted: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut raw = raw.into_iter();
        while let Some(flag) = raw.next() {
            if !accepted.contains(&flag.as_str()) {
                return Err(format!("unexpected argument {flag:?}"));
            }
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let min = experiments::fig9::SWEEP_RANKS_B[0];
            match flag.as_str() {
                "--scale" => match value.parse() {
                    Ok(s) if s > 0.0 && s <= 1.0 => flags.scale = Some(s),
                    _ => return Err(format!("--scale wants a number in (0, 1], got {value:?}")),
                },
                _ => match value.parse() {
                    Ok(n) if n >= min => flags.max_ranks = Some(n),
                    _ => return Err(format!("{flag} wants an integer >= {min}, got {value:?}")),
                },
            }
        }
        Ok(flags)
    }

    /// The process's flags, parsed against `accepted`; a refused token
    /// exits 2 with a message naming it and the accepted flags.
    pub fn from_env(accepted: &[&str]) -> Flags {
        Self::parse(std::env::args().skip(1).collect(), accepted).unwrap_or_else(|msg| {
            eprintln!("{msg}\naccepted flags: [{}]", accepted.join(", "));
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_linear_with_floor() {
        assert_eq!(scaled_itmax(Class::B, 1.0), 250);
        assert_eq!(scaled_itmax(Class::B, 0.1), 25);
        assert_eq!(scaled_itmax(Class::B, 0.001), 2);
        assert!((extrapolation(Class::B, 0.1) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        scaled_itmax(Class::B, 0.0);
    }

    #[test]
    fn sweep_itmax_shrinks_beyond_64_ranks() {
        assert_eq!(sweep_itmax(Class::B, 64, 0.1), 25);
        assert_eq!(sweep_itmax(Class::B, 128, 0.1), 12);
        assert_eq!(sweep_itmax(Class::B, 1024, 0.1), 2);
    }

    #[test]
    fn pairs_trace_is_balanced_and_volume_is_rank_invariant() {
        let t = pairs_trace(8, pairs_iters(8, 0.001));
        assert_eq!(t.num_processes(), 8);
        // Same total volume at a different rank count (within one
        // iteration's worth of rounding).
        let a8 = pairs_iters(8, 0.001) * 3 * 8;
        let a16 = pairs_iters(16, 0.001) * 3 * 16;
        let drift = (a8 as f64 - a16 as f64).abs() / a8 as f64;
        assert!(drift < 0.05, "volumes drifted {drift}: {a8} vs {a16}");
    }

    #[test]
    #[should_panic(expected = "even rank count")]
    fn odd_pairs_rejected() {
        pairs_trace(7, 2);
    }

    #[test]
    fn flags_refuse_what_the_binary_does_not_take() {
        let both = ["--scale", "--max-ranks"];
        let parse = |words: &str, accepted: &[&str]| {
            Flags::parse(words.split_whitespace().map(str::to_string).collect(), accepted)
        };
        assert_eq!(parse("", &[]), Ok(Flags::default()));
        let given = Flags { scale: Some(0.02), max_ranks: Some(128) };
        assert_eq!(parse("--scale 0.02 --max-ranks 128", &both), Ok(given));
        for (words, accepted, refusal) in [
            ("--max-rank 128", &both[..], r#"unexpected argument "--max-rank""#),
            ("--max-ranks 128", &both[..1], r#"unexpected argument "--max-ranks""#),
            ("0.1", &both, r#"unexpected argument "0.1""#),
            ("--scale", &both, "--scale needs a value"),
            ("--scale abc", &both, r#"--scale wants a number in (0, 1], got "abc""#),
            ("--scale 2", &both, r#"--scale wants a number in (0, 1], got "2""#),
            ("--max-ranks 4", &both, r#"--max-ranks wants an integer >= 8, got "4""#),
            ("--max-ranks -8", &both, r#"--max-ranks wants an integer >= 8, got "-8""#),
        ] {
            assert_eq!(parse(words, accepted), Err(refusal.to_string()), "{words}");
        }
    }
}
