//! Drives the real command-line binaries through the full pipeline:
//! acquire → extract → stats → replay → calibrate.

use std::path::PathBuf;
use std::process::Command;
use tit_platform::deployment::Deployment;
use tit_platform::desc::{PlatformDesc, WanLink};
use tit_platform::presets;

fn run(bin: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn full_pipeline_through_the_binaries() {
    let dir = std::env::temp_dir().join(format!("titr-clitest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tau = dir.join("tau");
    let ti = dir.join("ti");
    let bundle = dir.join("traces.bundle");

    // Acquire a small LU instance, folded.
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-acquire"),
        &[
            "--workload", "lu", "--class", "S", "--np", "4", "--mode", "F-2",
            "--itmax", "2", "--out", tau.to_str().unwrap(),
        ],
    );
    assert!(ok, "tit-acquire failed:\n{text}");
    assert!(text.contains("mode:            F-2"), "{text}");
    assert!(tau.join("tautrace.3.0.0.trc").exists());

    // Extract + bundle + the binary (TIB2) form.
    let store = dir.join("ti.tib2");
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-extract"),
        &[
            "--tau", tau.to_str().unwrap(), "--np", "4",
            "--out", ti.to_str().unwrap(), "--bundle", bundle.to_str().unwrap(),
            "--tib2", store.to_str().unwrap(),
        ],
    );
    assert!(ok, "tit-extract failed:\n{text}");
    assert!(text.contains("actions written"), "{text}");
    assert!(text.contains("tib2 store:"), "{text}");
    assert!(ti.join("SG_process0.trace").exists());
    assert!(bundle.exists());

    // Stats + validation.
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-stats"),
        &["--trace-dir", ti.to_str().unwrap(), "--np", "4", "--compress", "--validate"],
    );
    assert!(ok, "tit-stats failed:\n{text}");
    assert!(text.contains("validation:       OK"), "{text}");
    assert!(text.contains("compressed:"), "{text}");

    // Replay with profile, timed-trace and Paje outputs.
    let timed = dir.join("timed.csv");
    let paje = dir.join("trace.paje");
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-replay"),
        &[
            "--trace-dir", ti.to_str().unwrap(), "--np", "4", "--nodes", "4",
            "--timed-trace", timed.to_str().unwrap(),
            "--paje", paje.to_str().unwrap(), "--profile",
        ],
    );
    assert!(ok, "tit-replay failed:\n{text}");
    let sim_line = |text: &str| text.lines().find(|l| l.starts_with("simulated time:")).map(str::to_owned);
    let sim = sim_line(&text);
    assert!(sim.is_some(), "{text}");
    assert!(timed.exists());

    // The store replays to the same simulated time as the directory.
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-replay"),
        &["--store", store.to_str().unwrap(), "--nodes", "4"],
    );
    assert!(ok, "tit-replay --store failed:\n{text}");
    assert_eq!(sim_line(&text), sim, "{text}");
    let csv = std::fs::read_to_string(&timed).unwrap();
    assert!(csv.starts_with("rank,action,start,end,volume"));
    let paje_text = std::fs::read_to_string(&paje).unwrap();
    assert!(paje_text.starts_with("%EventDef"));
    assert!(paje_text.contains("PajeSetState"));

    // tit-diff: the trace set equals itself.
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-diff"),
        &["--a", ti.to_str().unwrap(), "--b", ti.to_str().unwrap()],
    );
    assert!(ok, "tit-diff failed:\n{text}");
    assert!(text.contains("IDENTICAL"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Like [`run`], but returns the exact exit code and stderr separately.
fn run_code(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn replay_rejects_missing_traces() {
    let missing = PathBuf::from("/definitely/not/here");
    let (ok, _) = run(
        env!("CARGO_BIN_EXE_tit-replay"),
        &["--trace-dir", missing.to_str().unwrap(), "--np", "2"],
    );
    assert!(!ok, "missing traces must fail");
}

#[test]
fn errors_map_to_exit_codes_with_one_line_stderr() {
    // Runtime failure (missing rank file) → exit 1, and stderr is a
    // single line naming the failing rank and file.
    let missing = "/definitely/not/here";
    let (code, stderr) = run_code(
        env!("CARGO_BIN_EXE_tit-replay"),
        &["--trace-dir", missing, "--np", "2"],
    );
    assert_eq!(code, Some(1), "runtime errors exit 1; stderr:\n{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one-line diagnostic:\n{stderr}");
    assert!(stderr.contains("rank 0") && stderr.contains(missing), "{stderr}");

    // Usage errors → exit 2.
    let (code, stderr) = run_code(
        env!("CARGO_BIN_EXE_tit-acquire"),
        &["--workload", "lu", "--np", "4", "--mode", "Q-3", "--out", "/tmp/x"],
    );
    assert_eq!(code, Some(2), "usage errors exit 2; stderr:\n{stderr}");

    let (code, _) = run_code(
        env!("CARGO_BIN_EXE_tit-extract"),
        &["--tau", missing, "--np", "2", "--out", "/tmp/titr-nope"],
    );
    assert_eq!(code, Some(1), "missing TAU dir exits 1");
}

#[test]
fn corrupt_trace_line_is_diagnosed_with_file_and_line() {
    let dir = std::env::temp_dir().join(format!("titr-clicorrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("SG_process0.trace"), "p0 compute 100\np0 frobnicate 3\n")
        .unwrap();
    std::fs::write(dir.join("SG_process1.trace"), "p1 compute 100\n").unwrap();
    let (code, stderr) = run_code(
        env!("CARGO_BIN_EXE_tit-replay"),
        &["--trace-dir", dir.to_str().unwrap(), "--np", "2"],
    );
    assert_eq!(code, Some(1), "corrupt trace exits 1; stderr:\n{stderr}");
    assert!(stderr.contains("SG_process0.trace"), "names the file:\n{stderr}");
    assert!(stderr.contains("line 2"), "names the line:\n{stderr}");
    assert!(stderr.contains("frobnicate"), "names the keyword:\n{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `comm_size` larger than the replayed ranks is a one-line error
/// (exit 1) raised before any collective is expanded: expanding it
/// would size work by the declared count (the flat tree's per-rank
/// micro-ops, the binomial mask loop), and an allocation failure aborts
/// the process instead of returning an error.
#[test]
fn oversized_comm_size_exits_one_for_every_algorithm_and_loader() {
    for nproc in ["3000000000", "18446744073709551615"] {
        let body = |r: usize| format!("p{r} comm_size {nproc}\np{r} barrier\n");
        let dir = write_traces(&format!("cs{}", nproc.len()), &[&body(0), &body(1)]);
        let trace_dir = dir.to_str().unwrap();
        for algo in ["flat", "binomial"] {
            for jobs in ["1", "2"] {
                let (code, stderr) = run_code(
                    env!("CARGO_BIN_EXE_tit-replay"),
                    &["--trace-dir", trace_dir, "--np", "2", "--collectives", algo, "--jobs", jobs],
                );
                assert_eq!(code, Some(1), "{nproc} {algo} jobs {jobs}; stderr:\n{stderr}");
                assert!(stderr.contains(nproc) && stderr.contains("rank 0"), "{stderr}");
                assert_eq!(stderr.trim_end().lines().count(), 1, "one line:\n{stderr}");
            }
            let (code, stderr) = run_code(
                env!("CARGO_BIN_EXE_tit-analyze"),
                &["--trace-dir", trace_dir, "--np", "2", "--collectives", algo],
            );
            assert_eq!(code, Some(1), "analyze {nproc} {algo}; stderr:\n{stderr}");
            assert!(stderr.contains(&format!("comm_size {nproc} exceeds")), "{stderr}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A platform or deployment file nested 20,000 elements deep is refused
/// with a one-line diagnostic (exit 1) by every command that reads one,
/// instead of overflowing the parser's stack.
#[test]
fn deeply_nested_xml_exits_one_with_a_one_line_message() {
    let dir = std::env::temp_dir().join(format!("titr-clideepxml-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join("deep.xml");
    let levels = 20_000;
    std::fs::write(
        &deep,
        format!("<?xml version='1.0'?>\n{}{}\n", "<a>".repeat(levels), "</a>".repeat(levels)),
    )
    .unwrap();
    let traces = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/ring4");
    let (traces, deep) = (traces.to_str().unwrap(), deep.to_str().unwrap());
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_tit-replay"), "--platform"),
        (env!("CARGO_BIN_EXE_tit-analyze"), "--platform"),
        (env!("CARGO_BIN_EXE_tit-replay"), "--deploy"),
    ] {
        let (code, stderr) = run_code(bin, &["--trace-dir", traces, "--np", "4", flag, deep]);
        assert_eq!(code, Some(1), "{bin} {flag}; stderr:\n{stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "one-line diagnostic:\n{stderr}");
        assert!(stderr.contains("levels deep"), "{bin} {flag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `tit-profile` validates every CSV row: non-finite times, an end
/// before its start and an out-of-range rank exit 1 naming the line,
/// instead of writing invalid JSON, panicking or allocating per rank.
#[test]
fn profile_rejects_untrusted_rows() {
    let dir = std::env::temp_dir().join(format!("titr-cliprof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("timed.csv");
    for (row, reason) in [
        ("0,compute,0,inf,1", "end is not a finite number"),
        ("0,compute,NaN,1,1", "start is not a finite number"),
        ("0,compute,0,1,nan", "volume is not a finite number"),
        ("0,compute,2,1,1", "end before start"),
        ("18446744073709551615,compute,0,1,1", "rank not below"),
        ("4000000000,compute,0,1,1", "rank not below"),
    ] {
        std::fs::write(&csv, format!("rank,action,start,end,volume\n0,compute,0,1,1\n{row}\n"))
            .unwrap();
        let (code, stderr) = run_code(
            env!("CARGO_BIN_EXE_tit-profile"),
            &["--input", csv.to_str().unwrap(), "--format", "json"],
        );
        assert_eq!(code, Some(1), "row {row:?} must be refused; stderr:\n{stderr}");
        assert!(stderr.contains("timed.csv:3:"), "names file:line:\n{stderr}");
        assert!(stderr.contains(reason), "row {row:?}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "one-line diagnostic:\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes a per-rank trace set into a fresh temp directory.
fn write_traces(tag: &str, ranks: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titr-clilint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (r, body) in ranks.iter().enumerate() {
        std::fs::write(dir.join(format!("SG_process{r}.trace")), body).unwrap();
    }
    dir
}

#[test]
fn lint_exits_zero_on_a_clean_trace() {
    let dir = write_traces(
        "clean",
        &["p0 compute 100\np0 send p1 64\n", "p1 recv p0\np1 compute 50\n"],
    );
    let (code, _) = run_code(
        env!("CARGO_BIN_EXE_tit-lint"),
        &["--trace-dir", dir.to_str().unwrap(), "--np", "2"],
    );
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_detects_circular_deadlock_and_exits_one() {
    // Three ranks, each receiving from its left neighbour before
    // sending right: balanced counts, guaranteed deadlock.
    let dir = write_traces(
        "deadlock",
        &[
            "p0 recv p2\np0 send p1 64\n",
            "p1 recv p0\np1 send p2 64\n",
            "p2 recv p1\np2 send p0 64\n",
        ],
    );
    let (code, _) = run_code(
        env!("CARGO_BIN_EXE_tit-lint"),
        &["--trace-dir", dir.to_str().unwrap(), "--np", "3"],
    );
    assert_eq!(code, Some(1), "deadlock must fail the lint");
    let out = Command::new(env!("CARGO_BIN_EXE_tit-lint"))
        .args(["--trace-dir", dir.to_str().unwrap(), "--np", "3"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("error[TL0003]"), "{text}");
    assert!(text.contains("p0 (recv at action 0)"), "full cycle members:\n{text}");
    assert!(text.contains("SG_process0.trace:1"), "file:line location:\n{text}");

    // The replay preflight refuses the same trace set.
    let (code, stderr) = run_code(
        env!("CARGO_BIN_EXE_tit-replay"),
        &["--trace-dir", dir.to_str().unwrap(), "--np", "3", "--lint"],
    );
    assert_eq!(code, Some(1), "preflight must refuse; stderr:\n{stderr}");
    assert!(stderr.contains("refusing to replay"), "{stderr}");
    assert!(stderr.contains("TL0003"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_emits_json_and_respects_level_overrides() {
    // A self-send is a warning by default: exit 0, but --deny-warnings
    // and --error escalate it, and --allow suppresses it.
    let dir = write_traces("levels", &["p0 send p0 8\np0 recv p0\n"]);
    let base = ["--trace-dir", dir.to_str().unwrap(), "--np", "1"];
    let (code, _) = run_code(env!("CARGO_BIN_EXE_tit-lint"), &base);
    assert_eq!(code, Some(0), "warnings alone pass");
    let (code, _) = run_code(
        env!("CARGO_BIN_EXE_tit-lint"),
        &[&base[..], &["--deny-warnings"]].concat(),
    );
    assert_eq!(code, Some(1));
    let (code, _) = run_code(
        env!("CARGO_BIN_EXE_tit-lint"),
        &[&base[..], &["--error", "TL0013"]].concat(),
    );
    assert_eq!(code, Some(1));
    let (code, _) = run_code(
        env!("CARGO_BIN_EXE_tit-lint"),
        &[&base[..], &["--allow", "all", "--deny-warnings"]].concat(),
    );
    assert_eq!(code, Some(0), "--allow all silences everything");

    let out = Command::new(env!("CARGO_BIN_EXE_tit-lint"))
        .args([&base[..], &["--format", "json"]].concat())
        .output()
        .unwrap();
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(json.starts_with("{\"tool\":\"tit-lint\""), "{json}");
    assert!(json.contains("\"code\":\"TL0013\""), "{json}");
    assert!(json.contains("\"severity\":\"warning\""), "{json}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_usage_errors_exit_two() {
    let (code, _) = run_code(env!("CARGO_BIN_EXE_tit-lint"), &["--np", "2"]);
    assert_eq!(code, Some(2), "missing --trace-dir");
    let (code, stderr) = run_code(
        env!("CARGO_BIN_EXE_tit-lint"),
        &["--trace-dir", "/tmp", "--np", "2", "--allow", "TL9999"],
    );
    assert_eq!(code, Some(2), "unknown lint code; stderr:\n{stderr}");
    let (code, _) = run_code(
        env!("CARGO_BIN_EXE_tit-lint"),
        &["--trace-dir", "/tmp", "--np", "2", "--format", "yaml"],
    );
    assert_eq!(code, Some(2), "unknown format");
}

#[test]
fn calibrate_prints_a_platform_snippet() {
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-calibrate"),
        &["--np", "4", "--class", "S", "--runs", "2"],
    );
    assert!(ok, "tit-calibrate failed:\n{text}");
    assert!(text.contains("calibrated power"), "{text}");
    assert!(text.contains("<cluster"), "{text}");
    assert!(text.contains("segment 3"), "{text}");
}

#[test]
fn observability_outputs_are_reproducible_and_well_formed() {
    let traces = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/ring4");
    let dir = std::env::temp_dir().join(format!("titr-cliobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let replay = |tag: &str| -> (String, String, String, String) {
        let timeline = dir.join(format!("timeline-{tag}.json"));
        let timed = dir.join(format!("timed-{tag}.csv"));
        let profile = dir.join(format!("profile-{tag}.json"));
        let metrics = dir.join(format!("metrics-{tag}.json"));
        let (ok, text) = run(
            env!("CARGO_BIN_EXE_tit-replay"),
            &[
                "--trace-dir", traces.to_str().unwrap(), "--np", "4", "--lint",
                "--timeline", timeline.to_str().unwrap(),
                "--timed-trace", timed.to_str().unwrap(),
                "--profile", profile.to_str().unwrap(),
                "--metrics", metrics.to_str().unwrap(),
            ],
        );
        assert!(ok, "tit-replay failed:\n{text}");
        assert!(text.contains("timeline:"), "{text}");
        assert!(text.contains("metrics:"), "{text}");
        (
            std::fs::read_to_string(&timeline).unwrap(),
            std::fs::read_to_string(&timed).unwrap(),
            std::fs::read_to_string(&profile).unwrap(),
            std::fs::read_to_string(&metrics).unwrap(),
        )
    };
    let a = replay("a");
    let b = replay("b");
    assert_eq!(a, b, "identical replays must produce byte-identical outputs");

    let (timeline, timed, profile, metrics) = a;
    assert!(timeline.starts_with("{\"traceEvents\":["));
    assert_eq!(timeline.matches('{').count(), timeline.matches('}').count());
    assert!(timeline.contains("\"ph\":\"X\""));
    assert!(timed.starts_with("rank,action,start,end,volume"));
    assert!(profile.contains("\"schema\":\"titobs-profile-v1\""));
    assert!(metrics.contains("\"schema\":\"titobs-metrics-v1\""));
    assert!(metrics.contains("\"replay.ops\":36"), "{metrics}");
    assert!(metrics.contains("\"lint.findings\":0"), "{metrics}");
    assert!(metrics.contains("\"replay.simulated_time\""), "{metrics}");

    // tit-profile re-aggregates the timed CSV into the same shape of
    // profile (values match up to the CSV's 9-decimal rounding).
    let reprofiled = dir.join("reprofiled.json");
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-profile"),
        &[
            "--input", dir.join("timed-a.csv").to_str().unwrap(),
            "--format", "json", "--out", reprofiled.to_str().unwrap(),
        ],
    );
    assert!(ok, "tit-profile failed:\n{text}");
    let rp = std::fs::read_to_string(&reprofiled).unwrap();
    assert!(rp.contains("\"schema\":\"titobs-profile-v1\""), "{rp}");
    assert!(rp.contains("\"num_ranks\":4"), "{rp}");
    assert!(rp.contains("\"total_ops\":36"), "{rp}");
    assert!(profile.contains("\"total_ops\":36"), "{profile}");

    // Bare --profile still prints the text table.
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-replay"),
        &["--trace-dir", traces.to_str().unwrap(), "--np", "4", "--profile"],
    );
    assert!(ok, "tit-replay --profile failed:\n{text}");
    assert!(text.contains("compute(s)"), "{text}");
    assert!(text.contains(" sum "), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Exit-code contract: 0 success, 1 runtime failure, 2 usage error,
/// 3 partial success — exercised end to end through the binary,
/// together with checkpoint/resume and degraded mode.
#[test]
fn exit_codes_cover_success_runtime_usage_and_partial() {
    let traces = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/ring4");
    let dir = std::env::temp_dir().join(format!("titr-cliexit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bin = env!("CARGO_BIN_EXE_tit-replay");
    let s = |p: &PathBuf| p.to_str().unwrap().to_owned();

    // Exit 0: a clean uninterrupted replay (the reference run).
    let ref_csv = dir.join("ref.csv");
    let ref_paje = dir.join("ref.paje");
    let out = Command::new(bin)
        .args(["--trace-dir", traces.to_str().unwrap(), "--np", "4",
               "--timed-trace", &s(&ref_csv), "--paje", &s(&ref_paje)])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let ref_stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let sim_line = ref_stdout.lines().find(|l| l.starts_with("simulated time:")).unwrap().to_owned();

    // Exit 1: runtime failure (missing trace directory).
    let (code, _) = run_code(bin, &["--trace-dir", "/definitely/not/here", "--np", "2"]);
    assert_eq!(code, Some(1));

    // Exit 2: usage errors — conflicting and incomplete robustness flags.
    let ck = dir.join("ck.tick");
    for bad in [
        vec!["--degraded", "--checkpoint", "/tmp/x.tick"],
        vec!["--checkpoint", "/tmp/x.tick", "--jobs", "2"],
        vec!["--checkpoint-every", "5"],
        vec!["--degraded", "--lint"],
        vec!["--network", "bogus"],
        // A budget must be a finite number of seconds.
        vec!["--checkpoint", "/tmp/x.tick", "--max-wall", "inf"],
        vec!["--checkpoint", "/tmp/x.tick", "--max-wall", "-1"],
    ] {
        let mut argv = vec!["--trace-dir", traces.to_str().unwrap(), "--np", "4"];
        argv.extend(bad.iter().copied());
        let (code, stderr) = run_code(bin, &argv);
        assert_eq!(code, Some(2), "argv {bad:?} must be a usage error; stderr:\n{stderr}");
    }
    // A budget longer than the clock can hold never expires: the run
    // replays every action of the uninterrupted one.
    let out = Command::new(bin)
        .args(["--trace-dir", traces.to_str().unwrap(), "--np", "4",
               "--checkpoint", &s(&dir.join("huge.tick")), "--max-wall", "1e20"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "{text}{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("actions replayed: 36\n") && text.contains(&sim_line), "{text}");

    // tit-analyze shares the platform and model flags, and their errors:
    // an unknown model name, zero nodes and a misspelled flag exit 2
    // naming the flag; a deployment host the platform lacks and an
    // interconnect to a cluster the platform lacks exit 1 with a
    // one-line diagnostic.
    let stray = dir.join("stray-deploy.xml");
    let hosts: Vec<String> = (0..4).map(|i| format!("nowhere-{i}")).collect();
    std::fs::write(&stray, Deployment::round_robin(&hosts, 4).to_xml_string()).unwrap();
    let stray = s(&stray);
    let mut wan = PlatformDesc::single(presets::bordereau_one_core(4));
    wan.wan.push(WanLink { from: "bordereau".into(), to: "moon".into(), bw: 1e9, lat: 1e-3 });
    let moon = dir.join("moon-platform.xml");
    std::fs::write(&moon, wan.to_xml_string()).unwrap();
    let moon = s(&moon);
    for b in [bin, env!("CARGO_BIN_EXE_tit-analyze")] {
        for (extra, code_want, needle) in [
            (["--network", "bogus"], 2, "--network: unknown value \"bogus\""),
            (["--nodes", "0"], 2, "--nodes: must be at least 1"),
            (["--netwrok", "flow"], 2, "unknown flag --netwrok"),
            (["--deploy", stray.as_str()], 1, "bad deployment file: deployment host \"nowhere-0\""),
            (["--platform", moon.as_str()], 1, "bad platform file: xml error: interconnect"),
        ] {
            let mut argv = vec!["--trace-dir", traces.to_str().unwrap(), "--np", "4"];
            argv.extend(extra);
            let (code, stderr) = run_code(b, &argv);
            assert_eq!(code, Some(code_want), "{b} {extra:?}:\n{stderr}");
            assert!(stderr.starts_with(needle), "{b} {extra:?}:\n{stderr}");
            let lines = if code_want == 2 { 2 } else { 1 };
            assert_eq!(stderr.lines().count(), lines, "{b} {extra:?}:\n{stderr}");
            if code_want == 2 {
                assert!(stderr.contains("\nusage: "), "{b}: the usage line must follow:\n{stderr}");
            }
        }
    }

    // Exit 3 (partial): a deterministic mid-run pause after the first
    // checkpoint, then a resume that lands on the identical simulated
    // time — and whose timed trace continues the paused one so that
    // prefix + suffix reproduce the uninterrupted CSV byte-for-byte.
    // Their Paje traces hold exactly the reference run's states.
    let part_a = dir.join("part-a.csv");
    let paje_a = dir.join("part-a.paje");
    let out = Command::new(bin)
        .args(["--trace-dir", traces.to_str().unwrap(), "--np", "4",
               "--checkpoint", &s(&ck), "--checkpoint-every", "5",
               "--stop-after-checkpoints", "1", "--timed-trace", &s(&part_a),
               "--paje", &s(&paje_a)])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(3), "pause is a partial success:\n{text}");
    assert!(text.contains("paused:"), "{text}");
    assert!(ck.exists(), "checkpoint file must exist");

    let part_b = dir.join("part-b.csv");
    let paje_b = dir.join("part-b.paje");
    let metrics = dir.join("resume-metrics.json");
    let out = Command::new(bin)
        .args(["--trace-dir", traces.to_str().unwrap(), "--np", "4",
               "--resume", &s(&ck), "--timed-trace", &s(&part_b),
               "--metrics", &s(&metrics), "--paje", &s(&paje_b)])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "resumed run finishes:\n{text}");
    assert!(text.contains(&sim_line), "resume must land on the reference time:\n{text}\nvs {sim_line}");
    let a = std::fs::read_to_string(&part_a).unwrap();
    let b = std::fs::read_to_string(&part_b).unwrap();
    let (hdr, b_rows) = b.split_once('\n').unwrap();
    assert_eq!(hdr, "rank,action,start,end,volume");
    let stitched = format!("{a}{b_rows}");
    assert_eq!(stitched, std::fs::read_to_string(&ref_csv).unwrap(),
        "paused + resumed timed traces must stitch into the reference");
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"checkpoint.resume\":1"), "{m}");
    // The `4 …` state lines of some Paje files, as a sorted multiset.
    let states = |paths: &[&PathBuf]| {
        let mut lines = Vec::new();
        for p in paths {
            let text = std::fs::read_to_string(p).unwrap();
            lines.extend(text.lines().filter(|l| l.starts_with("4 ")).map(str::to_owned));
        }
        lines.sort();
        lines
    };
    let reference = states(&[&ref_paje]);
    assert_eq!(reference.len(), 72, "two state lines per operation");
    assert_eq!(states(&[&paje_a, &paje_b]), reference,
        "paused + resumed Paje states must be the reference run's");

    // Exit 3 (degraded): damage the bundle — truncate one rank mid-line
    // and delete another — and replay what's left.
    let damaged = dir.join("damaged");
    std::fs::create_dir_all(&damaged).unwrap();
    for r in 0..4 {
        let name = format!("SG_process{r}.trace");
        std::fs::copy(traces.join(&name), damaged.join(&name)).unwrap();
    }
    let victim = damaged.join("SG_process2.trace");
    let body = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &body[..body.len() / 2]).unwrap();
    std::fs::remove_file(damaged.join("SG_process3.trace")).unwrap();
    let dmetrics = dir.join("degraded-metrics.json");
    let dpaje = dir.join("degraded.paje");
    let out = Command::new(bin)
        .args(["--trace-dir", damaged.to_str().unwrap(), "--np", "4",
               "--degraded", "--metrics", &s(&dmetrics), "--paje", &s(&dpaje)])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(3), "damaged bundle is partial:\n{text}");
    assert!(text.contains("completeness:"), "{text}");
    assert!(!text.contains("completeness:     1.000000"), "ratio must drop:\n{text}");
    let m = std::fs::read_to_string(&dmetrics).unwrap();
    assert!(m.contains("\"degraded.ranks_stubbed\":1"), "{m}");
    assert!(m.contains("\"degraded.completeness\":"), "{m}");
    assert!(m.contains("\"degraded.rank3\":\"missing-file"), "{m}");
    let dp = std::fs::read_to_string(&dpaje).unwrap();
    assert!(dp.starts_with("%EventDef") && dp.contains("\n4 "), "degraded Paje trace:\n{dp}");

    // Degraded mode on an undamaged bundle: complete, exit 0.
    let out = Command::new(bin)
        .args(["--trace-dir", traces.to_str().unwrap(), "--np", "4", "--degraded"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "undamaged input stays exit 0:\n{text}");
    assert!(text.contains("completeness:     1.000000"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--kernel` and `--kernel-profile` apply in every mode: a reference
/// run paused at its first checkpoint still writes its (partial)
/// kernel profile, with no partial solves, in the checked schema.
#[test]
fn paused_reference_run_writes_its_kernel_profile() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let traces = root.join("examples/traces/ring4");
    let dir = std::env::temp_dir().join(format!("titr-clikprof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck");
    let kp = dir.join("kp.json");
    let (code, stderr) = run_code(
        env!("CARGO_BIN_EXE_tit-replay"),
        &[
            "--trace-dir", traces.to_str().unwrap(), "--np", "4", "--kernel", "reference",
            "--checkpoint", ck.to_str().unwrap(), "--checkpoint-every", "5",
            "--stop-after-checkpoints", "1", "--kernel-profile", kp.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(3), "pause is a partial success:\n{stderr}");
    let profile = std::fs::read_to_string(&kp).unwrap();
    assert!(profile.contains("\"partial_solves\":0"), "{profile}");
    let check = Command::new("python3")
        .arg(root.join("scripts/check_telemetry.py"))
        .args(["--kprof", kp.to_str().unwrap()])
        .output()
        .expect("spawn python3");
    assert!(check.status.success(), "{}", String::from_utf8_lossy(&check.stderr));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The Paje output of the bundled ring is byte-identical to the file
/// the build before Paje became an observer sink wrote, with
///
/// ```text
/// tit-replay --trace-dir examples/traces/ring4 --np 4 --paje ring4.paje
/// ```
#[test]
fn paje_trace_matches_the_golden_file() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let traces = root.join("../../examples/traces/ring4");
    let dir = std::env::temp_dir().join(format!("titr-clipaje-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let paje = dir.join("ring4.paje");
    let (code, stderr) = run_code(
        env!("CARGO_BIN_EXE_tit-replay"),
        &["--trace-dir", traces.to_str().unwrap(), "--np", "4", "--paje", paje.to_str().unwrap()],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let golden = std::fs::read(root.join("tests/fixtures/ring4.paje")).unwrap();
    assert!(std::fs::read(&paje).unwrap() == golden, "Paje trace differs from the golden file");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `tit-stats --trace-dir` reads exactly ranks `0..--np`: fewer ranks
/// than the directory holds are counted as asked, a missing rank file
/// exits 1 naming the rank, and a missing `--np` is a usage error.
#[test]
fn stats_loads_exactly_np_ranks() {
    let traces = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/ring4");
    let dir = traces.to_str().unwrap();
    let bin = env!("CARGO_BIN_EXE_tit-stats");
    let (ok, text) = run(bin, &["--trace-dir", dir, "--np", "2"]);
    assert!(ok, "{text}");
    assert!(text.contains("processes:        2\n"), "{text}");
    let (code, stderr) = run_code(bin, &["--trace-dir", dir, "--np", "8"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("rank 4"), "the missing rank is named: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    let (code, stderr) = run_code(bin, &["--trace-dir", dir]);
    assert_eq!(code, Some(2), "{stderr}");
}

/// `tit-diff` reads each side as the replayer does: a line moved into
/// another rank's file is a damaged set (exit 1, naming the rank), not
/// an identical one.
#[test]
fn diff_refuses_a_line_filed_under_another_rank() {
    let a = write_traces("diffa", &["p0 compute 1\np0 compute 5\n", "p1 compute 2\n"]);
    let b = write_traces("diffb", &["p0 compute 1\n", "p1 compute 2\np0 compute 5\n"]);
    let bin = env!("CARGO_BIN_EXE_tit-diff");
    let (ok, text) = run(bin, &["--a", a.to_str().unwrap(), "--b", a.to_str().unwrap()]);
    assert!(ok && text.contains("IDENTICAL: 2 processes, 3 actions"), "{text}");
    let (code, stderr) = run_code(bin, &["--a", a.to_str().unwrap(), "--b", b.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("rank 1"), "the damaged rank is named: {stderr}");
    assert!(stderr.contains("trace line for p0 in p1's file"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    let empty = write_traces("diffnone", &[]);
    let (code, stderr) =
        run_code(bin, &["--a", a.to_str().unwrap(), "--b", empty.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("no SG_process0.trace"), "{stderr}");
    for d in [a, b, empty] {
        std::fs::remove_dir_all(&d).unwrap();
    }
}

/// The `tit-serve` binary, which the serve crate builds next to this
/// crate's binaries (`cargo test --workspace` builds both).
fn tit_serve() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_BIN_EXE_tit-replay")).with_file_name("tit-serve");
    assert!(path.exists(), "{} is not built: run cargo build -p tit-serve", path.display());
    path
}

/// `tit-stats --validate` reports titlint's error findings: a request
/// never waited is TL0008, exit 1.
#[test]
fn stats_validate_prints_the_error_findings() {
    let dir = write_traces("statsval", &["p0 Irecv p1\n", "p1 send p0 100\n"]);
    let out = Command::new(env!("CARGO_BIN_EXE_tit-stats"))
        .args(["--trace-dir", dir.to_str().unwrap(), "--np", "2", "--validate"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("validation:       1 error(s)"), "{stdout}");
    assert!(stdout.contains("error[TL0008]"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every binary reads its flags by its usage line. An unknown flag, a
/// value flag given no value, a bare flag given a word, a stray word
/// and a value the flag does not accept exit 2: a message line naming
/// the offending flag or word, then the usage line.
#[test]
fn every_binary_refuses_what_its_usage_line_does_not_allow() {
    let ring4 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/ring4");
    let ring4 = ring4.to_str().unwrap();
    let dir = std::env::temp_dir().join(format!("titr-cliusage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("out");
    let out = out.to_str().unwrap();
    let csv = dir.join("timed.csv");
    let csv = csv.to_str().unwrap();
    let serve = tit_serve();
    let serve = serve.to_str().unwrap();
    let table: &[(&str, &[&str], &str)] = &[
        (env!("CARGO_BIN_EXE_tit-acquire"), &["--out", out, "--np", "4", "--bogus", "1"], "--bogus"),
        (env!("CARGO_BIN_EXE_tit-acquire"), &["--np", "4", "--out"], "--out"),
        (env!("CARGO_BIN_EXE_tit-acquire"), &["--workload", "lu", "--np", "3", "--out", out], "--np"),
        (env!("CARGO_BIN_EXE_tit-acquire"), &["--np", "0", "--out", out], "--np"),
        (env!("CARGO_BIN_EXE_tit-acquire"), &["--mode", "F-0", "--out", out], "--mode"),
        (env!("CARGO_BIN_EXE_tit-acquire"), &["--workload", "ring", "--np", "1", "--out", out], "--np"),
        (env!("CARGO_BIN_EXE_tit-extract"), &["--tau", out, "--np", "4", "--out", out, "--binary"], "--binary"),
        (env!("CARGO_BIN_EXE_tit-extract"), &["--tau", out, "--np", "4", "--out", out, "--threads", "2"], "--threads"),
        (env!("CARGO_BIN_EXE_tit-extract"), &["--tau", out, "--np", "--out", out], "--np"),
        (env!("CARGO_BIN_EXE_tit-extract"), &["--tau", out, "--np", "4", "--out", out, "--arity", "0"], "--arity"),
        (env!("CARGO_BIN_EXE_tit-replay"), &["--trace-dir", ring4, "--np", "4", "--netwrok", "flow"], "--netwrok"),
        (
            env!("CARGO_BIN_EXE_tit-replay"),
            &["--trace-dir", ring4, "--np", "4", "--checkpoint", out, "--max-wall", "--checkpoint-every", "5"],
            "--max-wall",
        ),
        (env!("CARGO_BIN_EXE_tit-replay"), &["--trace-dir", ring4, "--np", "4", "--degraded", "yes"], "--degraded"),
        (env!("CARGO_BIN_EXE_tit-replay"), &["--trace-dir", ring4, "--np", "4", "--lint", "yes"], "--lint"),
        (env!("CARGO_BIN_EXE_tit-stats"), &["--trace-dir", ring4, "--np", "4", "--validte"], "--validte"),
        (env!("CARGO_BIN_EXE_tit-stats"), &["--trace-dir", ring4, "--np"], "--np"),
        (env!("CARGO_BIN_EXE_tit-stats"), &["--trace-dir", ring4, "--np", "4", "--validate", "yes"], "--validate"),
        (env!("CARGO_BIN_EXE_tit-stats"), &[ring4], ring4),
        (env!("CARGO_BIN_EXE_tit-calibrate"), &["--runs", "1", "--bogus"], "--bogus"),
        (env!("CARGO_BIN_EXE_tit-calibrate"), &["--runs"], "--runs"),
        (env!("CARGO_BIN_EXE_tit-calibrate"), &["--np", "3"], "--np"),
        (env!("CARGO_BIN_EXE_tit-calibrate"), &["--np", "0"], "--np"),
        (env!("CARGO_BIN_EXE_tit-calibrate"), &["--runs", "0"], "--runs"),
        (env!("CARGO_BIN_EXE_tit-diff"), &["--a", ring4, "--b", ring4, "--tolerence", "0.1"], "--tolerence"),
        (env!("CARGO_BIN_EXE_tit-diff"), &["--a", ring4, "--b"], "--b"),
        (env!("CARGO_BIN_EXE_tit-diff"), &["--a", ring4, "--b", ring4, "--coalesce", "yes"], "--coalesce"),
        (env!("CARGO_BIN_EXE_tit-lint"), &["--trace-dir", ring4, "--np", "4", "--bogus"], "--bogus"),
        (env!("CARGO_BIN_EXE_tit-lint"), &["--trace-dir", ring4, "--np", "4", "--allow"], "--allow"),
        (env!("CARGO_BIN_EXE_tit-lint"), &["--trace-dir", ring4, "--np", "4", "--deny-warnings", "yes"], "--deny-warnings"),
        (env!("CARGO_BIN_EXE_tit-profile"), &["--input", csv, "--fromat", "json"], "--fromat"),
        (env!("CARGO_BIN_EXE_tit-profile"), &["--input"], "--input"),
        (env!("CARGO_BIN_EXE_tit-analyze"), &["--trace-dir", ring4, "--np", "4", "--kernel", "reference"], "--kernel"),
        (env!("CARGO_BIN_EXE_tit-analyze"), &["--trace-dir", ring4, "--np", "4", "--json"], "--json"),
        (env!("CARGO_BIN_EXE_tit-gen"), &["--out", out, "--np", "4", "--pattern", "ring", "--iter", "10"], "--iter"),
        (env!("CARGO_BIN_EXE_tit-gen"), &["--out", out, "--np", "4", "--pattern"], "--pattern"),
        (env!("CARGO_BIN_EXE_tit-gen"), &["--out", out, "--np", "3", "--pattern", "lu"], "--np"),
        (serve, &["--addr", "127.0.0.1:0", "--worker", "4", "--drain-on-stdin"], "--worker"),
        (serve, &["--workers", "--drain-on-stdin"], "--workers"),
        (serve, &["--drain-on-stdin", "yes"], "--drain-on-stdin"),
    ];
    let mut binaries: Vec<&str> = table.iter().map(|&(bin, _, _)| bin).collect();
    binaries.dedup();
    assert_eq!(binaries.len(), 11, "every binary has rows");
    for &(bin, argv, named) in table {
        let name = std::path::Path::new(bin).file_name().unwrap().to_str().unwrap();
        let (code, stderr) = run_code(bin, argv);
        assert_eq!(code, Some(2), "{name} {argv:?}:\n{stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 2, "{name} {argv:?}:\n{stderr}");
        assert!(lines[0].contains(named), "{name} {argv:?} must name {named}:\n{stderr}");
        assert!(lines[1].starts_with(&format!("usage: {name} ")), "{name} {argv:?}:\n{stderr}");
    }
    assert!(!dir.exists(), "a refused run writes nothing");
}

#[test]
fn acquire_rejects_unknown_mode() {
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_tit-acquire"),
        &["--workload", "lu", "--np", "4", "--mode", "Q-3", "--out", "/tmp/x"],
    );
    assert!(!ok);
    assert!(text.contains("unknown acquisition mode"), "{text}");
}

/// Queued micro-ops and pending requests in one saved actor state
/// (the replay actor's checkpoint encoding).
fn queued_work(state: &[u8]) -> (usize, usize) {
    let mut d = tit_core::checkpoint::Dec::new(state);
    let (_rank, _nproc, _cursor) = (d.usize().unwrap(), d.usize().unwrap(), d.u64().unwrap());
    let micro = d.usize().unwrap();
    for _ in 0..micro {
        // Discriminant, then the op's fields: (peer,) (volume,) tag.
        match d.u8().unwrap() {
            0 => drop((d.f64(), d.u32())),
            1 | 3 | 5 => drop((d.usize(), d.f64(), d.u32())),
            2 | 4 | 6 => drop((d.usize(), d.u32())),
            7 => drop(d.u32()),
            8 => drop(d.usize()),
            k => panic!("unknown micro-op {k}"),
        }
    }
    (micro, d.usize().unwrap())
}

/// Writes a 4-rank trace whose ranks post a receive, compute for
/// different times and meet in an `allReduce`: a pause there finds
/// pending requests on every rank and queued collective micro-ops on
/// the ranks that arrived first.
fn write_posted_allreduce_trace(dir: &std::path::Path) {
    std::fs::create_dir_all(dir).unwrap();
    for r in 0..4 {
        let (left, right) = ((r + 3) % 4, (r + 1) % 4);
        let mut text = format!("p{r} comm_size 4\n");
        for _ in 0..3 {
            text += &format!(
                "p{r} Irecv p{left}\np{r} compute {}\np{r} allReduce 10000 100000\n\
                 p{r} Isend p{right} 10000\np{r} wait\np{r} wait\n",
                1_000_000 * (r + 1)
            );
        }
        std::fs::write(dir.join(format!("SG_process{r}.trace")), text).unwrap();
    }
}

/// A `TICK1` checkpoint written by an earlier build still resumes to
/// the uninterrupted run's simulated-time bits and action count. The
/// fixture holds queued collective micro-ops and pending non-blocking
/// requests, so it pins the actor state encoding. It was written by
/// the build before the single-cursor replay, on the trace of
/// [`write_posted_allreduce_trace`], with
///
/// ```text
/// tit-replay --trace-dir posted --np 4 --checkpoint posted-ar.tick \
///     --checkpoint-every 14 --stop-after-checkpoints 1
/// ```
#[test]
fn checkpoint_from_an_earlier_build_still_resumes() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/posted-ar.tick");
    let ck = tit_replay::ReplayCheckpoint::load(&fixture).unwrap();
    let work: Vec<(usize, usize)> =
        ck.engine.actors.iter().filter_map(|a| a.state.as_deref()).map(queued_work).collect();
    assert!(work.iter().any(|&(micro, _)| micro > 0), "no queued micro-op: {work:?}");
    assert!(work.iter().any(|&(_, req)| req > 0), "no pending request: {work:?}");

    let dir = std::env::temp_dir().join(format!("titr-clifixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("posted");
    write_posted_allreduce_trace(&traces);
    let replay = |extra: &[&str], metrics: &str| {
        let metrics = dir.join(metrics);
        let mut argv = vec!["--trace-dir", traces.to_str().unwrap(), "--np", "4"];
        argv.extend(extra);
        argv.extend(["--metrics", metrics.to_str().unwrap()]);
        let out = Command::new(env!("CARGO_BIN_EXE_tit-replay")).args(&argv).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let actions = stdout.lines().find(|l| l.starts_with("actions replayed:"));
        let actions = actions.unwrap().to_owned();
        let doc = tit_core::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let time = doc.get("values").and_then(|v| v.get("replay.simulated_time")).unwrap().as_f64();
        (time.unwrap().to_bits(), actions)
    };
    let uninterrupted = replay(&[], "full.json");
    let resumed = replay(&["--resume", fixture.to_str().unwrap()], "resumed.json");
    assert_eq!(resumed, uninterrupted);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// tit-replay's optional flags, each with a valid value and the flags it
/// needs: `STORE`, `PLATFORM` and `DEPLOY` name the inputs of
/// [`every_pair_of_replay_flags_runs_or_is_refused_naming_both`], `@`
/// the run's output directory and `CK` a checkpoint to resume. The bool
/// marks flags that change what a checkpoint binds to.
const REPLAY_FLAGS: [(&str, &[&str], bool); 25] = [
    ("store", &["--store", "STORE"], true),
    ("mem-budget", &["--store", "STORE", "--mem-budget", "1M"], true),
    ("platform", &["--platform", "PLATFORM"], true),
    ("deploy", &["--deploy", "DEPLOY"], true),
    ("nodes", &["--nodes", "2"], true),
    ("collectives", &["--collectives", "flat"], true),
    ("network", &["--network", "flow"], true),
    ("kernel", &["--kernel", "reference"], true),
    ("timed-trace", &["--timed-trace", "@/timed.csv"], false),
    ("timeline", &["--timeline", "@/timeline.json"], false),
    ("profile", &["--profile", "@/profile.json"], false),
    ("metrics", &["--metrics", "@/metrics.json"], false),
    ("time-resolved", &["--time-resolved", "@/tr.json"], false),
    ("time-resolved-csv", &["--time-resolved-csv", "@/tr.csv"], false),
    ("window", &["--time-resolved", "@/trw.json", "--window", "0.001"], false),
    ("kernel-profile", &["--kernel-profile", "@/kp.json"], false),
    ("paje", &["--paje", "@/run.paje"], false),
    ("lint", &["--lint"], false),
    ("jobs", &["--jobs", "2"], false),
    ("checkpoint", &["--checkpoint", "@/ck"], false),
    ("checkpoint-every", &["--checkpoint", "@/ck", "--checkpoint-every", "5"], false),
    ("resume", &["--resume", "CK"], false),
    ("max-wall", &["--checkpoint", "@/ck", "--max-wall", "60"], false),
    ("stop-after-checkpoints", &["--checkpoint", "@/ck", "--stop-after-checkpoints", "1"], false),
    ("degraded", &["--degraded"], false),
];

/// The pairs of [`REPLAY_FLAGS`] that tit-replay refuses; every other
/// pair runs.
const REFUSED_PAIRS: [(&str, &str); 16] = [
    ("degraded", "checkpoint"),
    ("degraded", "checkpoint-every"),
    ("degraded", "resume"),
    ("degraded", "max-wall"),
    ("degraded", "stop-after-checkpoints"),
    ("degraded", "lint"),
    ("jobs", "checkpoint"),
    ("jobs", "checkpoint-every"),
    ("jobs", "resume"),
    ("jobs", "max-wall"),
    ("jobs", "stop-after-checkpoints"),
    ("jobs", "degraded"),
    ("jobs", "store"),
    ("jobs", "mem-budget"),
    ("lint", "store"),
    ("lint", "mem-budget"),
];

/// Every pair of tit-replay's optional flags on ring4 (on a ring4 store
/// when a flag needs `--store`): a pair in [`REFUSED_PAIRS`] exits 2
/// with a message line naming both flags followed by the usage line;
/// every other pair runs, exiting 0 or 3. A resumed pair resumes a
/// checkpoint taken with the other flag, so that it binds to the same
/// platform, model and input.
#[test]
fn every_pair_of_replay_flags_runs_or_is_refused_naming_both() {
    let bin = env!("CARGO_BIN_EXE_tit-replay");
    let traces = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/ring4");
    let dir = std::env::temp_dir().join(format!("titr-clipairs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("ring4.tib2");
    let compact = tit_core::load_compact_exact(&traces, 4, 1).unwrap();
    tit_core::tib2::write_compact_atomic(&store, &compact, 8).unwrap();
    let desc = PlatformDesc::single(presets::bordereau_one_core(4));
    let platform = dir.join("platform.xml");
    std::fs::write(&platform, desc.to_xml_string()).unwrap();
    let deploy = dir.join("deploy.xml");
    let two_hosts = Deployment::round_robin(&desc.host_names()[..2], 4);
    std::fs::write(&deploy, two_hosts.to_xml_string()).unwrap();

    // The argv of one run: the input, then each flag's arguments.
    let argv = |flags: &[&[&str]], out: &PathBuf, ck: &PathBuf| -> Vec<String> {
        let args: Vec<String> = flags
            .iter()
            .flat_map(|f| f.iter())
            .map(|a| match *a {
                "STORE" => store.to_str().unwrap().to_owned(),
                "PLATFORM" => platform.to_str().unwrap().to_owned(),
                "DEPLOY" => deploy.to_str().unwrap().to_owned(),
                "CK" => ck.to_str().unwrap().to_owned(),
                a => a.replace('@', out.to_str().unwrap()),
            })
            .collect();
        let mut v = Vec::new();
        if !args.iter().any(|a| a == "--store") {
            v.extend(["--trace-dir", traces.to_str().unwrap(), "--np", "4"].map(String::from));
        }
        v.extend(args);
        v
    };
    let run = |argv: &[String]| {
        let out = Command::new(bin).args(argv).output().expect("spawn tit-replay");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let pause: &[&str] =
        &["--checkpoint", "CK", "--checkpoint-every", "5", "--stop-after-checkpoints", "1"];
    let default_ck = dir.join("default.tick");
    let (code, stderr) = run(&argv(&[pause], &dir, &default_ck));
    assert_eq!(code, Some(3), "{stderr}");

    let mut pairs = 0;
    for (i, &(a, a_args, a_binds)) in REPLAY_FLAGS.iter().enumerate() {
        for &(b, b_args, b_binds) in &REPLAY_FLAGS[i + 1..] {
            let out = dir.join(format!("{a}+{b}"));
            std::fs::create_dir_all(&out).unwrap();
            // A resume reads a checkpoint of the other flag's run.
            let mut ck = default_ck.clone();
            let other = match (a, b) {
                ("resume", _) => Some((b_args, b_binds)),
                (_, "resume") => Some((a_args, a_binds)),
                _ => None,
            };
            if let Some((other, true)) = other {
                ck = out.join("taken.tick");
                let (code, stderr) = run(&argv(&[other, pause], &out, &ck));
                assert_eq!(code, Some(3), "checkpoint for {a}+{b}: {stderr}");
            }
            let (code, stderr) = run(&argv(&[a_args, b_args], &out, &ck));
            let refused = REFUSED_PAIRS.iter().any(|&p| p == (a, b) || p == (b, a));
            if refused {
                assert_eq!(code, Some(2), "--{a} --{b} must be refused:\n{stderr}");
                let lines: Vec<&str> = stderr.lines().collect();
                assert_eq!(lines.len(), 2, "--{a} --{b}:\n{stderr}");
                let named: Vec<&str> = lines[0]
                    .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .collect();
                for flag in [format!("--{a}"), format!("--{b}")] {
                    assert!(named.contains(&flag.as_str()), "--{a} --{b}: {}", lines[0]);
                }
                assert!(lines[1].starts_with("usage: tit-replay"), "{stderr}");
            } else {
                assert!(matches!(code, Some(0 | 3)), "--{a} --{b} must run ({code:?}):\n{stderr}");
            }
            pairs += 1;
        }
    }
    assert_eq!(pairs, 25 * 24 / 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
