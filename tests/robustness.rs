//! Failure injection: corrupted inputs must produce *typed* errors
//! naming the failing rank/file/line — never panics, hangs or wrong
//! results. Faults are injected deterministically from a seed through
//! [`titr::extract::faultinject`], so every scenario here reproduces.

use titr::emul::acquisition::{acquire, AcquisitionMode};
use titr::emul::runtime::EmulConfig;
use titr::extract::error::{with_retry, PipelineError, RetryPolicy};
use titr::extract::faultinject::{inject, Fault, FaultSpec, Injector};
use titr::extract::gather::{bundle, unbundle};
use titr::extract::tau2ti;
use titr::npb::ring::RingConfig;
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::{Input, Replay, ReplayConfig, ReplayError};
use titr::simkern::resource::HostId;
use titr::simkern::{OpKind, SimError};

fn work(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("titr-rob-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Writes a small, well-formed per-rank trace set under `dir`.
fn write_ranks(dir: &std::path::Path, nproc: usize) -> Vec<std::path::PathBuf> {
    (0..nproc)
        .map(|r| {
            let p = dir.join(titr::trace::trace::process_trace_filename(r));
            std::fs::write(&p, format!("p{r} compute 1e6\np{r} compute 2e6\np{r} barrier\n"))
                .unwrap();
            p
        })
        .collect()
}

#[test]
fn truncated_tau_trace_fails_extraction_cleanly() {
    let dir = work("taucut");
    let tau = dir.join("tau");
    let ring = RingConfig { nproc: 4, iters: 4, ..Default::default() };
    acquire(&ring.program(), 4, AcquisitionMode::Regular, &EmulConfig::default(), &tau)
        .unwrap();
    // Chop rank 2's trace mid-record.
    let victim = tau.join(titr::tau::trace_filename(2));
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 10]).unwrap();
    let err = tau2ti(&tau, 4, &dir.join("ti"), 1).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("truncated") || msg.contains("record"),
        "diagnostic should mention truncation: {msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An edf that does not belong to its trace breaks the tracer's
/// record pairing: with rank 0's event table, rank 1's trace maps an
/// `MPI_Send` state to `MPI_Recv` and back. Extraction fails naming
/// rank 1's trace and the record, at every worker count.
#[test]
fn unpaired_tau_records_fail_extraction_naming_the_rank() {
    let dir = work("tauswap");
    let tau = dir.join("tau");
    let ring = RingConfig { nproc: 4, iters: 4, ..Default::default() };
    acquire(&ring.program(), 4, AcquisitionMode::Regular, &EmulConfig::default(), &tau)
        .unwrap();
    let edf = |rank| tau.join(titr::tau::edf_filename(rank));
    std::fs::copy(edf(0), edf(1)).unwrap();
    for jobs in [1, 2] {
        let err = tau2ti(&tau, 4, &dir.join("ti"), jobs).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        let trc = titr::tau::trace_filename(1);
        assert!(msg.starts_with("rank 1: ") && msg.contains(&trc), "{msg}");
        assert!(msg.contains("record"), "{msg}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With two damaged ranks, the error is the lowest one's, whatever the
/// worker count, and names its file.
#[test]
fn extraction_reports_the_lowest_failing_rank_at_every_worker_count() {
    let dir = work("taulow");
    let tau = dir.join("tau");
    let ring = RingConfig { nproc: 4, iters: 4, ..Default::default() };
    acquire(&ring.program(), 4, AcquisitionMode::Regular, &EmulConfig::default(), &tau)
        .unwrap();
    let trc = tau.join(titr::tau::trace_filename(1));
    let bytes = std::fs::read(&trc).unwrap();
    std::fs::write(&trc, &bytes[..bytes.len() - 10]).unwrap();
    std::fs::remove_file(tau.join(titr::tau::edf_filename(3))).unwrap();
    for jobs in [1, 2, 4] {
        let msg = tau2ti(&tau, 4, &dir.join("ti"), jobs).unwrap_err().to_string();
        let want = format!("rank 1: {}: truncated record", trc.display());
        assert!(msg.starts_with(&want), "--jobs {jobs}: {msg}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bitflipped_tau_trace_is_detected_or_extracted_without_panic() {
    let dir = work("tauflip");
    let tau = dir.join("tau");
    let ring = RingConfig { nproc: 4, iters: 4, ..Default::default() };
    acquire(&ring.program(), 4, AcquisitionMode::Regular, &EmulConfig::default(), &tau)
        .unwrap();
    // A seeded single-bit flip in rank 1's binary trace. Depending on
    // where the bit lands the extractor may error or still succeed
    // (benign flip) — both are acceptable; a panic would fail the test.
    Injector::new(0x5EED).flip_bit(&tau.join(titr::tau::trace_filename(1))).unwrap();
    let _ = tau2ti(&tau, 4, &dir.join("ti"), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_wait_in_trace_is_caught_by_validation() {
    let text = "p0 Irecv p1\np1 send p0 100\n";
    let trace = titr::trace::TiTrace::from_reader(text.as_bytes()).unwrap();
    let report = titr::lint::analyze(&trace);
    assert!(
        report.findings.iter().any(|f| f.code == titr::lint::LintCode::DanglingRequests),
        "the analyzer must flag the dangling request:\n{}",
        report.render_text()
    );
    assert!(report.has_errors());
}

#[test]
fn replaying_a_mismatched_trace_reports_deadlock_not_hang() {
    let dir = work("mismatch");
    // p0 expects a message p1 never sends.
    let mut t = titr::trace::TiTrace::new(2);
    t.push(0, titr::trace::Action::Recv { src: 1, bytes: None });
    t.push(1, titr::trace::Action::Compute { flops: 10.0 });
    t.save_per_process(&dir).unwrap();
    let platform = PlatformDesc::single(presets::bordereau_one_core(2)).build();
    let hosts: Vec<HostId> = (0..2).map(HostId).collect();
    let err = Replay::new(Input::files(&dir, 2), platform, &hosts, &ReplayConfig::default())
        .run()
        .unwrap_err();
    match &err {
        ReplayError::Sim(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(blocked.len(), 1, "only p0 is stuck: {blocked:?}");
            assert_eq!(blocked[0].actor, 0);
            assert_eq!(blocked[0].kind, Some(OpKind::Recv));
        }
        e => panic!("expected a deadlock report, got {e}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("p0") && msg.contains("recv"), "diagnostic names the waiter: {msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_trace_lines_are_rejected_with_line_numbers() {
    let dir = work("garbage");
    std::fs::write(dir.join("SG_process0.trace"), "p0 compute 5\np0 flarb 12\n").unwrap();
    let platform = PlatformDesc::single(presets::bordereau_one_core(1)).build();
    let err = Replay::new(Input::files(&dir, 1), platform, &[HostId(0)], &ReplayConfig::default())
        .run()
        .unwrap_err();
    match &err {
        ReplayError::Trace { rank, .. } => assert_eq!(*rank, 0),
        e => panic!("expected a trace error for rank 0, got {e}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("SG_process0.trace"), "names the file: {msg}");
    assert!(msg.contains("line 2"), "names the line: {msg}");
    assert!(msg.contains("flarb"), "names the keyword: {msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_rank_file_is_a_structured_error_not_a_hang() {
    let dir = work("droprank");
    write_ranks(&dir, 4);
    // Rank 2's file never arrived at the simulation node.
    Injector::new(3).drop_rank(&dir, 2).unwrap();
    let platform = PlatformDesc::single(presets::bordereau_one_core(4)).build();
    let hosts: Vec<HostId> = (0..4).map(HostId).collect();
    let err = Replay::new(Input::files(&dir, 4), platform, &hosts, &ReplayConfig::default())
        .run()
        .unwrap_err();
    match &err {
        ReplayError::MissingRank { rank, path, .. } => {
            assert_eq!(*rank, 2);
            assert!(path.to_string_lossy().contains("SG_process2"), "{path:?}");
        }
        e => panic!("expected MissingRank, got {e}"),
    }
    assert_eq!(err.rank(), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_injected_bundle_roundtrip_reports_typed_errors() {
    let dir = work("bundlefi");
    let files = write_ranks(&dir, 4);
    let bpath = dir.join("traces.bundle");

    // Healthy round trip first: the baseline must work.
    bundle(&files, &bpath).unwrap();
    let restored = unbundle(&bpath, &dir.join("ok")).unwrap();
    assert_eq!(restored.len(), 4);

    // (a) Corrupt manifest: the first header's size field is damaged
    // (a bit-flip in flight turning a digit into a letter).
    let mut bytes = std::fs::read(&bpath).unwrap();
    let eol = bytes.iter().position(|&b| b == b'\n').unwrap();
    bytes[eol - 1] = b'x';
    let corrupt = dir.join("corrupt.bundle");
    std::fs::write(&corrupt, &bytes).unwrap();
    match unbundle(&corrupt, &dir.join("outa")).unwrap_err() {
        PipelineError::Bundle { path, detail, .. } => {
            assert_eq!(path, corrupt);
            assert!(
                detail.contains("manifest") || detail.contains("size"),
                "diagnoses the manifest: {detail}"
            );
        }
        e => panic!("expected Bundle error, got {e}"),
    }

    // (b) Short gather transfer: the bundle is cut mid-entry.
    let cut = dir.join("cut.bundle");
    std::fs::copy(&bpath, &cut).unwrap();
    let fault = Injector::new(11).short_transfer(&cut).unwrap();
    assert!(matches!(fault, Fault::ShortTransfer { .. }));
    match unbundle(&cut, &dir.join("outb")).unwrap_err() {
        PipelineError::Bundle { detail, .. } => assert!(
            detail.contains("truncated") || detail.contains("END marker"),
            "diagnoses the short transfer: {detail}"
        ),
        e => panic!("expected Bundle error, got {e}"),
    }

    // (c) Duplicate rank: the same file gathered twice.
    let dup = dir.join("dup.bundle");
    bundle(&[files[0].clone(), files[0].clone()], &dup).unwrap();
    match unbundle(&dup, &dir.join("outc")).unwrap_err() {
        PipelineError::Bundle { entry, detail, .. } => {
            assert_eq!(entry.as_deref(), Some("SG_process0.trace"));
            assert!(detail.contains("duplicate"), "{detail}");
        }
        e => panic!("expected Bundle error, got {e}"),
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_fault_injection_is_bit_for_bit_reproducible() {
    let spec = FaultSpec { seed: 0xC0FFEE, truncate: 0.5, bit_flip: 0.5, drop_rank: 0.25 };
    let mut snapshots = Vec::new();
    for run in 0..2 {
        let dir = work(&format!("fi-repro{run}"));
        write_ranks(&dir, 8);
        let faults = inject(&dir, 8, &spec).unwrap();
        assert!(!faults.is_empty(), "these rates must inject something");
        // Snapshot the post-injection bytes of every rank file.
        let state: Vec<Option<Vec<u8>>> = (0..8)
            .map(|r| std::fs::read(dir.join(titr::trace::trace::process_trace_filename(r))).ok())
            .collect();
        snapshots.push(state);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "same seed, same inputs must damage the same bytes"
    );
}

#[test]
fn transient_gather_faults_recover_under_retry() {
    let dir = work("retry");
    let files = write_ranks(&dir, 3);
    let bpath = dir.join("traces.bundle");
    // The first two attempts hit an injected transient I/O fault; the
    // bounded backoff retries through it and the bundle round-trips.
    let flaky = titr::extract::faultinject::Flaky::new(2);
    let total = with_retry(&RetryPolicy::default(), "gather bundle", |_| {
        flaky.trip("bundle write")?;
        bundle(&files, &bpath)
    })
    .unwrap();
    assert!(total > 0);
    let restored = unbundle(&bpath, &dir.join("restored")).unwrap();
    assert_eq!(restored.len(), 3);

    // With an attempt budget smaller than the fault count, the typed
    // exhaustion error names the operation.
    let stubborn = titr::extract::faultinject::Flaky::new(10);
    let err = with_retry(&RetryPolicy { attempts: 2, ..Default::default() }, "gather bundle", |_| {
        stubborn.trip("bundle write")?;
        bundle(&files, &bpath)
    })
    .unwrap_err();
    match err {
        PipelineError::RetriesExhausted { what, attempts, .. } => {
            assert_eq!(what, "gather bundle");
            assert_eq!(attempts, 2);
        }
        e => panic!("expected RetriesExhausted, got {e}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_platform_xml_is_rejected() {
    for doc in [
        "<platform><cluster id='c'/></platform>", // missing attributes
        "<platform>",                              // unclosed
        "<nope/>",                                 // wrong root
    ] {
        assert!(
            PlatformDesc::from_xml_str(doc).is_err(),
            "must reject {doc:?}"
        );
    }
}

#[test]
fn corrupted_compressed_trace_never_panics() {
    let ring = RingConfig::default();
    let mut text = Vec::new();
    ring.trace().write_merged(&mut text).unwrap();
    let mut c = titr::trace::compress::compress(&text);
    for i in (0..c.len()).step_by(7) {
        let mut broken = c.clone();
        broken[i] ^= 0xFF;
        let _ = titr::trace::compress::decompress(&broken); // may Err, must not panic
    }
    c.truncate(c.len() / 2);
    assert!(titr::trace::compress::decompress(&c).is_err());
}
