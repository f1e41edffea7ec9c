//! Gathering the per-process traces onto a single node.
//!
//! "A common and efficient approach is to rely on a K-nomial tree
//! reduction allowing for `log_{K+1} N` steps, where `N` is the total
//! number of files, and `K` is the arity of the tree." (Section 4.3.)
//!
//! [`gather_plan`] builds the transfer schedule and its cost model (the
//! "Gathering" slice of Figure 7); [`bundle`]/[`unbundle`] physically
//! concatenate the trace files with a manifest, standing in for the
//! paper's gathering script.

use crate::error::{with_retry, PipelineError, RetryPolicy};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use tit_core::AtomicFile;

/// One transfer of the gathering schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Gathering step (0-based); transfers in a step run concurrently.
    pub step: usize,
    /// Sending node index.
    pub from: usize,
    /// Receiving node index.
    pub to: usize,
    /// Bytes moved (the sender's accumulated subtree).
    pub bytes: f64,
}

/// A full gathering schedule with its modelled duration.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherPlan {
    /// K-nomial arity of the tree.
    pub arity: usize,
    /// Number of gathering steps.
    pub steps: usize,
    /// Every transfer of the schedule.
    pub transfers: Vec<Transfer>,
    /// Modelled wall time: per step, the slowest receiver (its NIC
    /// serialises its children), summed over steps.
    pub time: f64,
}

/// Builds the K-nomial gathering of `sizes[i]` bytes from node `i` to
/// node 0, over links of `bw` bytes/s and `lat` seconds per transfer.
pub fn gather_plan(sizes: &[f64], arity: usize, bw: f64, lat: f64) -> GatherPlan {
    assert!(arity >= 1 && bw > 0.0);
    let n = sizes.len();
    let mut acc: Vec<f64> = sizes.to_vec();
    let mut transfers = Vec::new();
    let mut steps = 0;
    let mut stride = 1usize;
    let radix = arity + 1;
    while stride < n {
        let mut any = false;
        for leader in (0..n).step_by(stride * radix) {
            for j in 1..=arity {
                let child = leader + j * stride;
                if child < n {
                    transfers.push(Transfer {
                        step: steps,
                        from: child,
                        to: leader,
                        bytes: acc[child],
                    });
                    acc[leader] += acc[child];
                    acc[child] = 0.0;
                    any = true;
                }
            }
        }
        if any {
            steps += 1;
        }
        stride *= radix;
    }
    // Cost: receivers serialise their incoming children per step.
    let mut time = 0.0;
    for s in 0..steps {
        let mut per_recv: std::collections::HashMap<usize, (f64, usize)> =
            std::collections::HashMap::new();
        for t in transfers.iter().filter(|t| t.step == s) {
            let e = per_recv.entry(t.to).or_insert((0.0, 0));
            e.0 += t.bytes;
            e.1 += 1;
        }
        let step_time = per_recv
            .values()
            .map(|&(bytes, k)| bytes / bw + k as f64 * lat)
            .fold(0.0, f64::max);
        time += step_time;
    }
    GatherPlan { arity, steps, transfers, time }
}

/// Concatenates files into one bundle: a text manifest line
/// (`name size\n`) before each file's raw bytes, ending with `END`.
///
/// The bundle is written through [`AtomicFile`] (tmp + fsync +
/// rename): a gather killed mid-write leaves no half-bundle behind for
/// a later unbundle to misparse — the destination either carries the
/// previous complete bundle or the new one.
///
/// An unreadable input surfaces as [`PipelineError::MissingRank`]
/// naming the file's position in `files` (= the rank, in pipeline
/// order); bundle-side write failures carry the bundle path.
pub fn bundle(files: &[PathBuf], out: &Path) -> Result<u64, PipelineError> {
    let werr = |e| PipelineError::io(out, e);
    let mut w =
        std::io::BufWriter::with_capacity(1 << 20, AtomicFile::create(out).map_err(werr)?);
    let mut total = 0u64;
    for (rank, f) in files.iter().enumerate() {
        let missing = |e| PipelineError::MissingRank { rank, path: f.clone(), source: e };
        let name = f.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            missing(std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad file name"))
        })?;
        let size = std::fs::metadata(f).map_err(missing)?.len();
        writeln!(w, "{name} {size}").map_err(werr)?;
        let mut r =
            std::io::BufReader::with_capacity(1 << 20, std::fs::File::open(f).map_err(missing)?);
        let copied = std::io::copy(&mut r, &mut w).map_err(werr)?;
        debug_assert_eq!(copied, size);
        total += size;
    }
    writeln!(w, "END").map_err(werr)?;
    let atomic = w.into_inner().map_err(|e| werr(e.into_error()))?;
    atomic.commit().map_err(werr)?;
    Ok(total)
}

/// [`bundle`] under a bounded retry-with-backoff: transient I/O
/// failures (interrupted writes, the kind a congested gathering link
/// produces) are retried up to `policy.attempts` times; corruption and
/// missing inputs fail immediately. Every attempt past the first bumps
/// the `gather.retries` counter of `metrics`, so a flaky gathering link
/// is visible in the pipeline's metrics output.
pub fn bundle_with_retry(
    files: &[PathBuf],
    out: &Path,
    policy: &RetryPolicy,
    metrics: &titobs::Metrics,
) -> Result<u64, PipelineError> {
    with_retry(policy, "gather bundle", |attempt| {
        if attempt > 1 {
            metrics.incr("gather.retries", 1);
        }
        bundle(files, out)
    })
}

/// Where an unbundle scan stopped early: the entry being decoded when
/// the corruption was found (when the manifest got that far) and the
/// diagnosis.
#[derive(Debug, Clone)]
struct BundleDamage {
    entry: Option<String>,
    detail: String,
}

/// Result of [`unbundle_degraded`]: whatever the damage left intact,
/// quantified.
#[derive(Debug)]
pub struct DegradedUnbundle {
    /// Entries recovered completely, in bundle order.
    pub files: Vec<PathBuf>,
    /// Where the scan stopped, `None` for an undamaged bundle (the
    /// `END` marker was reached).
    pub damage: Option<String>,
}

impl DegradedUnbundle {
    /// True when the bundle decoded end-to-end.
    pub fn is_complete(&self) -> bool {
        self.damage.is_none()
    }
}

/// The shared scan: recovers complete entries in order until the `END`
/// marker (`Ok(None)`) or the first corruption (`Ok(Some(damage))`).
/// Entry files are written through [`AtomicFile`], so a truncated
/// entry never appears on disk — recovered files are always complete.
/// Environment failures (unreadable bundle, unwritable `dir`) stay
/// hard errors in both modes.
fn scan_bundle(
    bundle_path: &Path,
    dir: &Path,
    out: &mut Vec<PathBuf>,
) -> Result<Option<BundleDamage>, PipelineError> {
    let damage = |entry: Option<&str>, detail: String| {
        Ok(Some(BundleDamage { entry: entry.map(str::to_owned), detail }))
    };
    std::fs::create_dir_all(dir).map_err(|e| PipelineError::io(dir, e))?;
    let mut r = std::io::BufReader::with_capacity(
        1 << 20,
        std::fs::File::open(bundle_path).map_err(|e| PipelineError::io(bundle_path, e))?,
    );
    let mut seen = std::collections::HashSet::new();
    loop {
        let mut header = Vec::new();
        // Read one manifest line byte-by-byte (payload follows exactly).
        let mut b = [0u8; 1];
        loop {
            let k = r.read(&mut b).map_err(|e| PipelineError::io(bundle_path, e))?;
            if k == 0 {
                return damage(
                    None,
                    format!("bundle without END marker after {} entr(ies)", out.len()),
                );
            }
            if b[0] == b'\n' {
                break;
            }
            header.push(b[0]);
        }
        let header = String::from_utf8_lossy(&header).into_owned();
        if header.trim() == "END" {
            return Ok(None);
        }
        let Some((name, size)) = header.rsplit_once(' ') else {
            return damage(None, format!("bad manifest line {header:?}"));
        };
        let Ok(size) = size.parse::<u64>() else {
            return damage(Some(name), format!("bad size in manifest line {header:?}"));
        };
        if name.contains('/') || name.contains("..") {
            return damage(Some(name), "unsafe entry name".into());
        }
        if !seen.insert(name.to_owned()) {
            return damage(Some(name), "duplicate entry".into());
        }
        let path = dir.join(name);
        let mut w = std::io::BufWriter::new(
            AtomicFile::create(&path).map_err(|e| PipelineError::io(&path, e))?,
        );
        let copied = {
            let mut taken = (&mut r).take(size);
            std::io::copy(&mut taken, &mut w).map_err(|e| PipelineError::io(&path, e))?
        };
        if copied != size {
            // Dropping the uncommitted AtomicFile discards the partial
            // entry: nothing appears at `path`.
            return damage(Some(name), format!("truncated entry ({copied} of {size} bytes)"));
        }
        let atomic = w.into_inner().map_err(|e| PipelineError::io(&path, e.into_error()))?;
        atomic.commit().map_err(|e| PipelineError::io(&path, e))?;
        out.push(path);
    }
}

/// Splits a bundle back into its files under `dir`.
///
/// Every corruption is a typed [`PipelineError::Bundle`] naming the
/// bundle file, the entry being decoded (when the manifest got that
/// far) and what went wrong — a short gather transfer shows up as a
/// `truncated` entry or a missing `END` marker, never as a partial
/// silent success. Use [`unbundle_degraded`] to salvage the complete
/// leading entries of a damaged bundle instead.
pub fn unbundle(bundle_path: &Path, dir: &Path) -> Result<Vec<PathBuf>, PipelineError> {
    let mut out = Vec::new();
    match scan_bundle(bundle_path, dir, &mut out)? {
        None => Ok(out),
        Some(d) => Err(PipelineError::Bundle {
            path: bundle_path.to_path_buf(),
            entry: d.entry,
            detail: d.detail,
        }),
    }
}

/// Degraded-mode unbundle: recovers every *complete* entry up to the
/// first corruption instead of refusing the whole bundle. A short
/// gather transfer (the bundle cut mid-stream) loses the tail; the
/// intact leading ranks still extract, and the damage report says what
/// stopped the scan. Entries are written atomically, so a recovered
/// file is never itself truncated.
pub fn unbundle_degraded(
    bundle_path: &Path,
    dir: &Path,
) -> Result<DegradedUnbundle, PipelineError> {
    let mut files = Vec::new();
    let damage = scan_bundle(bundle_path, dir, &mut files)?.map(|d| match d.entry {
        Some(e) => format!("entry {e:?}: {}", d.detail),
        None => d.detail,
    });
    Ok(DegradedUnbundle { files, damage })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_steps_follow_log_radix() {
        // 4-nomial (K=4): log5(N) steps.
        for (n, expect) in [(1usize, 0usize), (5, 1), (25, 2), (64, 3), (125, 3)] {
            let plan = gather_plan(&vec![100.0; n], 4, 1e8, 1e-5);
            assert_eq!(plan.steps, expect, "N={n}");
        }
    }

    #[test]
    fn all_bytes_reach_node_zero() {
        let sizes: Vec<f64> = (0..23).map(|i| (i + 1) as f64 * 10.0).collect();
        let total: f64 = sizes.iter().sum();
        let plan = gather_plan(&sizes, 4, 1e8, 1e-5);
        // Every non-root node sends its subtree exactly once.
        let senders: std::collections::HashSet<usize> =
            plan.transfers.iter().map(|t| t.from).collect();
        assert_eq!(senders.len(), 22);
        assert!(!senders.contains(&0));
        // Bytes received at 0 across all steps equal the non-root total.
        let to_zero: f64 =
            plan.transfers.iter().filter(|t| t.to == 0).map(|t| t.bytes).sum();
        assert!((to_zero - (total - 10.0)).abs() < 1e-9);
    }

    #[test]
    fn gather_time_grows_with_process_count() {
        let t8 = gather_plan(&[1e6; 8], 4, 1.25e8, 5e-5).time;
        let t64 = gather_plan(&[1e6; 64], 4, 1.25e8, 5e-5).time;
        assert!(t64 > t8, "deeper tree costs more: {t64} vs {t8}");
    }

    #[test]
    fn binomial_vs_flat_tradeoff() {
        // Higher arity = fewer steps but more serialisation per step.
        let sizes = vec![1e7; 64];
        let k1 = gather_plan(&sizes, 1, 1.25e8, 5e-5);
        let k4 = gather_plan(&sizes, 4, 1.25e8, 5e-5);
        let k63 = gather_plan(&sizes, 63, 1.25e8, 5e-5);
        assert!(k1.steps > k4.steps);
        assert_eq!(k63.steps, 1);
        assert!(k63.time >= k4.time * 0.9, "flat gather serialises at the root");
    }

    #[test]
    fn bundle_roundtrip() {
        let dir = std::env::temp_dir().join(format!("titr-bundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = Vec::new();
        for i in 0..3 {
            let p = dir.join(format!("SG_process{i}.trace"));
            std::fs::write(&p, format!("p{i} compute {}\n", i * 100)).unwrap();
            files.push(p);
        }
        let bpath = dir.join("traces.bundle");
        let total = bundle(&files, &bpath).unwrap();
        assert!(total > 0);
        let outdir = dir.join("restored");
        let restored = unbundle(&bpath, &outdir).unwrap();
        assert_eq!(restored.len(), 3);
        for (orig, rest) in files.iter().zip(&restored) {
            assert_eq!(std::fs::read(orig).unwrap(), std::fs::read(rest).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unbundle_rejects_unsafe_names() {
        let dir = std::env::temp_dir().join(format!("titr-unsafe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bpath = dir.join("evil.bundle");
        std::fs::write(&bpath, "../evil 4\nhackEND\n").unwrap();
        match unbundle(&bpath, &dir.join("out")).unwrap_err() {
            PipelineError::Bundle { entry, detail, .. } => {
                assert_eq!(entry.as_deref(), Some("../evil"));
                assert!(detail.contains("unsafe"), "{detail}");
            }
            e => panic!("expected Bundle error, got {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unbundle_rejects_duplicate_entries() {
        let dir = std::env::temp_dir().join(format!("titr-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bpath = dir.join("dup.bundle");
        // The same rank's file appears twice — a duplicated gather
        // transfer must not silently overwrite the first copy.
        std::fs::write(&bpath, "SG_process0.trace 4\nabc\nSG_process0.trace 4\nxyz\nEND\n")
            .unwrap();
        match unbundle(&bpath, &dir.join("out")).unwrap_err() {
            PipelineError::Bundle { entry, detail, .. } => {
                assert_eq!(entry.as_deref(), Some("SG_process0.trace"));
                assert!(detail.contains("duplicate"), "{detail}");
            }
            e => panic!("expected Bundle error, got {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_input_file_names_the_rank() {
        let dir = std::env::temp_dir().join(format!("titr-bmiss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p0 = dir.join("SG_process0.trace");
        std::fs::write(&p0, "p0 compute 1\n").unwrap();
        let gone = dir.join("SG_process1.trace"); // never written
        let err = bundle(&[p0, gone.clone()], &dir.join("traces.bundle")).unwrap_err();
        match err {
            PipelineError::MissingRank { rank, path, .. } => {
                assert_eq!(rank, 1);
                assert_eq!(path, gone);
            }
            e => panic!("expected MissingRank, got {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_bundle_write_leaves_no_half_bundle() {
        let dir = std::env::temp_dir().join(format!("titr-batomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p0 = dir.join("SG_process0.trace");
        std::fs::write(&p0, "p0 compute 1\n").unwrap();
        let gone = dir.join("SG_process1.trace"); // never written
        let bpath = dir.join("traces.bundle");
        // The write aborts after rank 0 was already streamed — the
        // destination must not exist at all.
        bundle(&[p0, gone], &bpath).unwrap_err();
        assert!(!bpath.exists(), "aborted bundle left {bpath:?}");
        assert!(
            std::fs::read_dir(&dir).unwrap().count() == 1,
            "no stray temporary either"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_unbundle_recovers_leading_entries_of_a_cut_bundle() {
        let dir = std::env::temp_dir().join(format!("titr-dunb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = Vec::new();
        for i in 0..4 {
            let p = dir.join(format!("SG_process{i}.trace"));
            std::fs::write(&p, format!("p{i} compute 12345\n").repeat(32)).unwrap();
            files.push(p);
        }
        let bpath = dir.join("traces.bundle");
        bundle(&files, &bpath).unwrap();
        let good = std::fs::read(&bpath).unwrap();
        // Keep the manifest+payload of the first two entries plus half
        // of the third: ranks 0 and 1 must extract bit-exact, rank 2's
        // partial payload must not appear on disk at all.
        let entry = "p0 compute 12345\n".len() * 32;
        let manifest0 = format!("SG_process0.trace {entry}\n").len();
        let cut = 2 * (manifest0 + entry) + manifest0 + entry / 2;
        std::fs::write(&bpath, &good[..cut]).unwrap();

        let out_dir = dir.join("out");
        let got = unbundle_degraded(&bpath, &out_dir).unwrap();
        assert!(!got.is_complete());
        assert_eq!(got.files.len(), 2);
        for (recovered, original) in got.files.iter().zip(&files) {
            assert_eq!(
                std::fs::read(recovered).unwrap(),
                std::fs::read(original).unwrap()
            );
        }
        assert!(
            !out_dir.join("SG_process2.trace").exists(),
            "partial entry must not be committed"
        );
        let damage = got.damage.unwrap();
        assert!(damage.contains("truncated"), "{damage}");

        // An undamaged bundle reports complete recovery.
        std::fs::write(&bpath, &good).unwrap();
        let clean = unbundle_degraded(&bpath, &dir.join("out2")).unwrap();
        assert!(clean.is_complete());
        assert_eq!(clean.files.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_transfer_surfaces_as_truncated_entry_or_missing_end() {
        let dir = std::env::temp_dir().join(format!("titr-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = Vec::new();
        for i in 0..4 {
            let p = dir.join(format!("SG_process{i}.trace"));
            std::fs::write(&p, format!("p{i} compute 12345\n").repeat(32)).unwrap();
            files.push(p);
        }
        let bpath = dir.join("traces.bundle");
        bundle(&files, &bpath).unwrap();
        // A dropped gather transfer: the bundle is cut mid-stream.
        crate::faultinject::Injector::new(21).short_transfer(&bpath).unwrap();
        match unbundle(&bpath, &dir.join("out")).unwrap_err() {
            PipelineError::Bundle { path, detail, .. } => {
                assert_eq!(path, bpath);
                assert!(
                    detail.contains("truncated") || detail.contains("END marker"),
                    "{detail}"
                );
            }
            e => panic!("expected Bundle error, got {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
