//! Differential kill-and-resume property: a replay that is paused at
//! every checkpoint boundary and resumed from disk each time must be
//! indistinguishable from an uninterrupted run — same final simulated
//! time (bit for bit), same per-rank profile totals (accumulated in the
//! same order, so bit-identical JSON), and a timed-trace CSV whose
//! per-segment pieces stitch into the uninterrupted file byte for byte.
//! This is DESIGN.md §5f's core guarantee, checked over random balanced
//! traces and random checkpoint intervals.

use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use titr::npb::{Class, LuConfig};
use titr::obs::{Profile, SharedBuf, Timeline, TimelineFormat};
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::{
    tags, Input, Replay, ReplayCheckpoint, ReplayConfig, ReplayError, ReplayOutcome, Status,
};
use titr::simkern::engine::{Comm, EventKind, Owner};
use titr::simkern::observer::{Fanout, Observer};
use titr::simkern::resource::HostId;
use titr::simkern::{EngineSnapshot, OpId};
use titr::trace::{Action, TiTrace};

/// Generates a random *balanced* trace (every send matched by a posted
/// receive, FIFO per ordered pair, every Irecv waited on) — the same
/// generator shape as `tests/proptests.rs`.
fn balanced_trace(nproc: usize, ops: &[(usize, usize, u32, bool)]) -> TiTrace {
    let mut t = TiTrace::new(nproc);
    for r in 0..nproc {
        t.push(r, Action::CommSize { nproc });
    }
    for &(src, dst, vol, nonblocking) in ops {
        let src = src % nproc;
        let dst = dst % nproc;
        if src == dst {
            t.push(src, Action::Compute { flops: f64::from(vol) });
            continue;
        }
        let bytes = f64::from(vol);
        t.push(src, Action::Send { dst, bytes });
        if nonblocking {
            t.push(dst, Action::Irecv { src, bytes: None });
            t.push(dst, Action::Wait);
        } else {
            t.push(dst, Action::Recv { src, bytes: None });
        }
    }
    for r in 0..nproc {
        t.push(r, Action::Barrier);
    }
    t
}

fn platform_hosts(nproc: usize) -> (titr::simkern::resource::Platform, Vec<HostId>) {
    let desc = PlatformDesc::single(presets::bordereau_one_core(nproc));
    let hosts = (0..nproc as u32).map(HostId).collect();
    (desc.build(), hosts)
}

/// A CSV timeline + shared profile observer pair for one engine run.
fn observers(nproc: usize, profile: &Profile) -> (SharedBuf, Timeline<SharedBuf>, Box<dyn Observer>) {
    let buf = SharedBuf::new();
    let tl = Timeline::new(buf.clone(), nproc, TimelineFormat::Csv, tags::name)
        .expect("SharedBuf cannot fail");
    let fan = Fanout::new().with(tl.sink()).with(profile.sink());
    (buf, tl, Box::new(fan))
}

const CSV_HEADER: &str = "rank,action,start,end,volume\n";

proptest! {
    #[test]
    fn kill_and_resume_matches_uninterrupted(
        nproc in 2usize..5,
        ops in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u32..500_000, proptest::bool::ANY),
            1..25,
        ),
        every in 1u64..40,
    ) {
        let trace = balanced_trace(nproc, &ops);
        let dir = std::env::temp_dir().join(format!(
            "titr-resume-prop-{}-{nproc}-{every}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        trace.save_per_process(&dir).unwrap();
        let cfg = ReplayConfig::default();

        // Uninterrupted reference run.
        let ref_profile = Profile::new(nproc, tags::name, tags::is_comm);
        let (ref_buf, ref_tl, extra) = observers(nproc, &ref_profile);
        let (platform, hosts) = platform_hosts(nproc);
        let reference = Replay::new(Input::files(&dir, nproc), platform, &hosts, &cfg)
            .observer(Some(extra))
            .run()
            .expect("reference replay");
        ref_tl.finish().unwrap();
        let ref_csv = String::from_utf8(ref_buf.contents()).unwrap();
        let ref_profile_json = ref_profile.snapshot().to_json();

        // Killed sequence: pause at *every* checkpoint boundary
        // (stop_after_checkpoints = 1 restarts the process each time),
        // resuming from the on-disk TICK1 file. One Profile accumulates
        // across all segments — completion order is preserved, so float
        // accumulation matches the reference bit for bit.
        let ck = dir.join("ck.tick");
        let profile = Profile::new(nproc, tags::name, tags::is_comm);
        let mut stitched = String::from(CSV_HEADER);
        let mut segments = 0u32;
        let final_time = loop {
            let (buf, tl, extra) = observers(nproc, &profile);
            let (platform, hosts) = platform_hosts(nproc);
            let resume = (segments > 0).then(|| ReplayCheckpoint::load(&ck).expect("checkpoint"));
            let out = Replay::new(Input::files(&dir, nproc), platform, &hosts, &cfg)
                .observer(Some(extra))
                .checkpoint(Some(ck.clone()))
                .pause_every(every)
                .stop_after(Some(1))
                .resume(resume)
                .run()
                .expect("checkpointed segment");
            tl.finish().unwrap();
            let csv = String::from_utf8(buf.contents()).unwrap();
            stitched.push_str(csv.strip_prefix(CSV_HEADER).expect("segment CSV header"));
            segments += 1;
            prop_assert!(segments < 10_000, "runaway segment loop");
            match out.status {
                Status::Finished { simulated_time } => break simulated_time,
                Status::Stopped(_) => {}
            }
        };

        prop_assert_eq!(final_time.to_bits(), reference.simulated_time.to_bits());
        prop_assert_eq!(&stitched, &ref_csv);
        prop_assert_eq!(&profile.snapshot().to_json(), &ref_profile_json);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A damaged input under `--degraded` semantics never beats the intact
/// one: the completeness ratio of a truncated trace set is below 1, the
/// ratio of the intact set is exactly 1, and neither replay panics.
#[test]
fn degraded_ratio_is_exact_on_intact_and_below_one_on_truncated() {
    let nproc = 3;
    let ops: Vec<(usize, usize, u32, bool)> =
        (0..12).map(|i| (i % 3, (i + 1) % 3, 1000 + i as u32, i % 2 == 0)).collect();
    let trace = balanced_trace(nproc, &ops);
    let dir = std::env::temp_dir().join(format!("titr-resume-deg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    trace.save_per_process(&dir).unwrap();
    let cfg = ReplayConfig::default();

    let (platform, hosts) = platform_hosts(nproc);
    let intact = Replay::new(Input::salvage_files(&dir, nproc), platform, &hosts, &cfg)
        .tolerate_damage(true)
        .run()
        .expect("intact degraded replay");
    assert!((intact.completeness() - 1.0).abs() < f64::EPSILON);
    assert!(!intact.is_partial());

    let victim = dir.join(titr::trace::trace::process_trace_filename(1));
    let body = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &body[..body.len() * 2 / 3]).unwrap();
    let (platform, hosts) = platform_hosts(nproc);
    let cut = Replay::new(Input::salvage_files(&dir, nproc), platform, &hosts, &cfg)
        .tolerate_damage(true)
        .run()
        .expect("cut degraded replay");
    assert!(cut.completeness() < 1.0, "ratio {}", cut.completeness());
    assert!(cut.is_partial());
    assert_eq!(cut.ranks.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// LU S ×16 with two iterations: at 500 and 1,500 actions its pauses
/// hold queued latency events, transfers and computations in flight,
/// unmatched sends and early receives.
fn lu16() -> TiTrace {
    titr::npb::program_trace(&LuConfig::new(Class::S, 16).with_itmax(2).program(), 16)
}

/// The state of `trace` paused after `every` actions.
fn paused_after(trace: &TiTrace, every: u64) -> ReplayCheckpoint {
    let always = AtomicBool::new(true);
    let (platform, hosts) = platform_hosts(trace.num_processes());
    let out = Replay::new(Input::memory(trace), platform, &hosts, &ReplayConfig::default())
        .pause_every(every)
        .preempt(Some(&always))
        .run()
        .expect("paused replay");
    out.paused.expect("preempted at the first pause")
}

fn resume(trace: &TiTrace, ck: ReplayCheckpoint) -> Result<ReplayOutcome, ReplayError> {
    let (platform, hosts) = platform_hosts(trace.num_processes());
    Replay::new(Input::memory(trace), platform, &hosts, &ReplayConfig::default())
        .resume(Some(ck))
        .run()
}

/// A checkpoint whose latest completion prediction was raised is
/// refused, in memory and from its encoded bytes, naming the activity:
/// the predictions are checked against the activities they belong to.
#[test]
fn raised_completion_time_is_refused_naming_the_activity() {
    let trace = lu16();
    let mut ck = paused_after(&trace, 1500);
    let latest = ck.engine.completions.iter_mut().max_by(|a, b| a.0.total_cmp(&b.0));
    let latest = latest.expect("activities in flight");
    latest.0 += 1e-3;
    let activity = format!("activity {} at", latest.1);
    let decoded = ReplayCheckpoint::decode(&ck.encode()).expect_err("decoded a raised prediction");
    assert!(decoded.contains(&activity), "{decoded}");
    let err = resume(&trace, ck).expect_err("resumed a raised prediction");
    assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
    assert!(err.to_string().contains(&activity), "{err}");
}

fn occupied<T>(slots: &[Option<T>]) -> Vec<usize> {
    (0..slots.len()).filter(|&k| slots[k].is_some()).collect()
}

fn owner(s: &mut EngineSnapshot, k: usize) -> &mut Owner {
    &mut s.activities.slots[k].as_mut().expect("occupied activity").owner
}

fn comm(s: &mut EngineSnapshot, k: usize) -> &mut Comm {
    s.comms.slots[k].as_mut().expect("occupied comm")
}

/// Every crafted copy of `state` the sweep resumes: each event's id,
/// activity owner, comm `send_op` and `recv_op`, mailbox entry (comm,
/// early receive op and its actor) and actor `waiting` set to 0, 1, 2
/// and 7, and each event's and activity owner's kind swapped.
fn crafted(state: &ReplayCheckpoint) -> Vec<ReplayCheckpoint> {
    const IDS: [usize; 4] = [0, 1, 2, 7];
    let mut out = Vec::new();
    let mut craft = |f: &dyn Fn(&mut EngineSnapshot)| {
        let mut ck = state.clone();
        f(&mut ck.engine);
        out.push(ck);
    };
    let e = &state.engine;
    for i in 0..e.events.len() {
        for v in IDS {
            craft(&|s| {
                s.events[i].kind = match s.events[i].kind {
                    EventKind::LatencyDone { .. } => EventKind::LatencyDone { comm: v },
                    EventKind::SleepDone { .. } => EventKind::SleepDone { op: OpId::from_raw(v) },
                }
            });
        }
        craft(&|s| {
            s.events[i].kind = match s.events[i].kind {
                EventKind::LatencyDone { comm } => {
                    EventKind::SleepDone { op: OpId::from_raw(comm) }
                }
                EventKind::SleepDone { op } => EventKind::LatencyDone { comm: op.to_raw() },
            }
        });
    }
    for k in occupied(&e.activities.slots) {
        for v in IDS {
            craft(&|s| {
                let o = owner(s, k);
                *o = match *o {
                    Owner::Exec { .. } => Owner::Exec { op: OpId::from_raw(v) },
                    Owner::Comm { .. } => Owner::Comm { comm: v },
                }
            });
        }
        craft(&|s| {
            let o = owner(s, k);
            *o = match *o {
                Owner::Exec { op } => Owner::Comm { comm: op.to_raw() },
                Owner::Comm { comm } => Owner::Exec { op: OpId::from_raw(comm) },
            }
        });
    }
    for k in occupied(&e.comms.slots) {
        for v in IDS {
            craft(&|s| comm(s, k).send_op = OpId::from_raw(v));
            craft(&|s| comm(s, k).recv_op = Some(OpId::from_raw(v)));
        }
    }
    for (m, mailbox) in e.mailboxes.iter().enumerate() {
        for j in 0..mailbox.comms.len() {
            for v in IDS {
                craft(&|s| s.mailboxes[m].comms[j] = v);
            }
        }
        for j in 0..mailbox.recvs.len() {
            for v in IDS {
                craft(&|s| s.mailboxes[m].recvs[j].0 = v);
                craft(&|s| s.mailboxes[m].recvs[j].1 = v);
            }
        }
    }
    for a in 0..e.actors.len() {
        for v in IDS {
            craft(&|s| s.actors[a].waiting = Some(v));
        }
    }
    out
}

/// A checkpoint whose references were rewired — an op or comm claimed
/// twice or under the wrong kind, an early receive of another actor,
/// a wait on someone else's op — resumes or is refused as a checkpoint
/// error; it never panics the kernel.
#[test]
fn crafted_references_resume_or_are_refused() {
    let trace = lu16();
    let (mut resumed, mut refused) = (0, 0);
    for every in [500, 1500] {
        let state = paused_after(&trace, every);
        for ck in crafted(&state) {
            match resume(&trace, ck) {
                Ok(_) => resumed += 1,
                Err(ReplayError::Checkpoint { .. }) => refused += 1,
                Err(e) => panic!("paused after {every} actions: a crafted resume failed: {e}"),
            }
        }
    }
    assert!(resumed > 0 && refused > 0, "{resumed} resumed, {refused} refused");
}
