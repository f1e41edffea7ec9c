//! The replay driver: trace + platform + deployment → simulated time
//! (Figure 4 of the paper).
//!
//! Every replay is one [`Replay`]: an [`Input`] (one action stream per
//! rank, plus what the input knows about itself), a platform, a
//! deployment and a [`ReplayConfig`], with independent options — an
//! observer, a pause interval, a deadline, a checkpoint file, a
//! stop-after count, a preempt flag, a resume state and damage
//! tolerance. A batch run, a checkpointed or resumed run, a degraded
//! salvage and a served request differ only in which options they set;
//! all of them go through one engine set-up and one `run_until` loop
//! and return one [`ReplayOutcome`].

use crate::collectives::CollectiveAlgo;
use crate::degraded::RankDegradation;
use crate::error::ReplayError;
use crate::process::{Cursor, ReplayActor};
use crate::resume::{fingerprint, ReplayCheckpoint};
use simkern::netmodel::NetworkConfig;
use simkern::observer::Observer;
use simkern::resource::HostId;
use simkern::{Engine, KernelMode, Platform, RunStatus, SimError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tit_core::tib2::SegmentColumns;
use tit_core::trace::process_trace_filename;
use tit_core::{Budget, TiTrace};

/// Replay-tool configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Network model (the paper's default is the contention-aware
    /// piece-wise-linear MPI model).
    pub network: NetworkConfig,
    /// Collective decomposition shape.
    pub algo: CollectiveAlgo,
    /// Enable kernel self-profiling: the engine counts hot-loop work
    /// (LMM solves, heap traffic) and attributes wall time to phases.
    /// The simulated outcome is byte-identical either way; see
    /// [`simkern::KernelProfile`].
    pub kernel_profile: bool,
    /// Kernel implementation. `Incremental` (default) is the
    /// scale-invariant production path; `Reference` is the full-solve
    /// oracle it is differentially tested against — both simulate
    /// bit-identically (see [`simkern::KernelMode`] and
    /// docs/KERNEL.md).
    pub kernel: KernelMode,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            network: NetworkConfig::mpi_cluster(),
            algo: CollectiveAlgo::Binomial,
            kernel_profile: false,
            kernel: KernelMode::Incremental,
        }
    }
}

/// What a replay reads: one action cursor per rank, plus what the
/// driver needs to know about the input. Built by the source
/// constructors — [`Input::memory`], [`Input::files`],
/// [`Input::compact`], [`Input::store`], and the `--degraded` salvage
/// scans [`Input::salvage_files`] and [`Input::salvage_store`]. They
/// differ only in where each cursor's next chunk of columns comes from.
pub struct Input {
    /// The per-rank cursors, or the error that opening them hit
    /// (reported by [`Replay::run`]).
    pub(crate) cursors: Result<Vec<Cursor>, ReplayError>,
    /// Actions the undamaged input carries; `0` when the input cannot
    /// know without reading it (streamed files).
    pub(crate) actions_expected: u64,
    /// Binds checkpoints to the trace content (`0` = no binding).
    pub(crate) salt: u64,
    /// Per-rank salvage report of a damage scan.
    pub(crate) damage: Vec<RankDegradation>,
}

impl Input {
    pub(crate) fn new(cursors: Vec<Cursor>, actions_expected: u64, salt: u64) -> Self {
        Input { cursors: Ok(cursors), actions_expected, salt, damage: Vec::new() }
    }

    /// An in-memory trace, interned rank by rank exactly as
    /// [`CompactTrace::from_trace`](tit_core::CompactTrace::from_trace)
    /// does; a rank it cannot intern (a `NaN` volume, a peer past the
    /// `u32` range) is a [`ReplayError::Trace`] naming the rank.
    /// Checkpoints bind to its action count.
    pub fn memory(trace: &TiTrace) -> Self {
        let expected = trace.num_actions() as u64;
        let cursors = trace
            .actions
            .iter()
            .enumerate()
            .map(|(rank, actions)| match SegmentColumns::from_actions(actions) {
                Ok(cols) => Ok(Cursor::resident(Arc::new(cols))),
                Err(e) => Err(ReplayError::Trace { rank, detail: e.to_string() }),
            })
            .collect();
        Input { cursors, ..Input::new(Vec::new(), expected, expected) }
    }

    /// Per-process trace files `SG_process<rank>.trace` in `dir`,
    /// streamed during the replay: each rank's file is parsed one chunk
    /// of [`DEFAULT_SEG_ACTIONS`](tit_core::tib2::DEFAULT_SEG_ACTIONS)
    /// actions at a time, so memory is O(ranks × chunk) whatever the
    /// trace size. A defective line is reported when the replay reaches
    /// it. A missing file is a [`ReplayError::MissingRank`] naming the
    /// rank.
    pub fn files(dir: &Path, nproc: usize) -> Self {
        let cursors = (0..nproc)
            .map(|rank| {
                let path = dir.join(process_trace_filename(rank));
                Cursor::text(&path, rank)
                    .map_err(|source| ReplayError::MissingRank { rank, path, source })
            })
            .collect();
        Input { cursors, ..Input::new(Vec::new(), 0, 0) }
    }

    /// A shared interned [`CompactTrace`](tit_core::CompactTrace):
    /// each rank's cursor reads the rank's resident columns (~16
    /// bytes/action, no per-rank copies), so a trace loads once and
    /// replays many times. Checkpoints bind to its action count.
    pub fn compact(trace: &Arc<tit_core::CompactTrace>) -> Self {
        let cursors = trace.columns().iter().map(|c| Cursor::resident(Arc::clone(c))).collect();
        let expected = trace.num_actions() as u64;
        Input::new(cursors, expected, expected)
    }

    /// Replaces the cursors of `ranks` with empty ones — a degraded
    /// subset whose dropped ranks end immediately. The expected action
    /// count still covers them.
    pub fn without_ranks(mut self, ranks: &[usize]) -> Self {
        if let Ok(cursors) = &mut self.cursors {
            for &rank in ranks {
                if let Some(c) = cursors.get_mut(rank) {
                    *c = Cursor::empty();
                }
            }
        }
        self
    }
}

/// Why a run stopped before the trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The deadline expired (the `--max-wall` watchdog or a request
    /// budget).
    Deadline,
    /// The stop-after checkpoint count was reached.
    StopAfter,
    /// The preempt flag was raised at a pause; [`ReplayOutcome::paused`]
    /// resumes the run.
    Preempted,
    /// With damage tolerance on, the engine stopped on damage (a
    /// deadlock against a trimmed rank, an actor failure, a protocol
    /// error); the detail is in [`ReplayOutcome::failure`].
    Damaged,
}

/// How a replay ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Status {
    /// The trace replayed to completion.
    Finished {
        /// Simulated execution time, seconds.
        simulated_time: f64,
    },
    /// The run stopped early at [`ReplayOutcome::simulated_time`].
    Stopped(Stop),
}

/// [`Status`], as [`run_checkpointed`] callers name it.
pub type CheckpointedStatus = Status;

/// Results of a replay.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Finished, or stopped and why.
    pub status: Status,
    /// Simulated time reached: the makespan of a finished run, else the
    /// time at the stop.
    pub simulated_time: f64,
    /// Trace actions consumed, including those replayed before a
    /// resume (restored from the checkpoint, not re-counted).
    pub actions_replayed: u64,
    /// Actions the undamaged input carries (`0` when unknown).
    pub actions_expected: u64,
    /// Wall-clock time of this run's simulation (Figure 9's metric).
    pub wall_time: Duration,
    /// Kernel self-profile when `cfg.kernel_profile` was set. It covers
    /// this run only: a resumed run counts from its resume point.
    pub kernel_profile: Option<simkern::KernelProfile>,
    /// Checkpoint files written by this run.
    pub checkpoints_written: u64,
    /// The engine state at the stop: set when the run was preempted or
    /// wrote a checkpoint there.
    pub paused: Option<ReplayCheckpoint>,
    /// Per-rank damage found by a salvage scan (empty otherwise).
    pub ranks: Vec<RankDegradation>,
    /// The damage that stopped a damage-tolerant run.
    pub failure: Option<String>,
}

impl ReplayOutcome {
    /// Actions replayed over actions expected, in `[0, 1]`. Exactly
    /// `1.0` for a finished replay of an undamaged input; when the
    /// expected count is unknown, `1.0` if finished and `0.0` if not.
    pub fn completeness(&self) -> f64 {
        if self.actions_expected == 0 {
            return if matches!(self.status, Status::Finished { .. }) { 1.0 } else { 0.0 };
        }
        (self.actions_replayed as f64 / self.actions_expected as f64).min(1.0)
    }

    /// True when anything at all was lost: damage found by a salvage
    /// scan, a damage stop, or fewer actions replayed than expected.
    pub fn is_partial(&self) -> bool {
        !self.ranks.is_empty() || self.failure.is_some() || self.completeness() < 1.0
    }
}

fn ck_err(detail: impl std::fmt::Display) -> ReplayError {
    ReplayError::Checkpoint { detail: detail.to_string() }
}

/// One replay: an input on a platform and deployment, plus options.
/// Without options it runs the trace to completion.
pub struct Replay<'a> {
    input: Input,
    platform: Platform,
    hosts: &'a [HostId],
    cfg: &'a ReplayConfig,
    observer: Option<Box<dyn Observer>>,
    pause_every: u64,
    deadline: Budget,
    checkpoint: Option<PathBuf>,
    stop_after: Option<u64>,
    preempt: Option<&'a AtomicBool>,
    resume: Option<ReplayCheckpoint>,
    tolerate_damage: bool,
}

impl<'a> Replay<'a> {
    /// A replay of `input` on `platform`; `hosts[rank]` is rank's host.
    pub fn new(
        input: Input,
        platform: Platform,
        hosts: &'a [HostId],
        cfg: &'a ReplayConfig,
    ) -> Self {
        Replay {
            input,
            platform,
            hosts,
            cfg,
            observer: None,
            pause_every: 0,
            deadline: Budget::unlimited(),
            checkpoint: None,
            stop_after: None,
            preempt: None,
            resume: None,
            tolerate_damage: false,
        }
    }

    /// The [`Observer`] for the run: every output beyond the simulated
    /// time is a sink attached here — a `titobs` timeline, profile or
    /// metrics observer, a `simkern` record collector, or several
    /// through [`simkern::observer::Fanout`].
    pub fn observer(mut self, observer: Option<Box<dyn Observer>>) -> Self {
        self.observer = observer;
        self
    }

    /// Pause at the next safe point every `actions` replayed actions
    /// (`0` = never): each pause writes the checkpoint file, if any, and
    /// consults the stop-after count and the preempt flag.
    pub fn pause_every(mut self, actions: u64) -> Self {
        self.pause_every = actions;
        self
    }

    /// Stop with [`Stop::Deadline`] at the first safe point after
    /// `budget` is spent, writing the checkpoint file first if one is
    /// set. The clock starts when the simulation does: engine set-up
    /// and the restore of a resume state are not charged to it.
    pub fn deadline(mut self, budget: Budget) -> Self {
        self.deadline = budget;
        self
    }

    /// Write a `TICK1` checkpoint to this file (atomically replacing
    /// the last) at every pause.
    pub fn checkpoint(mut self, path: Option<PathBuf>) -> Self {
        self.checkpoint = path;
        self
    }

    /// Stop with [`Stop::StopAfter`] once this many checkpoints are
    /// written — the deterministic stand-in for `kill -9` the resume
    /// tests use.
    pub fn stop_after(mut self, checkpoints: Option<u64>) -> Self {
        self.stop_after = checkpoints;
        self
    }

    /// Stop with [`Stop::Preempted`] at a pause while `flag` reads
    /// true, exporting the engine state into [`ReplayOutcome::paused`].
    pub fn preempt(mut self, flag: Option<&'a AtomicBool>) -> Self {
        self.preempt = flag;
        self
    }

    /// Continue from a checkpoint or a preempted run. The input must be
    /// rebuilt identically; a different platform, config, deployment
    /// or checkpoint salt fails closed ([`ReplayError::Checkpoint`]).
    pub fn resume(mut self, state: Option<ReplayCheckpoint>) -> Self {
        self.resume = state;
        self
    }

    /// Damage stops (deadlock, actor failure, protocol error) become a
    /// [`Stop::Damaged`] outcome instead of an error. A memory-budget
    /// refusal stays an error: it is the environment, not damage.
    pub fn tolerate_damage(mut self, on: bool) -> Self {
        self.tolerate_damage = on;
        self
    }

    /// Runs the replay to completion or to the first stop.
    pub fn run(self) -> Result<ReplayOutcome, ReplayError> {
        let Input { cursors, actions_expected, salt, damage } = self.input;
        let cursors = cursors?;
        if cursors.len() != self.hosts.len() {
            return Err(ReplayError::Deployment { procs: cursors.len(), hosts: self.hosts.len() });
        }
        let nproc = cursors.len();
        let cfg = self.cfg;
        let mut engine = Engine::new(self.platform);
        engine.set_kernel_mode(cfg.kernel);
        engine.set_network_config(cfg.network.clone());
        if let Some(obs) = self.observer {
            engine.set_observer(obs);
        }
        if cfg.kernel_profile {
            engine.enable_kernel_profiling();
        }
        let counter = Arc::new(AtomicU64::new(0));
        for (rank, src) in cursors.into_iter().enumerate() {
            let actor = ReplayActor::new(rank, nproc, src, cfg.algo, counter.clone());
            engine.spawn(Box::new(actor), self.hosts[rank]);
        }
        // Only runs that export or restore state pay for the fingerprint.
        let fp = |engine: &Engine| fingerprint(engine.platform(), cfg, nproc, salt);
        if let Some(ck) = self.resume {
            let want = fp(&engine);
            if ck.fingerprint != want {
                return Err(ck_err(format!(
                    "checkpoint fingerprint {:#018x} does not match this \
                     platform/config/deployment ({want:#018x})",
                    ck.fingerprint
                )));
            }
            engine.restore_state(ck.engine).map_err(ck_err)?;
            counter.store(ck.actions_replayed, Ordering::Relaxed);
        }

        let t0 = Instant::now();
        let every = self.pause_every;
        let deadline = self.deadline.start();
        let limited = !deadline.is_unlimited();
        let mut written = 0u64;
        let mut mark = counter.load(Ordering::Relaxed);
        let (status, simulated_time, paused, failure) = loop {
            let from = mark;
            let mut guard = |_: &Engine| {
                (every > 0 && counter.load(Ordering::Relaxed).saturating_sub(from) >= every)
                    || (limited && deadline.expired())
            };
            let time = match engine.run_until(&mut guard) {
                Ok(RunStatus::Completed(t)) => {
                    break (Status::Finished { simulated_time: t }, t, None, None)
                }
                Ok(RunStatus::Paused(t)) => t,
                Err(e) if self.tolerate_damage && !refused(&e) => {
                    break (Status::Stopped(Stop::Damaged), e.time(), None, Some(e.to_string()));
                }
                Err(e) => return Err(e.into()),
            };
            // A safe point: checkpoint if asked, then stop if a stop
            // condition holds, else continue to the next pause.
            let export = |engine: &Engine| -> Result<ReplayCheckpoint, ReplayError> {
                Ok(ReplayCheckpoint {
                    fingerprint: fp(engine),
                    actions_replayed: counter.load(Ordering::Relaxed),
                    engine: engine.export_state().map_err(ck_err)?,
                })
            };
            let mut state = None;
            if let Some(path) = &self.checkpoint {
                let ck = export(&engine)?;
                ck.save(path)?;
                written += 1;
                state = Some(ck);
            }
            let stop = if limited && deadline.expired() {
                Stop::Deadline
            } else if self.stop_after.is_some_and(|k| written >= k) {
                Stop::StopAfter
            } else if self.preempt.is_some_and(|p| p.load(Ordering::Relaxed)) {
                if state.is_none() {
                    state = Some(export(&engine)?);
                }
                Stop::Preempted
            } else {
                mark = counter.load(Ordering::Relaxed);
                continue;
            };
            break (Status::Stopped(stop), time, state, None);
        };
        let wall_time = t0.elapsed();
        let kernel_profile = engine.take_kernel_profile();
        Ok(ReplayOutcome {
            status,
            simulated_time,
            actions_replayed: counter.load(Ordering::Relaxed),
            actions_expected,
            wall_time,
            kernel_profile,
            checkpoints_written: written,
            paused,
            ranks: damage,
            failure,
        })
    }
}

/// True when `e` is an actor's memory-budget refusal: the environment,
/// not damage.
fn refused(e: &SimError) -> bool {
    let SimError::ActorFailure { reason, .. } = e else { return false };
    matches!(reason.downcast_ref(), Some(ReplayError::Memory(_)))
}

/// Replays an in-memory trace: [`Replay`] over [`Input::memory`].
pub fn replay_memory(
    trace: &TiTrace,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    Replay::new(Input::memory(trace), platform, hosts, cfg).run()
}

/// Replays a shared compact trace: [`Replay`] over [`Input::compact`].
pub fn replay_compact(
    trace: &Arc<tit_core::CompactTrace>,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    Replay::new(Input::compact(trace), platform, hosts, cfg).run()
}

/// Like [`replay_compact`], with an extra observer
/// ([`Replay::observer`]).
pub fn replay_compact_observed(
    trace: &Arc<tit_core::CompactTrace>,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    extra: Option<Box<dyn Observer>>,
) -> Result<ReplayOutcome, ReplayError> {
    Replay::new(Input::compact(trace), platform, hosts, cfg).observer(extra).run()
}

/// [`Replay`] with an observer, a checkpoint file written every
/// `checkpoint.1` actions, and an optional resume state.
pub fn run_checkpointed(
    input: Input,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    extra: Option<Box<dyn Observer>>,
    checkpoint: Option<(&Path, u64)>,
    resume: Option<ReplayCheckpoint>,
) -> Result<ReplayOutcome, ReplayError> {
    Replay::new(input, platform, hosts, cfg)
        .observer(extra)
        .checkpoint(checkpoint.map(|(path, _)| path.to_path_buf()))
        .pause_every(checkpoint.map_or(0, |(_, every)| every))
        .resume(resume)
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SegmentCache;
    use crate::testkit::{busy_trace, mycluster, plain_cfg, ring_trace, tmp_dir};
    use simkern::observer::Collector;
    use tit_core::membudget::MemBudget;
    use tit_core::tib2::{write_compact_atomic, Tib2Store};
    use tit_core::{Action, CompactTrace};

    #[test]
    fn figure_1_ring_replays_to_analytic_time() {
        let (p, hosts) = mycluster(4);
        let out = replay_memory(&ring_trace(), p, &hosts, &plain_cfg()).unwrap();
        // Four sequential hops: compute 1e6/1.17e9 + transfer 1e6/1.25e8
        // + 3 hop latencies each.
        let hop = 1e6 / 1.17e9 + 1e6 / 1.25e8 + 3.0 * 16.67e-6;
        let expect = 4.0 * hop;
        let rel = (out.simulated_time - expect).abs() / expect;
        assert!(
            rel < 1e-9,
            "ring: expected {expect}, got {} (rel {rel})",
            out.simulated_time
        );
        assert_eq!(out.actions_replayed, 12);
    }

    #[test]
    fn replay_is_deterministic() {
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let a = replay_memory(&ring_trace(), p1, &hosts, &plain_cfg()).unwrap();
        let b = replay_memory(&ring_trace(), p2, &hosts, &plain_cfg()).unwrap();
        assert_eq!(a.simulated_time, b.simulated_time);
    }

    #[test]
    fn exchange_with_irecv_wait_does_not_deadlock() {
        // Two ranks post Irecv first, then a (rendezvous) send, then wait:
        // the LU benchmark's exchange pattern.
        let mut t = TiTrace::new(2);
        for (me, other) in [(0usize, 1usize), (1, 0)] {
            t.push(me, Action::Irecv { src: other, bytes: None });
            t.push(me, Action::Send { dst: other, bytes: 1e6 });
            t.push(me, Action::Wait);
        }
        let (p, hosts) = mycluster(2);
        let out = replay_memory(&t, p, &hosts, &plain_cfg()).unwrap();
        // Both transfers share both NICs; either way it takes at least one
        // transfer time.
        assert!(out.simulated_time >= 1e6 / 1.25e8);
    }

    #[test]
    fn collectives_replay_on_all_ranks() {
        let n = 8;
        let mut t = TiTrace::new(n);
        for r in 0..n {
            t.push(r, Action::CommSize { nproc: n });
            t.push(r, Action::Bcast { bytes: 1e5 });
            t.push(r, Action::AllReduce { vcomm: 1e4, vcomp: 1e6 });
            t.push(r, Action::Barrier);
        }
        let (p, hosts) = mycluster(n);
        let out = replay_memory(&t, p, &hosts, &plain_cfg()).unwrap();
        assert!(out.simulated_time > 0.0);
        assert_eq!(out.actions_replayed, (n * 4) as u64);
    }

    #[test]
    fn binomial_beats_flat_bcast() {
        let n = 16;
        let mut t = TiTrace::new(n);
        for r in 0..n {
            t.push(r, Action::CommSize { nproc: n });
            t.push(r, Action::Bcast { bytes: 1e6 });
        }
        let (p1, hosts) = mycluster(n);
        let (p2, _) = mycluster(n);
        let bino = replay_memory(&t, p1, &hosts, &plain_cfg()).unwrap();
        let flat_cfg = ReplayConfig { algo: CollectiveAlgo::Flat, ..plain_cfg() };
        let flat = replay_memory(&t, p2, &hosts, &flat_cfg).unwrap();
        assert!(
            bino.simulated_time < flat.simulated_time,
            "binomial {} vs flat {}",
            bino.simulated_time,
            flat.simulated_time
        );
    }

    #[test]
    fn timed_trace_records_cover_all_ops() {
        let (p, hosts) = mycluster(4);
        let records = Collector::new();
        let out = Replay::new(Input::memory(&ring_trace()), p, &hosts, &plain_cfg())
            .observer(Some(records.sink()))
            .run()
            .unwrap();
        let recs = records.take();
        // 12 actions, each one kernel op.
        assert_eq!(recs.len(), 12);
        // Records end no later than the simulated time and are plausible.
        for r in &recs {
            assert!(r.start >= 0.0 && r.end <= out.simulated_time + 1e-12);
            assert!(r.start <= r.end);
        }
    }

    #[test]
    fn kernel_profiling_does_not_perturb_simulation() {
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let plain = replay_memory(&ring_trace(), p1, &hosts, &plain_cfg()).unwrap();
        let cfg = ReplayConfig { kernel_profile: true, ..plain_cfg() };
        let prof = replay_memory(&ring_trace(), p2, &hosts, &cfg).unwrap();
        assert_eq!(plain.simulated_time, prof.simulated_time);
        assert!(plain.kernel_profile.is_none(), "off by default");
        let kp = prof.kernel_profile.expect("profile present when requested");
        assert!(kp.ops_completed > 0);
        assert!(kp.solver.solves > 0);
        assert!(kp.heap_pushes >= kp.heap_pops);
        assert!(kp.wall.total_s > 0.0);
    }

    #[test]
    fn unbalanced_trace_deadlocks_with_diagnostic() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Recv { src: 1, bytes: None });
        let (p, hosts) = mycluster(2);
        let err = replay_memory(&t, p, &hosts, &plain_cfg()).unwrap_err();
        match &err {
            ReplayError::Sim(simkern::SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].actor, 0, "rank 0 is the one left hanging");
                assert_eq!(blocked[0].kind, Some(simkern::OpKind::Recv));
            }
            other => panic!("expected a deadlock, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("p0"), "diagnostic must name the rank: {msg}");
    }

    #[test]
    fn mpi_cluster_model_slows_bulk_transfers() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Send { dst: 1, bytes: 1e7 });
        t.push(1, Action::Recv { src: 0, bytes: None });
        let (p1, hosts) = mycluster(2);
        let (p2, _) = mycluster(2);
        let plain = replay_memory(&t, p1, &hosts, &plain_cfg()).unwrap();
        let mpi = replay_memory(&t, p2, &hosts, &ReplayConfig::default()).unwrap();
        assert!(mpi.simulated_time > plain.simulated_time);
    }

    #[test]
    fn expired_deadline_returns_quantified_partial() {
        let trace = Arc::new(CompactTrace::from_trace(&busy_trace(50)).unwrap());
        let (p, hosts) = mycluster(4);
        let out = Replay::new(Input::compact(&trace), p, &hosts, &plain_cfg())
            .pause_every(4)
            .deadline(Budget::limited(Duration::ZERO))
            .run()
            .unwrap();
        assert_eq!(out.status, Status::Stopped(Stop::Deadline));
        let ratio = out.completeness();
        assert!(ratio < 1.0, "a zero budget cannot finish 50 iterations: {ratio}");
        assert!(ratio >= 0.0);
        assert!(out.paused.is_none(), "deadline partials are final");
    }

    #[test]
    fn dropped_rank_subset_becomes_quantified_damage_not_error() {
        let trace = Arc::new(CompactTrace::from_trace(&busy_trace(3)).unwrap());
        // Rank 2's actions are dropped: its peers eventually deadlock.
        let (p, hosts) = mycluster(4);
        let out = Replay::new(Input::compact(&trace).without_ranks(&[2]), p, &hosts, &plain_cfg())
            .tolerate_damage(true)
            .run()
            .unwrap();
        assert_eq!(out.status, Status::Stopped(Stop::Damaged));
        assert!(out.completeness() < 1.0);
        let detail = out.failure.expect("damage detail");
        assert!(!detail.is_empty());

        // Without tolerance the same subset is a hard error.
        let (p2, _) = mycluster(4);
        Replay::new(Input::compact(&trace).without_ranks(&[2]), p2, &hosts, &plain_cfg())
            .run()
            .unwrap_err();
    }

    /// The inputs of the mode matrix, all carrying the same trace.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Memory,
        Files,
        Compact,
        Store,
        EvictingStore,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mode {
        Plain,
        /// Checkpoint every k actions; stop after the given count of
        /// them and resume from the file, or never stop.
        Checkpointed(u64, Option<u64>),
        /// Pause every k actions with preemption always on, resume from
        /// the state in memory.
        Sliced(u64),
        /// Damage tolerance on, through the salvage scans where the
        /// input has one.
        Tolerant,
    }

    struct Fixture {
        trace: TiTrace,
        compact: Arc<CompactTrace>,
        dir: std::path::PathBuf,
        store: Arc<Tib2Store>,
        /// Room for one decoded segment per rank plus one: far less
        /// than the whole store, so a replay must evict.
        evicting_budget: u64,
    }

    impl Fixture {
        fn new(tag: &str) -> Self {
            Fixture::with(tag, busy_trace(6), 8)
        }

        /// `trace` as every input, its store cut every `seg_actions`
        /// actions (`0` = the default segment size).
        fn with(tag: &str, trace: TiTrace, seg_actions: usize) -> Self {
            let dir = tmp_dir(tag);
            trace.save_per_process(&dir).unwrap();
            let compact = Arc::new(CompactTrace::from_trace(&trace).unwrap());
            write_compact_atomic(&dir.join("trace.tib2"), &compact, seg_actions).unwrap();
            let store = Arc::new(Tib2Store::open(&dir.join("trace.tib2")).unwrap());
            let segs: Vec<u64> = (0..4)
                .flat_map(|r| (0..store.num_segments(r)).map(move |s| (r, s)))
                .map(|(r, s)| store.segment_meta(r, s).unwrap().decoded_bytes())
                .collect();
            let evicting_budget = 5 * segs.iter().max().unwrap();
            assert!(segs.iter().sum::<u64>() > evicting_budget, "budget must force evictions");
            Fixture { trace, compact, dir, store, evicting_budget }
        }

        fn input(&self, kind: Kind, salvage: bool) -> Input {
            let store = |budget| {
                let cache = Arc::new(SegmentCache::new(Arc::clone(&self.store), Arc::new(budget)));
                if salvage { Input::salvage_store(&cache) } else { Input::store(&cache) }
            };
            match kind {
                Kind::Memory => Input::memory(&self.trace),
                Kind::Files if salvage => Input::salvage_files(&self.dir, 4),
                Kind::Files => Input::files(&self.dir, 4),
                Kind::Compact => Input::compact(&self.compact),
                Kind::Store => store(MemBudget::unlimited()),
                Kind::EvictingStore => store(MemBudget::new(self.evicting_budget)),
            }
        }

        /// Runs one cell to the end, resuming across every stop; returns
        /// every run's outcome, the finished one last.
        fn run(&self, kind: Kind, mode: Mode, cfg: &ReplayConfig) -> Vec<ReplayOutcome> {
            let always = AtomicBool::new(true);
            let ck = self.dir.join(format!("{kind:?}.tick"));
            let tolerant = mode == Mode::Tolerant;
            let mut runs = Vec::new();
            let mut resume = None;
            loop {
                let (p, hosts) = mycluster(4);
                let replay = Replay::new(self.input(kind, tolerant), p, &hosts, cfg)
                    .tolerate_damage(tolerant)
                    .resume(resume.take());
                let mut out = match mode {
                    Mode::Checkpointed(k, stop) => {
                        replay.checkpoint(Some(ck.clone())).pause_every(k).stop_after(stop)
                    }
                    Mode::Sliced(k) => replay.pause_every(k).preempt(Some(&always)),
                    Mode::Plain | Mode::Tolerant => replay,
                }
                .run()
                .unwrap();
                let finished = matches!(out.status, Status::Finished { .. });
                if !finished {
                    resume = match mode {
                        Mode::Checkpointed(..) => Some(ReplayCheckpoint::load(&ck).unwrap()),
                        _ => out.paused.take(),
                    };
                }
                runs.push(out);
                if finished {
                    return runs;
                }
                assert!(runs.len() < 10_000, "{kind:?} × {mode:?}: runaway resume loop");
            }
        }
    }

    /// Every input × mode cell gives the plain memory replay's
    /// simulated-time bits and action count, with completeness 1.
    #[test]
    fn every_input_and_mode_matches_the_plain_memory_replay() {
        let fx = Fixture::new("matrix");
        let cfg = plain_cfg();
        let (p, hosts) = mycluster(4);
        let reference = replay_memory(&fx.trace, p, &hosts, &cfg).unwrap();
        let kinds = [Kind::Memory, Kind::Files, Kind::Compact, Kind::Store, Kind::EvictingStore];
        let modes = [
            Mode::Plain,
            // Stop and resume at every boundary.
            Mode::Checkpointed(1, Some(1)),
            // Each run writes one checkpoint, carries on, and stops at
            // the next.
            Mode::Checkpointed(7, Some(2)),
            // Checkpoints along the way, no stop.
            Mode::Checkpointed(5, None),
            Mode::Sliced(3),
            Mode::Sliced(19),
            Mode::Tolerant,
        ];
        for kind in kinds {
            for mode in modes {
                let runs = fx.run(kind, mode, &cfg);
                let last = runs.last().unwrap();
                let cell = format!("{kind:?} × {mode:?}");
                assert_eq!(
                    last.simulated_time.to_bits(),
                    reference.simulated_time.to_bits(),
                    "{cell}"
                );
                assert_eq!(last.actions_replayed, reference.actions_replayed, "{cell}");
                assert_eq!(last.completeness(), 1.0, "{cell}");
                assert!(!last.is_partial(), "{cell}");
                match mode {
                    Mode::Checkpointed(_, Some(n)) => {
                        assert!(runs.len() > 2, "{cell}: never stopped");
                        for out in &runs[..runs.len() - 1] {
                            assert_eq!(out.status, Status::Stopped(Stop::StopAfter), "{cell}");
                            assert_eq!(out.checkpoints_written, n, "{cell}");
                        }
                    }
                    Mode::Checkpointed(_, None) => {
                        assert_eq!(runs.len(), 1, "{cell}: stopped with no stop condition");
                        assert!(last.checkpoints_written > 1, "{cell}: checkpoints not written");
                    }
                    Mode::Sliced(_) => assert!(runs.len() > 2, "{cell}: never stopped"),
                    Mode::Plain | Mode::Tolerant => assert_eq!(runs.len(), 1, "{cell}"),
                }
            }
        }
        std::fs::remove_dir_all(&fx.dir).unwrap();
    }

    /// `kernel` and `kernel_profile` reach the engine in every mode:
    /// the reference kernel never solves partially, the incremental one
    /// does, and both land on the same simulated time.
    #[test]
    fn kernel_choice_and_profile_apply_in_every_mode() {
        let fx = Fixture::new("kernel");
        let cells = [
            (Kind::Files, Mode::Checkpointed(7, Some(2))),
            (Kind::Compact, Mode::Sliced(5)),
            (Kind::Files, Mode::Tolerant),
            (Kind::Store, Mode::Tolerant),
        ];
        for (kind, mode) in cells {
            let run = |kernel| {
                let cfg = ReplayConfig { kernel, kernel_profile: true, ..plain_cfg() };
                let runs = fx.run(kind, mode, &cfg);
                let partial: u64 = runs
                    .iter()
                    .map(|o| o.kernel_profile.as_ref().expect("profile").solver.partial_solves)
                    .sum();
                (runs.last().unwrap().simulated_time, partial)
            };
            let (t_ref, partial_ref) = run(KernelMode::Reference);
            let (t_inc, partial_inc) = run(KernelMode::Incremental);
            assert_eq!(partial_ref, 0, "{kind:?} × {mode:?}: reference solved partially");
            assert!(partial_inc > 0, "{kind:?} × {mode:?}: incremental never solved partially");
            assert_eq!(t_ref.to_bits(), t_inc.to_bits(), "{kind:?} × {mode:?}");
        }
        std::fs::remove_dir_all(&fx.dir).unwrap();
    }

    /// Ranks that span several text chunks and store segments: a 4-rank
    /// SPMD trace of `per_rank` actions per rank whose `reduce` and
    /// `allReduce` entries sit on both sides of every multiple of 4096
    /// (text chunks, default segments) and of 1000 (small segments),
    /// each with its own second volume, so a misplaced side-table index
    /// changes the simulated time.
    fn long_trace(per_rank: usize) -> TiTrace {
        let n = 4;
        let edge = |i: usize| {
            i > 0 && (i % 4096 <= 1 || i % 4096 == 4095 || i % 1000 <= 1 || i % 1000 == 999)
        };
        let mut t = TiTrace::new(n);
        for r in 0..n {
            let actions = &mut t.actions[r];
            actions.push(Action::CommSize { nproc: n });
            while actions.len() < per_rank {
                let i = actions.len();
                let (vcomm, vcomp) = (1e3, 1e4 + i as f64);
                if edge(i) && i.is_multiple_of(2) {
                    actions.push(Action::Reduce { vcomm, vcomp });
                } else if edge(i) {
                    actions.push(Action::AllReduce { vcomm, vcomp });
                } else if i % 16 == 5 && !(i..i + 4).any(edge) {
                    actions.push(Action::Irecv { src: (r + n - 1) % n, bytes: None });
                    actions.push(Action::Isend { dst: (r + 1) % n, bytes: 1e4 + i as f64 });
                    actions.push(Action::Wait);
                    actions.push(Action::Wait);
                } else {
                    actions.push(Action::Compute { flops: 1e5 * (1 + (i + r) % 7) as f64 });
                }
            }
        }
        t
    }

    /// The rank, communicator size and action cursor each saved actor
    /// state holds.
    fn cursors(ck: &ReplayCheckpoint) -> Vec<u64> {
        ck.engine
            .actors
            .iter()
            .filter_map(|a| a.state.as_deref())
            .map(|state| {
                let mut d = tit_core::checkpoint::Dec::new(state);
                let (_rank, _nproc) = (d.usize().unwrap(), d.usize().unwrap());
                d.u64().unwrap()
            })
            .collect()
    }

    /// Long ranks replay bit-identically through every input: memory and
    /// compact (one resident chunk per rank), streamed text (4096-action
    /// chunks), resident stores at the default and at a 1000-action
    /// segment size, an evicting store, and both salvage scans.
    #[test]
    fn long_ranks_replay_identically_through_every_input() {
        let trace = long_trace(9000);
        let small = Fixture::with("long-small", trace.clone(), 1000);
        let default = Fixture::with("long-default", trace, 0);
        assert!(small.store.num_segments(0) >= 9 && default.store.num_segments(0) == 3);
        let cfg = plain_cfg();
        let (p, hosts) = mycluster(4);
        let reference = replay_memory(&small.trace, p, &hosts, &cfg).unwrap();
        let cells = [
            (&small, Kind::Memory, Mode::Plain),
            (&small, Kind::Compact, Mode::Plain),
            (&small, Kind::Files, Mode::Plain),
            (&small, Kind::Store, Mode::Plain),
            (&default, Kind::Store, Mode::Plain),
            (&small, Kind::EvictingStore, Mode::Plain),
            (&small, Kind::Files, Mode::Tolerant),
            (&small, Kind::Store, Mode::Tolerant),
        ];
        for (fx, kind, mode) in cells {
            let last = fx.run(kind, mode, &cfg).pop().unwrap();
            let cell = format!("{kind:?} × {mode:?}, {} segments", fx.store.num_segments(0));
            let (got, want) = (last.simulated_time.to_bits(), reference.simulated_time.to_bits());
            assert_eq!(got, want, "{cell}");
            assert_eq!(last.actions_replayed, 4 * 9000, "{cell}");
            assert_eq!(last.completeness(), 1.0, "{cell}");
        }
        std::fs::remove_dir_all(&small.dir).unwrap();
        std::fs::remove_dir_all(&default.dir).unwrap();
    }

    /// Checkpoint and resume the streamed-text and store inputs every
    /// 4095, 4096 and 4097 actions: the 4-rank SPMD trace advances its
    /// ranks nearly in step, so every fourth stop seeks each cursor to
    /// just before, onto or just past a chunk and segment boundary.
    /// Each cell ends on the uninterrupted run's time bits.
    #[test]
    fn resume_seeks_across_chunk_boundaries() {
        let trace = long_trace(9000);
        let small = Fixture::with("seek-small", trace.clone(), 1000);
        let default = Fixture::with("seek-default", trace, 0);
        let cfg = plain_cfg();
        let (p, hosts) = mycluster(4);
        let reference = replay_memory(&small.trace, p, &hosts, &cfg).unwrap();
        for every in [4095, 4096, 4097] {
            let mut seen = Vec::new();
            let cells = [
                (&small, Kind::Files),
                (&default, Kind::Files),
                (&small, Kind::Store),
                (&default, Kind::Store),
            ];
            for (fx, kind) in cells {
                let runs = fx.run(kind, Mode::Checkpointed(every, Some(1)), &cfg);
                let cell = format!("{kind:?} every {every}, {} segments", fx.store.num_segments(0));
                assert!(runs.len() >= 8, "{cell}: {} runs", runs.len());
                for out in &runs[..runs.len() - 1] {
                    seen.extend(cursors(out.paused.as_ref().expect("a stop exports its state")));
                }
                let last = runs.last().unwrap();
                let want = reference.simulated_time.to_bits();
                assert_eq!(last.simulated_time.to_bits(), want, "{cell}");
                assert_eq!(last.actions_replayed, reference.actions_replayed, "{cell}");
            }
            // The fourth stop seeks cursors to exactly `every`: the last
            // action of a chunk, the first of the next, or the second.
            assert!(seen.contains(&every), "every {every}: cursors {seen:?}");
        }
        std::fs::remove_dir_all(&small.dir).unwrap();
        std::fs::remove_dir_all(&default.dir).unwrap();
    }

    /// A defective line past the first text chunk is reported only when
    /// the replay reaches it, in the streamed reader's words; the same
    /// trace with a deadlock earlier in that chunk reports the deadlock.
    #[test]
    fn text_errors_arrive_in_stream_order() {
        let dir = tmp_dir("deferred");
        long_trace(9000).save_per_process(&dir).unwrap();
        let path = dir.join("SG_process1.trace");
        let clean = std::fs::read_to_string(&path).unwrap();
        let edit = |edits: &[(usize, &str)]| {
            let mut lines: Vec<&str> = clean.lines().collect();
            for &(line, text) in edits {
                lines[line - 1] = text;
            }
            std::fs::write(&path, lines.join("\n") + "\n").unwrap();
            let (p, hosts) = mycluster(4);
            Replay::new(Input::files(&dir, 4), p, &hosts, &plain_cfg()).run().unwrap_err()
        };
        let shown = path.display();
        for (bad, want) in [
            (
                "p1 frobnicate 1",
                format!(
                    "rank 1: trace read failed: {shown}: trace parse error at line 5001: \
                     unknown action keyword \"frobnicate\""
                ),
            ),
            (
                "p2 wait",
                format!(
                    "rank 1: trace read failed: {shown}: line 5001: trace line for p2 in p1's file"
                ),
            ),
        ] {
            assert_eq!(edit(&[(5001, bad)]).to_string(), want);
            // Rank 2 never sends to rank 1: rank 1 blocks at line 4501,
            // before the defective line of the same chunk.
            let err = edit(&[(4501, "p1 recv p2"), (5001, bad)]);
            assert!(
                matches!(err, ReplayError::Sim(simkern::SimError::Deadlock { .. })),
                "{bad}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Resuming against a trace shortened after the checkpoint fails
    /// closed, naming where the rank's trace now ends: streamed files,
    /// a compact trace (rebalanced so its action count, the checkpoint
    /// salt, is unchanged) and a store whose rank 0 a salvage scan trims
    /// at a damaged first segment (the footer, the salt, is intact).
    #[test]
    fn resume_against_a_shortened_trace_is_a_checkpoint_error() {
        let fx = Fixture::new("shortened");
        let always = AtomicBool::new(true);
        let run = |input: Input, resume: Option<ReplayCheckpoint>| {
            let (p, hosts) = mycluster(4);
            Replay::new(input, p, &hosts, &plain_cfg())
                .pause_every(20)
                .preempt(Some(&always))
                .resume(resume)
                .run()
        };
        let paused = |input: Input| run(input, None).unwrap().paused.expect("preempted state");
        let shortened = |input: Input, ck: ReplayCheckpoint, at: usize| {
            let err = run(input, Some(ck)).unwrap_err();
            assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
            let want = format!("rank 0: trace ended at action {at} but the checkpoint consumed");
            assert!(err.to_string().contains(&want), "{err}");
        };

        let ck = paused(Input::files(&fx.dir, 4));
        let rank0 = fx.dir.join("SG_process0.trace");
        let text = std::fs::read_to_string(&rank0).unwrap();
        let kept: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&rank0, kept.join("\n") + "\n").unwrap();
        shortened(Input::files(&fx.dir, 4), ck, 2);

        let ck = paused(Input::compact(&fx.compact));
        let mut t = fx.trace.clone();
        let cut = t.actions[0].split_off(2).len();
        t.actions[3].extend(std::iter::repeat_n(Action::Compute { flops: 1.0 }, cut));
        shortened(Input::compact(&Arc::new(CompactTrace::from_trace(&t).unwrap())), ck, 2);

        let salvage = |store: &Arc<Tib2Store>| {
            let budget = Arc::new(MemBudget::unlimited());
            Input::salvage_store(&Arc::new(SegmentCache::new(Arc::clone(store), budget)))
        };
        let ck = paused(salvage(&fx.store));
        let path = fx.dir.join("trace.tib2");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[fx.store.segment_meta(0, 0).unwrap().offset as usize + 20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        shortened(salvage(&Arc::new(Tib2Store::open(&path).unwrap())), ck, 0);
        std::fs::remove_dir_all(&fx.dir).unwrap();
    }

    /// A memory trace the columns cannot hold is a typed error naming
    /// the rank, not a replay of a made-up time.
    #[test]
    fn memory_input_rejects_nan_volumes() {
        for bad in [Action::Compute { flops: f64::NAN }, Action::Send { dst: 0, bytes: f64::NAN }] {
            let mut t = ring_trace();
            t.push(2, bad);
            let (p, hosts) = mycluster(4);
            match replay_memory(&t, p, &hosts, &plain_cfg()) {
                Err(ReplayError::Trace { rank: 2, detail }) => {
                    assert!(detail.contains("NaN volume"), "{detail}");
                }
                other => panic!("{bad:?}: expected a rank 2 trace error, got {other:?}"),
            }
        }
    }
}
