//! The discrete-event engine.
//!
//! The engine owns the platform, the bandwidth-sharing solver, the set of
//! in-flight *activities* (computations and transfers), the rendezvous
//! *mailboxes*, and the *actors* (simulated processes). Simulation
//! advances by alternating two phases:
//!
//! 1. **Drain the run queue** — every runnable actor is stepped; steps post
//!    operations (which may create activities or complete instantly) and
//!    end with the actor blocked on one operation or terminated.
//! 2. **Advance time** — activity progress is integrated at the rates the
//!    max-min solver assigned, up to the next event (an activity
//!    completing, a flow finishing its latency phase, a sleep expiring).
//!
//! Rates are recomputed *incrementally* whenever the set of activities
//! changes: the solver re-solves only the resource islands that were
//! touched and reports which rates moved; their completion predictions
//! are updated in place in an indexed heap. Cost per event is therefore
//! proportional to the affected island, not to the whole platform —
//! which is what keeps thousand-process replays tractable (the
//! simulation-time concern of the paper's Section 6.6).
//!
//! Point-to-point semantics follow the paper's replay tool: a send and a
//! matching receive rendezvous through a mailbox keyed by (source,
//! destination, channel); the flow starts when both sides are present,
//! first paying the route latency, then transferring at the shared
//! bandwidth. Sends below the eager threshold complete for the sender at
//! post time (buffered mode); larger sends complete when the transfer does
//! (synchronous mode).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::actor::{Actor, Step, Wake};
use crate::error::{OpKind, SimError, WaitFor};
use crate::fxhash::FxHashMap;
use crate::lmm;
use crate::netmodel::NetworkConfig;
use crate::observer::{Observer, OpRecord};
use crate::resource::{HostId, Platform, Route};
use crate::slab::Slab;
use crate::snapshot::{ActorSnap, EngineSnapshot, MailboxSnap, SlabSnap};

/// Which kernel implementation drives the run (docs/KERNEL.md §1).
///
/// Both modes are required to produce **bit-identical** simulated
/// times, observer timelines and final states; `Reference` exists so
/// the fast path can be differentially tested against a kernel simple
/// enough to be obviously correct (tests/kernel_oracle.rs in the
/// replay crate pins the pair on every workload family). The modes
/// differ only in how rates and completion predictions are kept
/// current; both queue timed events in the same binary heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Oracle path: full LMM re-solve on every change, eager
    /// completion re-keying. O(platform) per event.
    Reference,
    /// Production path: incremental island solves, lazy completion
    /// re-keying. O(island) per event.
    #[default]
    Incremental,
}

/// Handle to a posted operation (compute, isend, irecv, sleep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// The raw slab key, for checkpoint serialization only.
    pub fn to_raw(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw key captured by
    /// [`to_raw`](OpId::to_raw). A forged or stale key is safe: waiting
    /// on an op that does not exist or belongs to another actor is a
    /// checked protocol error, not a panic.
    pub fn from_raw(raw: usize) -> Self {
        OpId(raw)
    }
}

/// Index of a spawned actor (the replayer spawns rank order, so this is
/// the MPI rank).
pub type ActorId = usize;

/// Rendezvous mailbox address.
///
/// `chan` separates independent message streams between the same pair of
/// processes (e.g. application point-to-point traffic vs. the
/// point-to-point decomposition of collectives); matching is FIFO within a
/// mailbox, which mirrors MPI's non-overtaking guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MailboxKey {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Channel discriminator (application vs. collective traffic).
    pub chan: u8,
}

impl MailboxKey {
    /// Application point-to-point channel.
    pub fn p2p(src: usize, dst: usize) -> Self {
        MailboxKey { src: src as u32, dst: dst as u32, chan: 0 }
    }

    /// Collective-implementation channel.
    pub fn coll(src: usize, dst: usize) -> Self {
        MailboxKey { src: src as u32, dst: dst as u32, chan: 1 }
    }
}

const EPS_REMAINING: f64 = 1e-6;

// The engine's records below are plain public data: an
// [`EngineSnapshot`](crate::snapshot::EngineSnapshot) holds them as
// they are, and the checkpoint codec reads and writes their fields.

/// Whether a posted operation has completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpState {
    /// Still running (or waiting for its rendezvous).
    Pending,
    /// Completed but not yet delivered to a waiter.
    Complete,
}

/// One posted operation (an op slab entry).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Owning actor.
    pub actor: ActorId,
    /// Operation kind.
    pub kind: OpKind,
    /// Observer tag.
    pub tag: u32,
    /// Simulated post time.
    pub t_start: f64,
    /// Volume (flops or bytes).
    pub volume: f64,
    /// Mailbox the op rendezvouses through (communications only) — kept
    /// so a deadlock report can say *which* channel never matched.
    pub mailbox: Option<MailboxKey>,
    /// Completion state.
    pub state: OpState,
}

/// Who owns an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A CPU burst completing op `op`.
    Exec {
        /// The op the burst completes.
        op: OpId,
    },
    /// A network flow of comm `comm`.
    Comm {
        /// Comm slab key.
        comm: usize,
    },
}

/// One in-flight activity, a computation or a transfer (an activity
/// slab entry).
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Solver variable carrying the activity's rate.
    pub var: lmm::VarId,
    /// Work left, partially integrated: a snapshot carries it verbatim,
    /// it is never recomputed from the op volume.
    pub remaining: f64,
    /// Rate the solver last assigned.
    pub rate: f64,
    /// Simulated time at which `remaining` was last integrated.
    pub t_last: f64,
    /// Owning op or comm.
    pub owner: Owner,
}

impl Activity {
    /// Predicted completion time under the current rate, `None` while
    /// the rate is zero. `remaining` is integrated to `t_last`, so this
    /// is the prediction made when the rate was assigned, bit for bit.
    pub fn predicted_completion(&self) -> Option<f64> {
        (self.rate > 0.0).then(|| self.t_last + self.remaining / self.rate)
    }
}

/// Rendezvous progress of a communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommState {
    /// Rendezvous send waiting for its receive before the flow starts.
    Unlaunched,
    /// Flow in progress (latency phase or transfer).
    InFlight,
    /// Eager flow completed before the receive was posted (data buffered
    /// at the receiver).
    Arrived,
}

/// One communication (a comm slab entry).
#[derive(Debug, Clone, PartialEq)]
pub struct Comm {
    /// Message size, bytes.
    pub size: f64,
    /// Sending host.
    pub src_host: HostId,
    /// Receiving host.
    pub dst_host: HostId,
    /// The send op.
    pub send_op: OpId,
    /// The receive op, once matched.
    pub recv_op: Option<OpId>,
    /// True when the sender's op was completed eagerly at post time;
    /// eager flows also start immediately, without waiting for the
    /// rendezvous (buffered mode), so their latency overlaps with
    /// whatever the receiver is doing — essential for pipelined
    /// applications like LU.
    pub eager: bool,
    /// Rendezvous progress.
    pub state: CommState,
}

#[derive(Default)]
struct Mailbox {
    /// Sends not yet claimed by a receive, in post order (MPI's
    /// non-overtaking rule): unlaunched rendezvous sends, in-flight
    /// eager flows, and buffered arrivals alike.
    comms: VecDeque<usize>,
    /// Receives posted before their matching send: (recv op, recv actor).
    recvs: VecDeque<(OpId, ActorId)>,
}

struct ActorSlot {
    actor: Option<Box<dyn Actor>>,
    host: HostId,
    waiting: Option<OpId>,
    alive: bool,
    phase: u64,
}

/// The payload of a timed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A flow finished its latency phase.
    LatencyDone {
        /// Comm slab key.
        comm: usize,
    },
    /// A sleep operation expired.
    SleepDone {
        /// The sleep op.
        op: OpId,
    },
}

/// A queued timed event, ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Absolute simulated time of the event.
    pub time: f64,
    /// Engine-wide sequence number (total tiebreak order).
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// The simulation engine. See module docs.
pub struct Engine {
    platform: Platform,
    net: NetworkConfig,
    mode: KernelMode,
    clock: f64,
    seq: u64,
    /// Timed events, a min-heap on the total `(time, seq)` order
    /// (docs/KERNEL.md §4).
    events: BinaryHeap<Reverse<Event>>,
    /// Predicted completion time per running activity (indexed heap:
    /// predictions are updated in place when rates change — or, in
    /// [`KernelMode::Incremental`], lazily marked stale when the true
    /// time only moved later; see docs/KERNEL.md §3).
    completions: crate::idxheap::IndexedHeap,
    lmm: lmm::System,
    cpu_cnst: Vec<lmm::CnstId>,
    link_cnst: Vec<Option<lmm::CnstId>>,
    activities: Slab<Activity>,
    ops: Slab<Op>,
    comms: Slab<Comm>,
    mailboxes: FxHashMap<MailboxKey, Mailbox>,
    actors: Vec<ActorSlot>,
    runq: VecDeque<(ActorId, Wake)>,
    /// Interned routes: resolved once per (src, dst) pair, then
    /// borrowed by index — no per-message route clone.
    routes: Vec<Route>,
    route_idx: FxHashMap<(u32, u32), u32>,
    /// Activity owning each solver variable (indexed by variable id).
    var_act: Vec<usize>,
    /// Scratch for the incremental solver.
    changed_vars: Vec<lmm::VarId>,
    /// Scratch constraint list for posting activities (the solver
    /// copies from the slice, so one buffer serves every post).
    cnst_scratch: Vec<lmm::CnstId>,
    /// Scratch activity ids for the reference full re-solve.
    ref_scratch: Vec<usize>,
    observer: Option<Box<dyn Observer>>,
    /// Count of ops completed, for throughput reporting.
    ops_completed: u64,
    /// First failure reported this run (actor failure channel or a
    /// protocol violation caught by the engine); checked after every
    /// run-queue drain.
    failure: Option<SimError>,
    /// Start wakes already enqueued? Restored engines resume with this
    /// set so actors are not started a second time.
    started: bool,
    /// Kernel self-profiling counters, allocated only while enabled so
    /// the disabled path costs one untaken branch per phase. Excluded
    /// from snapshots (profiling state, not simulation state).
    kprof: Option<Box<crate::kprof::KernelProfile>>,
}

/// How a [`Engine::run_until`] call ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunStatus {
    /// The simulation ran to completion at this simulated time.
    Completed(f64),
    /// The pause guard requested a stop at this simulated time; the
    /// engine is at a safe point and can be checkpointed or resumed
    /// with another `run_until` call.
    Paused(f64),
}

impl Engine {
    /// Creates an engine over `platform` with the default network config.
    pub fn new(platform: Platform) -> Self {
        let mut lmm = lmm::System::new();
        let cpu_cnst = platform
            .hosts
            .iter()
            .map(|h| lmm.new_constraint(h.speed * h.cores as f64))
            .collect();
        let link_cnst = platform
            .links
            .iter()
            .map(|l| match l.sharing {
                crate::resource::Sharing::Shared => Some(lmm.new_constraint(l.bandwidth)),
                crate::resource::Sharing::FatPipe => None,
            })
            .collect();
        Engine {
            platform,
            net: NetworkConfig::default(),
            mode: KernelMode::Incremental,
            clock: 0.0,
            seq: 0,
            events: BinaryHeap::new(),
            completions: crate::idxheap::IndexedHeap::new(),
            lmm,
            cpu_cnst,
            link_cnst,
            activities: Slab::new(),
            ops: Slab::new(),
            comms: Slab::new(),
            mailboxes: FxHashMap::default(),
            actors: Vec::new(),
            runq: VecDeque::new(),
            routes: Vec::new(),
            route_idx: FxHashMap::default(),
            var_act: Vec::new(),
            changed_vars: Vec::new(),
            cnst_scratch: Vec::new(),
            ref_scratch: Vec::new(),
            observer: None,
            ops_completed: 0,
            failure: None,
            started: false,
            kprof: None,
        }
    }

    /// Replaces the network configuration (before `run`).
    pub fn set_network_config(&mut self, net: NetworkConfig) {
        self.net = net;
    }

    /// Selects the kernel implementation (before `run`). Both modes
    /// simulate bit-identically — see [`KernelMode`].
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        assert!(!self.started, "kernel mode switched mid-run");
        self.mode = mode;
    }

    /// Installs an observer receiving one record per completed operation.
    pub fn set_observer(&mut self, obs: Box<dyn Observer>) {
        self.observer = Some(obs);
    }

    /// Turns on kernel self-profiling (see [`crate::kprof`]). Counters
    /// accumulate from this call on; the simulated outcome is
    /// byte-identical with or without profiling.
    pub fn enable_kernel_profiling(&mut self) {
        if self.kprof.is_none() {
            self.kprof = Some(Box::default());
        }
    }

    /// Detaches and returns the kernel profile (after `run`), with the
    /// solver counters and completed-op total filled in. `None` when
    /// profiling was never enabled.
    pub fn take_kernel_profile(&mut self) -> Option<crate::kprof::KernelProfile> {
        let mut kp = self.kprof.take()?;
        kp.solver = self.lmm.stats();
        kp.ops_completed = self.ops_completed;
        Some(*kp)
    }

    /// The simulated platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current simulated time, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Total operations completed so far.
    pub fn ops_completed(&self) -> u64 {
        self.ops_completed
    }

    /// Spawns an actor pinned to `host`; actor ids are assigned
    /// sequentially from 0.
    pub fn spawn(&mut self, actor: Box<dyn Actor>, host: HostId) -> ActorId {
        assert!((host.0 as usize) < self.platform.num_hosts(), "spawn on unknown host");
        self.actors.push(ActorSlot {
            actor: Some(actor),
            host,
            waiting: None,
            alive: true,
            phase: 0,
        });
        self.actors.len() - 1
    }

    /// Runs the simulation to completion. Every way a run can fail —
    /// deadlock, an actor reporting corrupt input through
    /// [`Step::Fail`], a protocol violation — comes back as a typed
    /// [`SimError`]; the engine never panics on bad input. Returns the
    /// simulated makespan in seconds.
    pub fn run_checked(&mut self) -> Result<f64, SimError> {
        match self.run_until(&mut |_| false)? {
            RunStatus::Completed(t) => Ok(t),
            // panics: the guard above never requests a pause
            RunStatus::Paused(_) => unreachable!("run_checked paused without a guard"),
        }
    }

    /// Runs the simulation until completion or until `pause` asks for a
    /// stop. The guard is consulted at every *safe point* — the top of
    /// the engine loop, where the run queue is drained, no failure is
    /// pending and activity rates are current — which is exactly where
    /// [`Engine::export_state`] is allowed. A paused engine continues
    /// with another `run_until` call; the guard is never consulted on
    /// an already-finished simulation.
    pub fn run_until(
        &mut self,
        pause: &mut dyn FnMut(&Engine) -> bool,
    ) -> Result<RunStatus, SimError> {
        let t_run = self.kprof.as_ref().map(|_| std::time::Instant::now());
        let result = self.run_loop(pause);
        if let (Some(t0), Some(kp)) = (t_run, self.kprof.as_mut()) {
            kp.wall.total_s += t0.elapsed().as_secs_f64();
        }
        result
    }

    fn run_loop(
        &mut self,
        pause: &mut dyn FnMut(&Engine) -> bool,
    ) -> Result<RunStatus, SimError> {
        if !self.started {
            self.started = true;
            for a in 0..self.actors.len() {
                self.runq.push_back((a, Wake::Start));
            }
        }
        loop {
            let t0 = self.kprof.as_ref().map(|_| std::time::Instant::now());
            self.drain_runq();
            if let (Some(t0), Some(kp)) = (t0, self.kprof.as_mut()) {
                kp.wall.drain_s += t0.elapsed().as_secs_f64();
            }
            if let Some(e) = self.failure.take() {
                return Err(e);
            }
            let t0 = self.kprof.as_ref().map(|_| std::time::Instant::now());
            self.resolve_if_dirty();
            if let (Some(t0), Some(kp)) = (t0, self.kprof.as_mut()) {
                kp.wall.solve_s += t0.elapsed().as_secs_f64();
            }
            self.refresh_stale_tops();
            // Next event: the earlier of the timed-event queue and the
            // earliest predicted activity completion (ties: timed events
            // first — they can only start new work, never unfinish it).
            let t_ev = self.events.peek().map(|Reverse(e)| e.time);
            let t_act = self.completions.peek().map(|(t, _)| t);
            if t_ev.is_none() && t_act.is_none() {
                break;
            }
            if pause(self) {
                return Ok(RunStatus::Paused(self.clock));
            }
            match (t_ev, t_act) {
                (None, None) => break,
                (Some(te), ta) if ta.map(|ta| te <= ta).unwrap_or(true) => {
                    let t0 = self.kprof.as_ref().map(|_| std::time::Instant::now());
                    // Batch: dispatch every timed event at exactly `te`
                    // before re-checking the pause guard — one trip
                    // through the loop head per *timestamp*, not per
                    // event. The drain/resolve interleaving is the same
                    // as the outer loop's, so the operation sequence
                    // (and thus every simulated bit) is unchanged.
                    loop {
                        // panics: kernel invariant; violation means simulator state corruption
                        let Reverse(ev) = self.events.pop().unwrap();
                        debug_assert!(ev.time >= self.clock - 1e-9);
                        self.clock = self.clock.max(ev.time);
                        if let Some(kp) = self.kprof.as_mut() {
                            kp.heap_pops += 1;
                            match ev.kind {
                                EventKind::LatencyDone { .. } => kp.latency_events += 1,
                                EventKind::SleepDone { .. } => kp.sleep_events += 1,
                            }
                        }
                        match ev.kind {
                            EventKind::LatencyDone { comm } => self.start_transfer(comm),
                            EventKind::SleepDone { op } => self.complete_op(op),
                        }
                        self.drain_runq();
                        if self.failure.is_some() {
                            break;
                        }
                        self.resolve_if_dirty();
                        match self.events.peek() {
                            Some(Reverse(e2)) if e2.time == te => {}
                            _ => break,
                        }
                    }
                    if let (Some(t0), Some(kp)) = (t0, self.kprof.as_mut()) {
                        kp.wall.events_s += t0.elapsed().as_secs_f64();
                    }
                }
                _ => {
                    let t0 = self.kprof.as_ref().map(|_| std::time::Instant::now());
                    // Batch same-deadline completions, same discipline
                    // as the event batch above. Timed events keep tie
                    // priority: an event pushed *during* the batch at
                    // this timestamp sends control back to the outer
                    // loop (new events are never earlier than the
                    // clock, so nothing can be skipped).
                    loop {
                        // panics: kernel invariant; violation means simulator state corruption
                        let (t, act) = self.completions.pop().unwrap();
                        debug_assert!(t >= self.clock - 1e-9);
                        self.clock = self.clock.max(t);
                        if let Some(kp) = self.kprof.as_mut() {
                            kp.completion_pops += 1;
                        }
                        self.finish_activity(act);
                        self.drain_runq();
                        if self.failure.is_some() {
                            break;
                        }
                        self.resolve_if_dirty();
                        self.refresh_stale_tops();
                        match self.completions.peek() {
                            Some((t2, _))
                                if t2 == t
                                    && !self
                                        .events
                                        .peek()
                                        .is_some_and(|Reverse(e)| e.time <= t2) => {}
                            _ => break,
                        }
                    }
                    if let (Some(t0), Some(kp)) = (t0, self.kprof.as_mut()) {
                        kp.wall.completions_s += t0.elapsed().as_secs_f64();
                    }
                }
            }
        }
        let blocked: Vec<WaitFor> = self
            .actors
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, s)| {
                let op = s.waiting.and_then(|op| self.ops.get(op.0));
                WaitFor {
                    actor: i,
                    kind: op.map(|o| o.kind),
                    tag: op.map(|o| o.tag).unwrap_or(u32::MAX),
                    mailbox: op.and_then(|o| o.mailbox),
                    volume: op.map(|o| o.volume).unwrap_or(0.0),
                    since: op.map(|o| o.t_start).unwrap_or(self.clock),
                }
            })
            .collect();
        if blocked.is_empty() {
            if let Some(obs) = self.observer.as_mut() {
                obs.engine_ended(self.clock);
            }
            Ok(RunStatus::Completed(self.clock))
        } else {
            Err(SimError::Deadlock { time: self.clock, blocked })
        }
    }

    /// Records the first failure of the run (later ones are byproducts of
    /// the aborted state and would only obscure the root cause).
    fn fail(&mut self, e: SimError) {
        if self.failure.is_none() {
            self.failure = Some(e);
        }
    }

    // ------------------------------------------------------------------
    // Event machinery

    fn push_event(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Event { time, seq: self.seq, kind }));
        if let Some(kp) = self.kprof.as_mut() {
            kp.heap_pushes += 1;
            kp.heap_peak = kp.heap_peak.max(self.events.len() as u64);
        }
    }

    /// Integrates an activity's progress up to the current clock.
    fn integrate(&mut self, act: usize) {
        let a = &mut self.activities[act];
        let dt = self.clock - a.t_last;
        if dt > 0.0 && a.rate > 0.0 {
            a.remaining = (a.remaining - a.rate * dt).max(0.0);
        }
        a.t_last = self.clock;
    }

    /// Recomputes rates after an activity change and refreshes (or
    /// lazily invalidates) the affected completion predictions.
    fn resolve_if_dirty(&mut self) {
        if !self.lmm.is_dirty() {
            return;
        }
        match self.mode {
            KernelMode::Reference => self.resolve_reference(),
            KernelMode::Incremental => self.resolve_incremental(),
        }
        if let Some(kp) = self.kprof.as_mut() {
            kp.completions_peak = kp.completions_peak.max(self.completions.len() as u64);
        }
    }

    /// Oracle resolve: full system re-solve, eager re-key of every
    /// activity whose rate changed. O(platform) per call — simple
    /// enough to trust, slow enough to never ship.
    fn resolve_reference(&mut self) {
        self.lmm.solve();
        let mut acts = std::mem::take(&mut self.ref_scratch);
        acts.clear();
        acts.extend(self.activities.iter().map(|(id, _)| id));
        let mut updates = 0u64;
        for &act in &acts {
            let var = self.activities[act].var;
            let new_rate = self.lmm.rate(var);
            if new_rate == self.activities[act].rate {
                continue;
            }
            updates += 1;
            self.integrate(act);
            let a = &mut self.activities[act];
            a.rate = new_rate;
            match a.predicted_completion() {
                Some(t) => self.completions.set(act, t),
                None => self.completions.remove(act),
            }
        }
        if let Some(kp) = self.kprof.as_mut() {
            kp.completion_updates += updates;
        }
        self.ref_scratch = acts;
    }

    /// Production resolve: island-local re-solve; completion
    /// predictions that moved *earlier* are re-keyed eagerly, ones that
    /// moved *later* are only marked stale — their stored key remains a
    /// lower bound, refreshed if the entry ever reaches the heap top
    /// (docs/KERNEL.md §3). Most rate changes at scale are decreases on
    /// activities far from the heap top whose rate changes again before
    /// they surface, so the O(log n) re-key is skipped entirely.
    fn resolve_incremental(&mut self) {
        let mut changed = std::mem::take(&mut self.changed_vars);
        changed.clear();
        self.lmm.solve_dirty(&mut changed);
        let mut updates = 0u64;
        let mut lazy = 0u64;
        for v in &changed {
            let act = *self
                .var_act
                .get(v.0)
                // panics: kernel invariant; violation means simulator state corruption
                .expect("solver variable without an owning activity");
            if !self.activities.contains(act) {
                continue; // variable id reused after removal in this batch
            }
            self.integrate(act);
            let a = &mut self.activities[act];
            a.rate = self.lmm.rate(*v);
            match a.predicted_completion() {
                Some(t) => match self.completions.priority(act) {
                    Some(cur) if t > cur => {
                        // Later than the stored key: defer. The key
                        // stays a valid lower bound on `t`.
                        self.completions.mark_stale(act);
                        lazy += 1;
                    }
                    _ => {
                        self.completions.set(act, t);
                        updates += 1;
                    }
                },
                // Rate zero: completion at infinity — every stored key
                // is a lower bound. Defer; the top refresh removes the
                // entry if the rate is still zero when it surfaces.
                None => {
                    if self.completions.mark_stale(act) {
                        lazy += 1;
                    }
                }
            }
        }
        if let Some(kp) = self.kprof.as_mut() {
            kp.completion_updates += updates;
            kp.lazy_rekeys += lazy;
        }
        self.changed_vars = changed;
    }

    /// Re-keys stale entries that surfaced at the top of the completion
    /// heap. Because stale keys are lower bounds, no fresh entry can be
    /// hidden beneath a stale top — refreshing only the top yields the
    /// exact eager pop sequence.
    fn refresh_stale_tops(&mut self) {
        let mut refreshed = 0u64;
        while let Some((_, act)) = self.completions.peek() {
            if !self.completions.is_stale(act) {
                break;
            }
            match self.activities[act].predicted_completion() {
                Some(t) => self.completions.set(act, t),
                None => self.completions.remove(act),
            }
            refreshed += 1;
        }
        if refreshed > 0 {
            if let Some(kp) = self.kprof.as_mut() {
                kp.stale_pops += refreshed;
            }
        }
    }

    /// An activity's predicted completion has arrived: finish it.
    fn finish_activity(&mut self, act: usize) {
        self.integrate(act);
        debug_assert!(
            self.activities[act].remaining <= EPS_REMAINING.max(self.activities[act].rate * 1e-9),
            "activity popped before completion: {} left",
            self.activities[act].remaining
        );
        let a = self
            .activities
            .try_remove(act)
            // panics: kernel invariant; violation means simulator state corruption
            .expect("finish_activity: activity already retired");
        self.lmm.remove_variable(a.var);
        match a.owner {
            Owner::Exec { op } => self.complete_op(op),
            Owner::Comm { comm } => self.flow_finished(comm),
        }
    }

    /// Registers a new activity (rate assigned at the next resolve).
    fn add_activity(&mut self, var: lmm::VarId, remaining: f64, owner: Owner) -> usize {
        let act = self.activities.insert(Activity {
            var,
            remaining,
            rate: 0.0,
            t_last: self.clock,
            owner,
        });
        if var.0 >= self.var_act.len() {
            self.var_act.resize(var.0 + 1, usize::MAX);
        }
        self.var_act[var.0] = act;
        if let Some(kp) = self.kprof.as_mut() {
            kp.activities_peak = kp.activities_peak.max(self.activities.len() as u64);
        }
        act
    }

    fn drain_runq(&mut self) {
        if self.failure.is_some() {
            // A failed run never steps another actor, even if entries
            // were queued before the failure surfaced.
            return;
        }
        while let Some((aid, wake)) = self.runq.pop_front() {
            self.step_actor(aid, wake);
            if self.failure.is_some() {
                // Abort the drain: the run is over, and stepping more
                // actors against half-torn state helps nobody.
                return;
            }
        }
    }

    fn step_actor(&mut self, aid: ActorId, wake: Wake) {
        if !self.actors[aid].alive {
            return;
        }
        if let Some(kp) = self.kprof.as_mut() {
            kp.actor_steps += 1;
        }
        if wake == Wake::Start {
            if let Some(obs) = self.observer.as_mut() {
                obs.actor_started(aid, self.clock);
            }
        }
        // panics: kernel invariant; violation means simulator state corruption
        let mut boxed = self.actors[aid].actor.take().expect("actor re-entered");
        let step = {
            let mut ctx = Ctx { eng: self, actor: aid };
            boxed.step(&mut ctx, wake)
        };
        self.actors[aid].actor = Some(boxed);
        match step {
            Step::Done => {
                self.actors[aid].alive = false;
                self.actors[aid].waiting = None;
                if let Some(obs) = self.observer.as_mut() {
                    obs.actor_ended(aid, self.clock);
                }
            }
            Step::Fail { reason } => {
                // The failure channel: the actor saw unrecoverable bad
                // input. Retire it and abort the run with a typed error.
                self.actors[aid].alive = false;
                self.actors[aid].waiting = None;
                if let Some(obs) = self.observer.as_mut() {
                    obs.actor_ended(aid, self.clock);
                }
                self.fail(SimError::ActorFailure { actor: aid, time: self.clock, reason });
            }
            Step::Wait(op) => {
                let (state, owner) = match self.ops.get(op.0) {
                    Some(o) => (o.state, o.actor),
                    None => {
                        self.actors[aid].alive = false;
                        self.fail(SimError::Protocol {
                            actor: aid,
                            time: self.clock,
                            detail: format!("waits on unknown or already-freed op {op:?}"),
                        });
                        return;
                    }
                };
                if owner != aid {
                    self.actors[aid].alive = false;
                    self.fail(SimError::Protocol {
                        actor: aid,
                        time: self.clock,
                        detail: format!("waits on op {op:?} owned by actor {owner}"),
                    });
                    return;
                }
                if state == OpState::Complete {
                    self.ops.try_remove(op.0);
                    self.runq.push_back((aid, Wake::Op(op)));
                } else {
                    self.actors[aid].waiting = Some(op);
                }
            }
        }
    }

    /// Marks `op` complete, records it, and wakes its actor if blocked on
    /// it.
    fn complete_op(&mut self, op: OpId) {
        let (actor, rec) = {
            let o = &mut self.ops[op.0];
            debug_assert_eq!(o.state, OpState::Pending, "op completed twice");
            o.state = OpState::Complete;
            (
                o.actor,
                OpRecord {
                    actor: o.actor,
                    tag: o.tag,
                    start: o.t_start,
                    end: self.clock,
                    volume: o.volume,
                },
            )
        };
        self.ops_completed += 1;
        debug_assert!(
            rec.end >= rec.start,
            "op record with end {} before start {} (actor {}, tag {})",
            rec.end,
            rec.start,
            rec.actor,
            rec.tag
        );
        if let Some(obs) = self.observer.as_mut() {
            obs.record(rec);
        }
        if self.actors[actor].waiting == Some(op) {
            self.actors[actor].waiting = None;
            self.ops.try_remove(op.0);
            self.runq.push_back((actor, Wake::Op(op)));
        }
    }

    // ------------------------------------------------------------------
    // Communications

    /// Index of the interned route `src → dst`, resolving and interning
    /// it on first use. Callers borrow `&self.routes[i]` — the hot path
    /// never clones a route's link list.
    fn route_index(&mut self, src: HostId, dst: HostId) -> usize {
        if let Some(&i) = self.route_idx.get(&(src.0, dst.0)) {
            return i as usize;
        }
        let r = self.platform.resolve_route(src, dst);
        self.routes.push(r);
        let i = self.routes.len() - 1;
        // panics: kernel invariant; violation means simulator state corruption
        self.route_idx.insert((src.0, dst.0), u32::try_from(i).expect("route table fits u32"));
        i
    }

    /// Posts a send. The mailbox's `dst` field must name the receiving
    /// actor (the engine resolves its host for eagerly-started flows).
    fn post_send(&mut self, sender: ActorId, mb: MailboxKey, size: f64, tag: u32) -> OpId {
        let send_op = OpId(self.ops.insert(Op {
            actor: sender,
            kind: OpKind::Send,
            tag,
            t_start: self.clock,
            volume: size,
            mailbox: Some(mb),
            state: OpState::Pending,
        }));
        if let Some(obs) = self.observer.as_mut() {
            obs.op_started(sender, tag, self.clock);
        }
        let eager = self.net.is_eager(size);
        let src_host = self.actors[sender].host;
        let dst_host = match self.actors.get(mb.dst as usize) {
            Some(slot) => slot.host,
            None => {
                // Sending to a rank that was never spawned (e.g. a trace
                // mentioning more processes than the replay launched):
                // protocol violation, not a crash. The op stays pending —
                // the run aborts before anyone could wait on it forever.
                self.fail(SimError::Protocol {
                    actor: sender,
                    time: self.clock,
                    detail: format!(
                        "send to mailbox {}->{} chan {}: destination {} is not a spawned actor \
                         ({} spawned)",
                        mb.src,
                        mb.dst,
                        mb.chan,
                        mb.dst,
                        self.actors.len()
                    ),
                });
                return send_op;
            }
        };
        let comm = self.comms.insert(Comm {
            size,
            src_host,
            dst_host,
            send_op,
            recv_op: None,
            eager,
            state: CommState::Unlaunched,
        });
        let matched = self
            .mailboxes
            .get_mut(&mb)
            .and_then(|m| m.recvs.pop_front());
        if let Some((recv_op, _)) = matched {
            self.comms[comm].recv_op = Some(recv_op);
            self.ops[recv_op.0].volume = size;
            self.launch_comm(comm);
        } else {
            self.mailboxes.entry(mb).or_default().comms.push_back(comm);
            if eager {
                // Buffered mode: the data travels immediately and waits
                // in the receiver's buffer.
                self.launch_comm(comm);
            }
        }
        if eager {
            // The sender's op completes at post time.
            self.complete_op(send_op);
        }
        send_op
    }

    fn post_recv(&mut self, receiver: ActorId, mb: MailboxKey, tag: u32) -> OpId {
        let recv_op = OpId(self.ops.insert(Op {
            actor: receiver,
            kind: OpKind::Recv,
            tag,
            t_start: self.clock,
            volume: 0.0,
            mailbox: Some(mb),
            state: OpState::Pending,
        }));
        if let Some(obs) = self.observer.as_mut() {
            obs.op_started(receiver, tag, self.clock);
        }
        let matched = self
            .mailboxes
            .get_mut(&mb)
            .and_then(|m| m.comms.pop_front());
        if let Some(comm) = matched {
            self.ops[recv_op.0].volume = self.comms[comm].size;
            self.comms[comm].recv_op = Some(recv_op);
            match self.comms[comm].state {
                // Rendezvous: the flow starts now.
                CommState::Unlaunched => self.launch_comm(comm),
                // Eager flow still travelling: the receive completes
                // with it.
                CommState::InFlight => {}
                // Buffered data already here: the receive is immediate.
                CommState::Arrived => self.finish_comm(comm),
            }
        } else {
            self.mailboxes.entry(mb).or_default().recvs.push_back((recv_op, receiver));
        }
        recv_op
    }

    /// Starts the latency phase of a flow.
    fn launch_comm(&mut self, comm: usize) {
        let (size, src, dst) = {
            let c = &mut self.comms[comm];
            debug_assert_eq!(c.state, CommState::Unlaunched);
            c.state = CommState::InFlight;
            (c.size, c.src_host, c.dst_host)
        };
        let ri = self.route_index(src, dst);
        let (lat_factor, _) = self.net.piecewise.factors(size);
        let latency = self.routes[ri].latency * lat_factor;
        if latency > 0.0 {
            let t = self.clock + latency;
            self.push_event(t, EventKind::LatencyDone { comm });
        } else {
            self.start_transfer(comm);
        }
    }

    /// Latency paid: create the bandwidth-shared transfer activity.
    fn start_transfer(&mut self, comm: usize) {
        let (size, src, dst) = {
            let c = &self.comms[comm];
            (c.size, c.src_host, c.dst_host)
        };
        if size <= 0.0 {
            self.flow_finished(comm);
            return;
        }
        let ri = self.route_index(src, dst);
        let (_, bw_factor) = self.net.piecewise.factors(size);
        let amount = size / bw_factor;
        // Fill the constraint list into the reusable scratch buffer —
        // the solver copies from the slice, so posting a flow performs
        // no allocation (docs/KERNEL.md §5).
        let mut cnsts = std::mem::take(&mut self.cnst_scratch);
        cnsts.clear();
        let route = &self.routes[ri];
        if self.net.contention {
            for l in &route.shared {
                // panics: kernel invariant; violation means simulator state corruption
                cnsts.push(self.link_cnst[l.0 as usize].expect("shared link without constraint"));
            }
        }
        let var = self.lmm.new_variable(self.net.flow_bound(route), &cnsts);
        self.cnst_scratch = cnsts;
        self.add_activity(var, amount, Owner::Comm { comm });
    }

    /// The flow of `comm` completed: release the (rendezvous) sender and
    /// the receiver if it is already there; otherwise buffer the arrival.
    fn flow_finished(&mut self, comm: usize) {
        let (eager, send_op, has_recv) = {
            let c = &mut self.comms[comm];
            (c.eager, c.send_op, c.recv_op.is_some())
        };
        if !eager {
            self.complete_op(send_op);
        }
        if has_recv {
            self.finish_comm(comm);
        } else {
            self.comms[comm].state = CommState::Arrived;
        }
    }

    /// Completes the receive side and retires the comm.
    fn finish_comm(&mut self, comm: usize) {
        let c = self
            .comms
            .try_remove(comm)
            // panics: kernel invariant; violation means simulator state corruption
            .expect("finish_comm: comm already retired");
        // panics: kernel invariant; violation means simulator state corruption
        let recv_op = c.recv_op.expect("finish_comm without a receive");
        self.complete_op(recv_op);
    }

    /// Number of unmatched sends + receives left in mailboxes (should be 0
    /// after a well-formed replay).
    pub fn pending_mailbox_entries(&self) -> usize {
        self.mailboxes.values().map(|m| m.comms.len() + m.recvs.len()).sum()
    }

    // ------------------------------------------------------------------
    // Checkpoint support

    /// Captures the engine's full raw state at a safe point: the
    /// sorted events, each running activity's predicted completion and
    /// a verbatim copy of each slab (see [`crate::snapshot`] for why
    /// layouts are captured verbatim). Fails when the engine is
    /// mid-step (pending run queue, pending failure, never started) or
    /// when an alive actor does not support checkpointing.
    pub fn export_state(&self) -> Result<EngineSnapshot, String> {
        if !self.started {
            return Err("engine snapshot requested before the run started".into());
        }
        if !self.runq.is_empty() {
            return Err("engine snapshot requested with a non-empty run queue".into());
        }
        if self.failure.is_some() {
            return Err("engine snapshot requested with a pending failure".into());
        }
        let lmm = self.lmm.export_snapshot()?;

        let mut events: Vec<Event> = self.events.iter().map(|Reverse(e)| *e).collect();
        // (time, seq) is a total order — seq is unique — so sorting
        // gives deterministic bytes whatever the heap's layout.
        events.sort();

        // Mailbox iteration order is nondeterministic (hash map); sort
        // by key for deterministic snapshot bytes. Restoring into a
        // hash map is safe: all engine accesses are keyed lookups.
        let mut mailboxes: Vec<MailboxSnap> = self
            .mailboxes
            .iter()
            .filter(|(_, m)| !m.comms.is_empty() || !m.recvs.is_empty())
            .map(|(k, m)| MailboxSnap {
                key: *k,
                comms: m.comms.iter().copied().collect(),
                recvs: m.recvs.iter().map(|&(op, a)| (op.0, a)).collect(),
            })
            .collect();
        mailboxes.sort_by_key(|m| (m.key.src, m.key.dst, m.key.chan));

        let mut actors = Vec::with_capacity(self.actors.len());
        for (i, slot) in self.actors.iter().enumerate() {
            let state = if slot.alive {
                let actor = slot
                    .actor
                    .as_ref()
                    .ok_or_else(|| format!("actor {i} is mid-step"))?;
                Some(actor.export_state().ok_or_else(|| {
                    format!("actor {i} does not support checkpointing")
                })?)
            } else {
                None
            };
            actors.push(ActorSnap {
                host: slot.host.0,
                waiting: slot.waiting.map(|o| o.0),
                alive: slot.alive,
                phase: slot.phase,
                state,
            });
        }

        // The predictions, not the heap: its stale lower bounds and its
        // layout are evaluation state (docs/KERNEL.md §3).
        let activities = SlabSnap::of(&self.activities);
        Ok(EngineSnapshot {
            clock: self.clock,
            seq: self.seq,
            ops_completed: self.ops_completed,
            events,
            completions: activities.predicted_completions(),
            lmm,
            activities,
            ops: SlabSnap::of(&self.ops),
            comms: SlabSnap::of(&self.comms),
            mailboxes,
            actors,
        })
    }

    /// Restores a snapshot into this engine. The engine must be freshly
    /// built over the *same* platform and network configuration, with
    /// the same actors spawned in the same order (their own state is
    /// re-imported through [`Actor::import_state`]). On success the
    /// engine continues from the captured safe point via
    /// [`Engine::run_until`] and evolves bit-identically to the
    /// original; the snapshot's slabs are moved in as they are. On
    /// error the engine must be discarded: restoration is not
    /// transactional.
    pub fn restore_state(&mut self, snapshot: EngineSnapshot) -> Result<(), String> {
        snapshot.validate()?;
        if snapshot.actors.len() != self.actors.len() {
            return Err(format!(
                "snapshot has {} actors, engine spawned {}",
                snapshot.actors.len(),
                self.actors.len()
            ));
        }
        for (i, (a, slot)) in snapshot.actors.iter().zip(&self.actors).enumerate() {
            if a.host != slot.host.0 {
                return Err(format!(
                    "actor {i} pinned to host {} in the snapshot but {} in the engine",
                    a.host, slot.host.0
                ));
            }
        }

        let lmm = lmm::System::restore_snapshot(&snapshot.lmm)?;
        // The platform constraints were allocated by `Engine::new` in
        // deterministic order; the snapshot must still contain them.
        for &c in &self.cpu_cnst {
            if !snapshot.lmm.cnsts.get(c.0).is_some_and(Option::is_some) {
                return Err(format!("snapshot lost cpu constraint {}", c.0));
            }
        }
        for c in self.link_cnst.iter().flatten() {
            if !snapshot.lmm.cnsts.get(c.0).is_some_and(Option::is_some) {
                return Err(format!("snapshot lost link constraint {}", c.0));
            }
        }

        let EngineSnapshot {
            clock,
            seq,
            ops_completed,
            events: queued,
            completions,
            lmm: _,
            activities,
            ops,
            comms,
            mailboxes: queues,
            actors,
        } = snapshot;
        let activities = Slab::from_raw(activities.slots, activities.free)?;
        let ops = Slab::from_raw(ops.slots, ops.free)?;
        let nhosts = self.platform.num_hosts() as u32;
        for c in comms.slots.iter().flatten() {
            if c.src_host.0 >= nhosts || c.dst_host.0 >= nhosts {
                return Err(format!(
                    "comm references host {}->{} outside the platform",
                    c.src_host.0, c.dst_host.0
                ));
            }
        }
        let comms = Slab::from_raw(comms.slots, comms.free)?;
        // `validate` proved the list equal to the activities'
        // predictions; the heap pops them by the total (time, activity)
        // order whatever its layout.
        let mut heap = crate::idxheap::IndexedHeap::new();
        for (t, act) in completions {
            heap.set(act, t);
        }

        let mut var_act = Vec::new();
        for (act, a) in activities.iter() {
            if a.var.0 >= var_act.len() {
                var_act.resize(a.var.0 + 1, usize::MAX);
            }
            if var_act[a.var.0] != usize::MAX {
                return Err(format!("lmm variable {} owned by two activities", a.var.0));
            }
            var_act[a.var.0] = act;
        }

        let mut mailboxes: FxHashMap<MailboxKey, Mailbox> = FxHashMap::default();
        for m in &queues {
            if mailboxes.contains_key(&m.key) {
                return Err(format!(
                    "duplicate mailbox {}->{} chan {}",
                    m.key.src, m.key.dst, m.key.chan
                ));
            }
            mailboxes.insert(
                m.key,
                Mailbox {
                    comms: m.comms.iter().copied().collect(),
                    recvs: m.recvs.iter().map(|&(op, a)| (OpId(op), a)).collect(),
                },
            );
        }

        // Heapify the sorted events. The heap's layout is not state:
        // (time, seq) is a total order, so any heap of these events
        // pops the sequence the exporting engine would have popped,
        // under either kernel mode.
        let events: BinaryHeap<Reverse<Event>> = queued.into_iter().map(Reverse).collect();

        // Re-import the per-actor state before committing any engine
        // field, so a failed import leaves a recognizably broken engine
        // rather than a half-restored one.
        for (i, (a, slot)) in actors.iter().zip(self.actors.iter_mut()).enumerate() {
            if a.alive {
                let state = a
                    .state
                    .as_ref()
                    .ok_or_else(|| format!("alive actor {i} has no state in the snapshot"))?;
                let actor = slot
                    .actor
                    .as_mut()
                    .ok_or_else(|| format!("engine actor {i} is mid-step"))?;
                actor.import_state(state)?;
            }
            slot.waiting = a.waiting.map(OpId);
            slot.alive = a.alive;
            slot.phase = a.phase;
        }

        self.clock = clock;
        self.seq = seq;
        self.ops_completed = ops_completed;
        self.events = events;
        self.completions = heap;
        self.lmm = lmm;
        self.activities = activities;
        self.ops = ops;
        self.comms = comms;
        self.mailboxes = mailboxes;
        self.runq.clear();
        self.routes.clear();
        self.route_idx.clear();
        self.var_act = var_act;
        self.changed_vars.clear();
        self.failure = None;
        self.started = true;
        Ok(())
    }
}

/// Handle actors use to post operations during a step.
pub struct Ctx<'a> {
    pub(crate) eng: &'a mut Engine,
    pub(crate) actor: ActorId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.eng.clock
    }

    /// This actor's id (== spawn order == MPI rank in the replayer).
    pub fn id(&self) -> ActorId {
        self.actor
    }

    /// The host this actor is pinned to.
    pub fn host(&self) -> HostId {
        self.eng.actors[self.actor].host
    }

    /// Per-core speed (flop/s) of this actor's host.
    pub fn host_speed(&self) -> f64 {
        let h = self.eng.actors[self.actor].host;
        self.eng.platform.hosts[h.0 as usize].speed
    }

    /// Scratch integer for simple state machines (see crate docs example).
    pub fn phase(&self) -> u64 {
        self.eng.actors[self.actor].phase
    }

    /// Sets the scratch integer.
    pub fn set_phase(&mut self, phase: u64) {
        self.eng.actors[self.actor].phase = phase;
    }

    /// Starts a computation of `flops` on this actor's host. Completes
    /// immediately when `flops <= 0`.
    pub fn execute(&mut self, flops: f64) -> OpId {
        self.execute_tagged(flops, 0)
    }

    /// [`Ctx::execute`] with an observer tag.
    pub fn execute_tagged(&mut self, flops: f64, tag: u32) -> OpId {
        self.execute_bound(flops, f64::INFINITY, tag)
    }

    /// Computation with an additional rate cap (flop/s), e.g. to model a
    /// phase running below nominal core speed.
    pub fn execute_bound(&mut self, flops: f64, rate_cap: f64, tag: u32) -> OpId {
        let host = self.eng.actors[self.actor].host;
        let op = OpId(self.eng.ops.insert(Op {
            actor: self.actor,
            kind: OpKind::Compute,
            tag,
            t_start: self.eng.clock,
            volume: flops.max(0.0),
            mailbox: None,
            state: OpState::Pending,
        }));
        if let Some(obs) = self.eng.observer.as_mut() {
            obs.op_started(self.actor, tag, self.eng.clock);
        }
        if flops <= 0.0 {
            self.eng.complete_op(op);
            return op;
        }
        let h = &self.eng.platform.hosts[host.0 as usize];
        let bound = h.speed.min(rate_cap);
        let cnst = self.eng.cpu_cnst[host.0 as usize];
        let var = self.eng.lmm.new_variable(bound, &[cnst]);
        self.eng.add_activity(var, flops, Owner::Exec { op });
        op
    }

    /// Posts an asynchronous send of `bytes` to mailbox `mb`.
    pub fn isend(&mut self, mb: MailboxKey, bytes: f64) -> OpId {
        self.isend_tagged(mb, bytes, 0)
    }

    /// [`Ctx::isend`] with an observer tag.
    pub fn isend_tagged(&mut self, mb: MailboxKey, bytes: f64, tag: u32) -> OpId {
        self.eng.post_send(self.actor, mb, bytes.max(0.0), tag)
    }

    /// Posts an asynchronous receive on mailbox `mb`.
    pub fn irecv(&mut self, mb: MailboxKey) -> OpId {
        self.irecv_tagged(mb, 0)
    }

    /// [`Ctx::irecv`] with an observer tag.
    pub fn irecv_tagged(&mut self, mb: MailboxKey, tag: u32) -> OpId {
        self.eng.post_recv(self.actor, mb, tag)
    }

    /// An operation completing after `dt` simulated seconds.
    pub fn sleep(&mut self, dt: f64) -> OpId {
        self.sleep_tagged(dt, 0)
    }

    /// [`Ctx::sleep`] with an observer tag.
    pub fn sleep_tagged(&mut self, dt: f64, tag: u32) -> OpId {
        let op = OpId(self.eng.ops.insert(Op {
            actor: self.actor,
            kind: OpKind::Sleep,
            tag,
            t_start: self.eng.clock,
            volume: 0.0,
            mailbox: None,
            state: OpState::Pending,
        }));
        if let Some(obs) = self.eng.observer.as_mut() {
            obs.op_started(self.actor, tag, self.eng.clock);
        }
        if dt <= 0.0 {
            self.eng.complete_op(op);
        } else {
            let t = self.eng.clock + dt;
            self.eng.push_event(t, EventKind::SleepDone { op });
        }
        op
    }

    /// True when `op` has completed (it must still belong to this actor).
    pub fn is_complete(&self, op: OpId) -> bool {
        match self.eng.ops.get(op.0) {
            Some(o) => o.state == OpState::Complete,
            None => true, // already delivered and freed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::FnActor;
    use crate::resource::PlatformBuilder;

    fn simple_platform(nhosts: usize) -> (Platform, Vec<HostId>) {
        let mut pb = PlatformBuilder::new();
        let hosts: Vec<HostId> =
            (0..nhosts).map(|i| pb.add_host(&format!("h{i}"), 1e9, 1)).collect();
        // Full mesh of dedicated links: 125 MB/s, 10 us.
        for i in 0..nhosts {
            for j in (i + 1)..nhosts {
                let l = pb.add_link(&format!("l{i}-{j}"), 1.25e8, 1e-5);
                pb.add_route(hosts[i], hosts[j], vec![l]);
            }
        }
        (pb.build(), hosts)
    }

    #[test]
    fn compute_takes_flops_over_speed() {
        let (p, hs) = simple_platform(1);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.execute(2e9)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        let t = eng.run_checked().unwrap();
        assert!((t - 2.0).abs() < 1e-9, "2 Gflop at 1 Gflop/s = 2 s, got {t}");
    }

    #[test]
    fn zero_flops_completes_instantly() {
        let (p, hs) = simple_platform(1);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.execute(0.0)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        assert_eq!(eng.run_checked().unwrap(), 0.0);
    }

    #[test]
    fn two_computes_share_one_core() {
        let (p, hs) = simple_platform(1);
        let mut eng = Engine::new(p);
        for _ in 0..2 {
            eng.spawn(
                Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                    Wake::Start => Step::Wait(ctx.execute(1e9)),
                    Wake::Op(_) => Step::Done,
                })),
                hs[0],
            );
        }
        let t = eng.run_checked().unwrap();
        assert!((t - 2.0).abs() < 1e-9, "folded tasks serialize: got {t}");
    }

    #[test]
    fn two_computes_on_two_cores_run_parallel() {
        let mut pb = PlatformBuilder::new();
        let h = pb.add_host("h", 1e9, 2);
        let mut eng = Engine::new(pb.build());
        for _ in 0..2 {
            eng.spawn(
                Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                    Wake::Start => Step::Wait(ctx.execute(1e9)),
                    Wake::Op(_) => Step::Done,
                })),
                h,
            );
        }
        let t = eng.run_checked().unwrap();
        assert!((t - 1.0).abs() < 1e-9, "2 cores run 2 tasks in parallel: got {t}");
    }

    #[test]
    fn op_count_slices_pause_at_safe_points_and_finish_identically() {
        // A chain of short computes: run_checked's result must equal a
        // sliced run that pauses after every completed operation, and
        // each pause must be a legal snapshot point.
        fn chatty(n: usize) -> Box<dyn Actor> {
            let mut left = n;
            Box::new(FnActor(move |ctx: &mut Ctx, _wake| {
                if left == 0 {
                    return Step::Done;
                }
                left -= 1;
                Step::Wait(ctx.execute(1e6))
            }))
        }
        let (p1, hs1) = simple_platform(1);
        let mut reference = Engine::new(p1);
        reference.spawn(chatty(10), hs1[0]);
        let expect = reference.run_checked().unwrap();

        let (p2, hs2) = simple_platform(1);
        let mut eng = Engine::new(p2);
        eng.spawn(chatty(10), hs2[0]);
        let mut pauses = 0;
        let t = loop {
            let target = eng.ops_completed() + 1;
            match eng.run_until(&mut |e| e.ops_completed() >= target).unwrap() {
                RunStatus::Completed(t) => break t,
                RunStatus::Paused(_) => {
                    pauses += 1;
                    assert!(eng.ops_completed() >= target);
                }
            }
        };
        assert_eq!(t.to_bits(), expect.to_bits(), "sliced run diverged");
        assert!(pauses >= 9, "one-op slices must pause repeatedly, got {pauses}");
    }

    #[test]
    fn message_pays_latency_plus_bandwidth() {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.isend(MailboxKey::p2p(0, 1), 1.25e8)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.irecv(MailboxKey::p2p(0, 1))),
                Wake::Op(_) => Step::Done,
            })),
            hs[1],
        );
        let t = eng.run_checked().unwrap();
        // 125 MB at 125 MB/s + 10 us latency.
        assert!((t - 1.00001).abs() < 1e-8, "got {t}");
    }

    #[test]
    fn send_before_recv_and_recv_before_send_agree() {
        // Whoever posts first, the transfer only starts at the rendezvous.
        for recv_first in [false, true] {
            let (p, hs) = simple_platform(2);
            let mut eng = Engine::new(p);
            let delay_sender = if recv_first { 0.5 } else { 0.0 };
            let delay_recver = if recv_first { 0.0 } else { 0.5 };
            eng.spawn(
                Box::new(FnActor(move |ctx: &mut Ctx, wake| match wake {
                    Wake::Start => Step::Wait(ctx.sleep(delay_sender)),
                    Wake::Op(_) if ctx.phase() == 0 => {
                        ctx.set_phase(1);
                        Step::Wait(ctx.isend(MailboxKey::p2p(0, 1), 1.25e8))
                    }
                    _ => Step::Done,
                })),
                hs[0],
            );
            eng.spawn(
                Box::new(FnActor(move |ctx: &mut Ctx, wake| match wake {
                    Wake::Start => Step::Wait(ctx.sleep(delay_recver)),
                    Wake::Op(_) if ctx.phase() == 0 => {
                        ctx.set_phase(1);
                        Step::Wait(ctx.irecv(MailboxKey::p2p(0, 1)))
                    }
                    _ => Step::Done,
                })),
                hs[1],
            );
            let t = eng.run_checked().unwrap();
            assert!((t - 1.50001).abs() < 1e-8, "recv_first={recv_first}: got {t}");
        }
    }

    #[test]
    fn eager_send_unblocks_sender_immediately() {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        // 1 KB message is under the eager threshold: the sender finishes
        // at t=0 even though no receive is ever posted... but then the
        // message stays buffered at the receiver. Check sender
        // completion time + pending count.
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => {
                    let op = ctx.isend(MailboxKey::p2p(0, 1), 1024.0);
                    assert!(ctx.is_complete(op), "eager send completes at post");
                    Step::Wait(op)
                }
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        // The destination actor exists but never receives.
        eng.spawn(Box::new(FnActor(|_: &mut Ctx, _| Step::Done)), hs[1]);
        let t = eng.run_checked().unwrap();
        // The flow still travels (latency + transfer) even with no recv.
        assert!(t > 0.0 && t < 0.01, "got {t}");
        assert_eq!(eng.pending_mailbox_entries(), 1);
    }

    #[test]
    fn rendezvous_send_blocks_until_transferred() {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        // 1 MB > eager threshold: sender blocks until transfer completes.
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.isend(MailboxKey::p2p(0, 1), 1e6)),
                Wake::Op(_) => {
                    assert!(ctx.now() > 0.005, "sender released too early at {}", ctx.now());
                    Step::Done
                }
            })),
            hs[0],
        );
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.irecv(MailboxKey::p2p(0, 1))),
                Wake::Op(_) => Step::Done,
            })),
            hs[1],
        );
        eng.run_checked().unwrap();
    }

    /// Two senders on h0, two receivers on h1; mailbox dst names the
    /// receiving actor.
    fn spawn_pairwise_flows(eng: &mut Engine, hs: &[HostId], bytes: f64) {
        for dst_actor in [2usize, 3] {
            eng.spawn(
                Box::new(FnActor(move |ctx: &mut Ctx, wake| match wake {
                    Wake::Start => {
                        let mb = MailboxKey::p2p(ctx.id(), dst_actor);
                        Step::Wait(ctx.isend(mb, bytes))
                    }
                    Wake::Op(_) => Step::Done,
                })),
                hs[0],
            );
        }
        for src_actor in [0usize, 1] {
            eng.spawn(
                Box::new(FnActor(move |ctx: &mut Ctx, wake| match wake {
                    Wake::Start => {
                        let mb = MailboxKey::p2p(src_actor, ctx.id());
                        Step::Wait(ctx.irecv(mb))
                    }
                    Wake::Op(_) => Step::Done,
                })),
                hs[1],
            );
        }
    }

    #[test]
    fn two_flows_share_a_link() {
        // Both flows from h0 to h1 over the same link: each gets half.
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        spawn_pairwise_flows(&mut eng, &hs, 1.25e8);
        let t = eng.run_checked().unwrap();
        // 125 MB each at 62.5 MB/s.
        assert!((t - 2.00001).abs() < 1e-6, "got {t}");
    }

    #[test]
    fn contention_free_model_ignores_sharing() {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        eng.set_network_config(NetworkConfig::constant());
        spawn_pairwise_flows(&mut eng, &hs, 1.25e8);
        let t = eng.run_checked().unwrap();
        assert!((t - 1.00001).abs() < 1e-6, "no contention: got {t}");
    }

    #[test]
    fn eager_flows_overlap_latency_with_receiver_work() {
        // A pipeline: the sender posts K small messages back to back; the
        // receiver needs each one before a compute step. With buffered
        // (eager) delivery the link latency is paid once, not K times.
        let mut pb = PlatformBuilder::new();
        let h0 = pb.add_host("a", 1e9, 1);
        let h1 = pb.add_host("b", 1e9, 1);
        // High latency, plenty of bandwidth.
        let l = pb.add_link("l", 1.25e9, 5e-3);
        pb.add_route(h0, h1, vec![l]);
        let mut eng = Engine::new(pb.build());
        const K: u64 = 20;
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| {
                // Compute 1 ms then send, K times.
                let k = ctx.phase();
                match wake {
                    Wake::Start => Step::Wait(ctx.execute(1e6)),
                    Wake::Op(_) if k < K => {
                        ctx.set_phase(k + 1);
                        ctx.isend(MailboxKey::p2p(0, 1), 512.0);
                        if k + 1 < K {
                            Step::Wait(ctx.execute(1e6))
                        } else {
                            Step::Done
                        }
                    }
                    _ => Step::Done,
                }
            })),
            h0,
        );
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| {
                let k = ctx.phase();
                match wake {
                    Wake::Start => Step::Wait(ctx.irecv(MailboxKey::p2p(0, 1))),
                    Wake::Op(_) if k < K - 1 => {
                        ctx.set_phase(k + 1);
                        Step::Wait(ctx.irecv(MailboxKey::p2p(0, 1)))
                    }
                    _ => Step::Done,
                }
            })),
            h1,
        );
        let t = eng.run_checked().unwrap();
        // Pipelined: K x 1 ms compute + ONE 5 ms latency (plus epsilon),
        // not K x 5 ms.
        let pipelined = K as f64 * 1e-3 + 5e-3;
        assert!(
            t < pipelined * 1.2,
            "latency must be overlapped: got {t}, pipelined bound {pipelined}"
        );
        assert!(t >= pipelined * 0.9, "got {t}");
    }

    #[test]
    fn fifo_matching_preserves_pair_order() {
        // Two sends of different sizes from 0 to 1; two receives. The
        // first receive must match the first (large) send.
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => {
                    let mb = MailboxKey::p2p(0, 1);
                    ctx.isend(mb, 1.25e8); // 1 s transfer
                    Step::Wait(ctx.isend(mb, 1.25e6)) // 10 ms transfer
                }
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => {
                    let mb = MailboxKey::p2p(0, 1);
                    let first = ctx.irecv(mb);
                    ctx.set_phase(0);
                    Step::Wait(first)
                }
                Wake::Op(_) if ctx.phase() == 0 => {
                    // First recv completes only after the big transfer.
                    assert!(ctx.now() >= 0.5, "FIFO violated: t={}", ctx.now());
                    ctx.set_phase(1);
                    Step::Wait(ctx.irecv(MailboxKey::p2p(0, 1)))
                }
                _ => Step::Done,
            })),
            hs[1],
        );
        eng.run_checked().unwrap();
    }

    #[test]
    fn deadlock_detected() {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.irecv(MailboxKey::p2p(1, 0))),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        let err = eng.run_checked().unwrap_err();
        match &err {
            SimError::Deadlock { blocked, .. } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].actor, 0);
                assert_eq!(blocked[0].kind, Some(OpKind::Recv));
                assert_eq!(blocked[0].mailbox, Some(MailboxKey::p2p(1, 0)));
            }
            other => panic!("expected deadlock, got {other}"),
        }
        // The Display form names the actor and the mailbox it hung on.
        let msg = err.to_string();
        assert!(msg.contains("p0"), "{msg}");
        assert!(msg.contains("recv"), "{msg}");
        assert!(msg.contains("1->0"), "{msg}");
    }

    #[test]
    fn actor_failure_channel_aborts_with_typed_error() {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.sleep(1.0)),
                Wake::Op(_) => Step::Fail { reason: "corrupt trace line 17".into() },
            })),
            hs[0],
        );
        // A second, healthy actor: its longer sleep must not mask the
        // failure (the run aborts at the failure time, not at the end).
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.sleep(10.0)),
                Wake::Op(_) => Step::Done,
            })),
            hs[1],
        );
        let err = eng.run_checked().unwrap_err();
        match &err {
            SimError::ActorFailure { actor, time, reason } => {
                assert_eq!(*actor, 0);
                assert!((*time - 1.0).abs() < 1e-12, "failed at t={time}");
                assert!(reason.to_string().contains("line 17"), "{reason}");
            }
            other => panic!("expected actor failure, got {other}"),
        }
    }

    #[test]
    fn send_to_unspawned_actor_is_a_protocol_error() {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                // Rank 7 was never spawned (only 1 actor exists).
                Wake::Start => Step::Wait(ctx.isend(MailboxKey::p2p(0, 7), 1e6)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        let err = eng.run_checked().unwrap_err();
        match &err {
            SimError::Protocol { actor, detail, .. } => {
                assert_eq!(*actor, 0);
                assert!(detail.contains('7'), "{detail}");
            }
            other => panic!("expected protocol error, got {other}"),
        }
    }

    #[test]
    fn waiting_on_a_freed_op_is_a_protocol_error() {
        let (p, hs) = simple_platform(1);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.sleep(0.5)),
                // The op was delivered and freed: waiting on it again is
                // a protocol violation, reported, not a panic.
                Wake::Op(op) => Step::Wait(op),
            })),
            hs[0],
        );
        let err = eng.run_checked().unwrap_err();
        assert!(matches!(err, SimError::Protocol { actor: 0, .. }), "got {err}");
    }

    #[test]
    fn loopback_is_fast() {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        // Both actors on host 0: message crosses loopback, not the link.
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.isend(MailboxKey::p2p(0, 1), 1.25e8)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.irecv(MailboxKey::p2p(0, 1))),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        let t = eng.run_checked().unwrap();
        assert!(t < 0.05, "loopback transfer should beat the 1 s link: {t}");
    }

    #[test]
    fn observer_sees_all_ops() {
        use crate::observer::Collector;
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        let records = Collector::new();
        eng.set_observer(records.sink());
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.execute_tagged(1e9, 42)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        eng.run_checked().unwrap();
        let records = records.take();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].tag, 42);
        assert_eq!(eng.ops_completed(), 1);
    }

    #[test]
    fn observer_receives_lifecycle_events_in_order() {
        use crate::observer::Observer;
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Debug, PartialEq)]
        enum Ev {
            ActorStart(usize),
            OpStart(usize, u32),
            Record(usize, u32),
            ActorEnd(usize),
            EngineEnd,
        }
        struct Log(Rc<RefCell<Vec<Ev>>>);
        impl Observer for Log {
            fn record(&mut self, rec: OpRecord) {
                assert!(rec.end >= rec.start);
                self.0.borrow_mut().push(Ev::Record(rec.actor, rec.tag));
            }
            fn actor_started(&mut self, actor: usize, _t: f64) {
                self.0.borrow_mut().push(Ev::ActorStart(actor));
            }
            fn actor_ended(&mut self, actor: usize, _t: f64) {
                self.0.borrow_mut().push(Ev::ActorEnd(actor));
            }
            fn op_started(&mut self, actor: usize, tag: u32, _t: f64) {
                self.0.borrow_mut().push(Ev::OpStart(actor, tag));
            }
            fn engine_ended(&mut self, _t: f64) {
                self.0.borrow_mut().push(Ev::EngineEnd);
            }
        }

        let (p, hs) = simple_platform(1);
        let mut eng = Engine::new(p);
        let log = Rc::new(RefCell::new(Vec::new()));
        eng.set_observer(Box::new(Log(log.clone())));
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.execute_tagged(1e9, 42)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        eng.run_checked().unwrap();
        let evs = log.borrow();
        assert_eq!(
            *evs,
            vec![
                Ev::ActorStart(0),
                Ev::OpStart(0, 42),
                Ev::Record(0, 42),
                Ev::ActorEnd(0),
                Ev::EngineEnd,
            ]
        );
    }

    /// A checkpointable ping-pong actor: all its state lives in the
    /// engine-side phase counter, so its own exported state is empty.
    struct PingPong {
        rank: usize,
        rounds: u64,
    }
    impl Actor for PingPong {
        fn step(&mut self, ctx: &mut Ctx<'_>, _wake: Wake) -> Step {
            let k = ctx.phase();
            if k >= self.rounds {
                return Step::Done;
            }
            ctx.set_phase(k + 1);
            // Rank 0 sends on even phases and receives on odd ones;
            // rank 1 mirrors, so the exchange is balanced.
            let sending = k.is_multiple_of(2) == (self.rank == 0);
            if sending {
                if self.rank == 0 {
                    ctx.execute(1e7); // fire-and-forget CPU burst
                }
                let mb = MailboxKey::p2p(self.rank, 1 - self.rank);
                Step::Wait(ctx.isend(mb, 2e6))
            } else {
                let mb = MailboxKey::p2p(1 - self.rank, self.rank);
                Step::Wait(ctx.irecv(mb))
            }
        }
        fn export_state(&self) -> Option<Vec<u8>> {
            Some(Vec::new())
        }
        fn import_state(&mut self, _state: &[u8]) -> Result<(), String> {
            Ok(())
        }
    }

    fn pingpong_engine() -> Engine {
        let (p, hs) = simple_platform(2);
        let mut eng = Engine::new(p);
        eng.spawn(Box::new(PingPong { rank: 0, rounds: 8 }), hs[0]);
        eng.spawn(Box::new(PingPong { rank: 1, rounds: 8 }), hs[1]);
        eng
    }

    #[test]
    fn pause_export_restore_resumes_bit_identically() {
        // Reference: uninterrupted run.
        let mut reference = pingpong_engine();
        let t_ref = reference.run_checked().unwrap();
        let ops_ref = reference.ops_completed();

        // Interrupted run: pause at every distinct ops_completed level,
        // snapshot, restore into a fresh engine, continue there.
        for pause_at in 1..ops_ref {
            let mut eng = pingpong_engine();
            let status = eng
                .run_until(&mut |e: &Engine| e.ops_completed() >= pause_at)
                .unwrap();
            let t_pause = match status {
                RunStatus::Paused(t) => t,
                RunStatus::Completed(t) => {
                    // The threshold can land after the last event; then
                    // the run just completes and must match directly.
                    assert_eq!(t.to_bits(), t_ref.to_bits());
                    continue;
                }
            };
            let snap = eng.export_state().unwrap();
            snap.validate().unwrap();

            let mut resumed = pingpong_engine();
            resumed.restore_state(snap).unwrap();
            assert_eq!(resumed.clock().to_bits(), t_pause.to_bits());
            let t_res = resumed.run_checked().unwrap();
            assert_eq!(
                t_res.to_bits(),
                t_ref.to_bits(),
                "resume from ops={pause_at} diverged: {t_res} vs {t_ref}"
            );
            assert_eq!(resumed.ops_completed(), ops_ref);
        }
    }

    /// The instant every final sleep of a [`TieSleeper`] comes due.
    const TIE_AT: f64 = 2.0;
    /// Each rank's prelude, in quarter seconds: the ranks post their
    /// final sleeps in neither rank nor op-slot order, two pairs of
    /// them at one instant.
    const TIE_PRE: [u32; 6] = [3, 1, 5, 3, 6, 1];

    /// Sleeps its prelude, then posts two sleeps due at [`TIE_AT`]: a
    /// fire-and-forget one tagged `100 + 2 * rank`, then a waited one
    /// tagged one higher. Its state lives in the engine-side phase
    /// counter, so it checkpoints with an empty state.
    struct TieSleeper {
        rank: usize,
    }
    impl Actor for TieSleeper {
        fn step(&mut self, ctx: &mut Ctx<'_>, _wake: Wake) -> Step {
            let k = ctx.phase();
            ctx.set_phase(k + 1);
            let tag = 100 + 2 * self.rank as u32;
            match k {
                0 => Step::Wait(ctx.sleep(f64::from(TIE_PRE[self.rank]) * 0.25)),
                1 => {
                    // Dyadic instants: `now + dt` is exactly TIE_AT.
                    let dt = TIE_AT - ctx.now();
                    ctx.sleep_tagged(dt, tag);
                    Step::Wait(ctx.sleep_tagged(dt, tag + 1))
                }
                _ => Step::Done,
            }
        }
        fn export_state(&self) -> Option<Vec<u8>> {
            Some(Vec::new())
        }
        fn import_state(&mut self, _state: &[u8]) -> Result<(), String> {
            Ok(())
        }
    }

    fn tie_engine(mode: KernelMode) -> (Engine, crate::observer::Collector) {
        let (p, hs) = simple_platform(1);
        let mut eng = Engine::new(p);
        eng.set_kernel_mode(mode);
        let records = crate::observer::Collector::new();
        eng.set_observer(records.sink());
        for rank in 0..TIE_PRE.len() {
            eng.spawn(Box::new(TieSleeper { rank }), hs[0]);
        }
        (eng, records)
    }

    #[test]
    fn same_instant_events_dispatch_in_post_order() {
        // Post order: by prelude, ties in rank order (the preludes were
        // posted in rank order at t = 0), and within a rank the
        // fire-and-forget sleep first.
        let mut ranks: Vec<usize> = (0..TIE_PRE.len()).collect();
        ranks.sort_by_key(|&r| TIE_PRE[r]);
        let want: Vec<u32> =
            ranks.iter().flat_map(|&r| [100 + 2 * r as u32, 101 + 2 * r as u32]).collect();
        let due = |records: &crate::observer::Collector| -> Vec<u32> {
            records.take().iter().filter(|r| r.end == TIE_AT).map(|r| r.tag).collect()
        };
        let modes = [KernelMode::Reference, KernelMode::Incremental];
        for mode in modes {
            let (mut eng, records) = tie_engine(mode);
            assert_eq!(eng.run_checked().unwrap(), TIE_AT);
            assert_eq!(due(&records), want, "{mode:?}");

            // Pause once every prelude is done: all twelve sleeps are
            // queued, due at one instant.
            let (mut eng, _) = tie_engine(mode);
            let preludes = TIE_PRE.len() as u64;
            let status = eng.run_until(&mut |e| e.ops_completed() >= preludes).unwrap();
            assert!(matches!(status, RunStatus::Paused(_)), "{status:?}");
            let snap = eng.export_state().unwrap();
            assert_eq!(snap.events.len(), want.len());
            assert!(snap.events.iter().all(|e| e.time == TIE_AT));
            for resume in modes {
                let (mut resumed, records) = tie_engine(resume);
                resumed.restore_state(snap.clone()).unwrap();
                assert_eq!(resumed.run_checked().unwrap(), TIE_AT);
                assert_eq!(due(&records), want, "paused under {mode:?}, resumed under {resume:?}");
            }
        }
    }

    #[test]
    fn export_refuses_unsupported_actors_and_unstarted_engines() {
        let (p, hs) = simple_platform(1);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.sleep(1.0)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        // Not started yet.
        assert!(eng.export_state().is_err());
        // Started but the FnActor cannot checkpoint.
        let status = eng.run_until(&mut |_| true).unwrap();
        assert!(matches!(status, RunStatus::Paused(_)));
        let err = eng.export_state().unwrap_err();
        assert!(err.contains("does not support"), "{err}");
    }

    #[test]
    fn restore_rejects_mismatched_actor_sets() {
        let mut eng = pingpong_engine();
        eng.run_until(&mut |_| true).unwrap();
        let snap = eng.export_state().unwrap();

        // Wrong actor count.
        let (p, hs) = simple_platform(2);
        let mut other = Engine::new(p);
        other.spawn(Box::new(PingPong { rank: 0, rounds: 8 }), hs[0]);
        assert!(other.restore_state(snap.clone()).is_err());

        // Corrupted cross-reference fails validation.
        let mut bad = snap.clone();
        bad.actors[0].waiting = Some(9999);
        let mut fresh = pingpong_engine();
        assert!(fresh.restore_state(bad).is_err());
    }

    #[test]
    fn sleep_advances_clock() {
        let (p, hs) = simple_platform(1);
        let mut eng = Engine::new(p);
        eng.spawn(
            Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                Wake::Start => Step::Wait(ctx.sleep(3.5)),
                Wake::Op(_) => Step::Done,
            })),
            hs[0],
        );
        assert!((eng.run_checked().unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn piecewise_model_slows_large_messages() {
        let (p1, hs1) = simple_platform(2);
        let mut eng1 = Engine::new(p1);
        let (p2, hs2) = simple_platform(2);
        let mut eng2 = Engine::new(p2);
        eng2.set_network_config(NetworkConfig::mpi_cluster());
        for (eng, hs) in [(&mut eng1, &hs1), (&mut eng2, &hs2)] {
            eng.spawn(
                Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                    Wake::Start => Step::Wait(ctx.isend(MailboxKey::p2p(0, 1), 1e8)),
                    Wake::Op(_) => Step::Done,
                })),
                hs[0],
            );
            eng.spawn(
                Box::new(FnActor(|ctx: &mut Ctx, wake| match wake {
                    Wake::Start => Step::Wait(ctx.irecv(MailboxKey::p2p(0, 1))),
                    Wake::Op(_) => Step::Done,
                })),
                hs[1],
            );
        }
        let t_plain = eng1.run_checked().unwrap();
        let t_mpi = eng2.run_checked().unwrap();
        assert!(
            t_mpi > t_plain,
            "bw_factor < 1 must slow the transfer: {t_mpi} vs {t_plain}"
        );
    }
}
