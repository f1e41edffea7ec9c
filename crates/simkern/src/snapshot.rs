//! Plain-data snapshot of a quiescent [`Engine`](crate::Engine).
//!
//! A checkpointed replay must resume to a **bit-identical** future: the
//! same simulated makespan, the same per-op records, down to the last
//! ulp. That rules out snapshotting at the semantic level ("these comms
//! are pending") and re-deriving internal state on restore — three
//! engine structures give different answers when rebuilt in a
//! different order:
//!
//! * the LMM solver subtracts shares in per-constraint variable order
//!   (floating-point subtraction is order-sensitive), and slab index
//!   reuse follows free-list order;
//! * the completion heap breaks ties between equal predicted times by
//!   array layout;
//! * activities carry partially-integrated `remaining` values that
//!   cannot be recomputed from volumes.
//!
//! So a snapshot captures those layouts *verbatim* (see
//! [`crate::slab::Slab::from_raw`], [`crate::idxheap::IndexedHeap::from_raw`]
//! and [`crate::lmm::System::export_snapshot`]). It holds the kernel's
//! own records — the engine's [`Event`]s, [`Activity`]s, [`Op`]s and
//! [`Comm`]s, which are plain public data — in their slab layouts, so
//! export copies each slab once and restore moves it back in. Only the
//! mailboxes (a hash map in the engine), the actor slots (which hold a
//! boxed actor) and the solver (whose scratch state is left out) take a
//! shape of their own here. The kernel stays dependency-free, and byte
//! serialization lives with the checkpoint file format in the replay
//! layer.
//!
//! Snapshots are only taken at *safe points* — the top of the engine
//! loop, where the run queue is empty, no failure is pending and the
//! solver is clean — which is where [`crate::Engine::run_until`]
//! consults its pause guard.

use crate::engine::{Activity, Comm, Event, EventKind, MailboxKey, Op, Owner};
use crate::lmm::LmmSnapshot;
use crate::slab::Slab;

/// Raw slab layout: every slot in index order (`None` = vacant) plus
/// the free-list in its internal order, so index reuse after restore
/// matches the original allocator exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SlabSnap<T> {
    /// Slots in index order; vacant slots are `None`.
    pub slots: Vec<Option<T>>,
    /// Free-list in internal (pop-from-back) order.
    pub free: Vec<usize>,
}

impl<T: Clone> SlabSnap<T> {
    /// A copy of `slab`'s exact layout.
    pub fn of(slab: &Slab<T>) -> Self {
        SlabSnap {
            slots: slab.slots().map(Option::<&T>::cloned).collect(),
            free: slab.free_list().to_vec(),
        }
    }
}

/// One mailbox's queued entries. Mailboxes are stored sorted by
/// `(src, dst, chan)` so snapshot bytes are deterministic even though
/// the engine keeps them in a hash map.
#[derive(Debug, Clone, PartialEq)]
pub struct MailboxSnap {
    /// The mailbox address.
    pub key: MailboxKey,
    /// Unclaimed sends (comm slab keys) in post order.
    pub comms: Vec<usize>,
    /// Early receives as `(op slab key, actor)` in post order.
    pub recvs: Vec<(usize, usize)>,
}

/// One actor slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorSnap {
    /// Host index the actor is pinned to.
    pub host: u32,
    /// Op slab key the actor is blocked on, if any.
    pub waiting: Option<usize>,
    /// Still running?
    pub alive: bool,
    /// Scratch phase integer.
    pub phase: u64,
    /// The actor's own serialized state ([`crate::Actor::export_state`]);
    /// `None` for terminated actors.
    pub state: Option<Vec<u8>>,
}

/// Full raw state of a quiescent engine. Produced by
/// [`crate::Engine::export_state`], consumed by
/// [`crate::Engine::restore_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Simulated clock, seconds.
    pub clock: f64,
    /// Timed-event sequence counter.
    pub seq: u64,
    /// Operations completed so far.
    pub ops_completed: u64,
    /// Queued timed events, sorted by `(time, seq)` (a total order —
    /// `seq` is unique — so rebuilding the binary heap by pushing them
    /// cannot permute ties).
    pub events: Vec<Event>,
    /// Raw completion-heap array: `(predicted time, activity key)` in
    /// internal layout order (equal-time pops are layout-dependent).
    pub completions: Vec<(f64, usize)>,
    /// Raw solver layout.
    pub lmm: LmmSnapshot,
    /// In-flight activities.
    pub activities: SlabSnap<Activity>,
    /// Posted operations.
    pub ops: SlabSnap<Op>,
    /// Communications.
    pub comms: SlabSnap<Comm>,
    /// Non-empty mailboxes, sorted by key.
    pub mailboxes: Vec<MailboxSnap>,
    /// Actor slots in spawn order.
    pub actors: Vec<ActorSnap>,
}

impl EngineSnapshot {
    /// Structural validation: every cross-reference must point at an
    /// occupied slot of the right slab. [`crate::Engine::restore_state`]
    /// runs this before touching the engine, so a corrupt or truncated
    /// checkpoint fails closed instead of corrupting a simulation.
    pub fn validate(&self) -> Result<(), String> {
        let op_ok = |k: usize| self.ops.slots.get(k).is_some_and(Option::is_some);
        let comm_ok = |k: usize| self.comms.slots.get(k).is_some_and(Option::is_some);
        let act_ok = |k: usize| self.activities.slots.get(k).is_some_and(Option::is_some);
        let var_ok = |k: usize| self.lmm.vars.get(k).is_some_and(Option::is_some);

        for ev in &self.events {
            match ev.kind {
                EventKind::LatencyDone { comm } if !comm_ok(comm) => {
                    return Err(format!("event references missing comm {comm}"));
                }
                EventKind::SleepDone { op } if !op_ok(op.0) => {
                    return Err(format!("event references missing op {}", op.0));
                }
                _ => {}
            }
            if ev.seq > self.seq {
                return Err(format!("event seq {} above counter {}", ev.seq, self.seq));
            }
        }
        for &(t, act) in &self.completions {
            if t.is_nan() || !act_ok(act) {
                return Err(format!("completion entry ({t}, {act}) is invalid"));
            }
        }
        for a in self.activities.slots.iter().flatten() {
            if !var_ok(a.var.0) {
                return Err(format!("activity references missing lmm variable {}", a.var.0));
            }
            match a.owner {
                Owner::Exec { op } if !op_ok(op.0) => {
                    return Err(format!("activity owner references missing op {}", op.0));
                }
                Owner::Comm { comm } if !comm_ok(comm) => {
                    return Err(format!("activity owner references missing comm {comm}"));
                }
                _ => {}
            }
        }
        for o in self.ops.slots.iter().flatten() {
            if o.actor >= self.actors.len() {
                return Err(format!("op references missing actor {}", o.actor));
            }
        }
        for c in self.comms.slots.iter().flatten() {
            // An eager comm's send op completes (and may be freed, or
            // its slot reused) at post time, while the comm itself
            // lingers in the mailbox until the receiver matches it; the
            // engine never dereferences `send_op` again on that path,
            // so only rendezvous comms pin their send op.
            if !c.eager && !op_ok(c.send_op.0) {
                return Err(format!("comm references missing send op {}", c.send_op.0));
            }
            if let Some(r) = c.recv_op {
                if !op_ok(r.0) {
                    return Err(format!("comm references missing recv op {}", r.0));
                }
            }
        }
        for m in &self.mailboxes {
            for &c in &m.comms {
                if !comm_ok(c) {
                    return Err(format!("mailbox references missing comm {c}"));
                }
            }
            for &(op, actor) in &m.recvs {
                if !op_ok(op) || actor >= self.actors.len() {
                    return Err(format!("mailbox recv ({op}, {actor}) is invalid"));
                }
            }
        }
        for (i, a) in self.actors.iter().enumerate() {
            if let Some(w) = a.waiting {
                if !op_ok(w) {
                    return Err(format!("actor {i} waits on missing op {w}"));
                }
            }
            if a.alive && a.waiting.is_none() {
                return Err(format!("actor {i} is alive but waiting on nothing"));
            }
        }
        Ok(())
    }
}
