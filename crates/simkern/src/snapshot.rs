//! Plain-data snapshot of a quiescent [`Engine`](crate::Engine).
//!
//! A checkpointed replay must resume to a **bit-identical** future: the
//! same simulated makespan, the same per-op records, down to the last
//! ulp. That rules out snapshotting at the semantic level ("these comms
//! are pending") and re-deriving internal state on restore — two
//! engine structures give different answers when rebuilt in a
//! different order:
//!
//! * slab index reuse follows free-list order, and a variable's slab
//!   id fixes its place in the LMM solver's fills, which subtract
//!   shares in ascending id (floating-point subtraction is
//!   order-sensitive; the order of a constraint's variable list is not
//!   state, see [`crate::lmm::System::export_snapshot`]);
//! * activities carry partially-integrated `remaining` values that
//!   cannot be recomputed from volumes.
//!
//! So a snapshot captures those layouts *verbatim* (see
//! [`crate::slab::Slab::from_raw`] and
//! [`crate::lmm::System::export_snapshot`]). It holds the kernel's
//! own records — the engine's [`Event`]s, [`Activity`]s, [`Op`]s and
//! [`Comm`]s, which are plain public data — in their slab layouts, so
//! export copies each slab once and restore moves it back in. The two
//! queues are stored as the sets they order, sorted, because each pops
//! by a total order whatever its layout: the timed events by
//! `(time, seq)`, the completion predictions by `(time, activity)`.
//! The predictions are derived from the activities and checked against
//! them on restore. Only the mailboxes (a hash map in the engine), the
//! actor slots (which hold a boxed actor) and the solver (whose scratch
//! state is left out) take a shape of their own here. The kernel stays
//! dependency-free, and byte serialization lives with the checkpoint
//! file format in the replay layer.
//!
//! Snapshots are only taken at *safe points* — the top of the engine
//! loop, where the run queue is empty, no failure is pending and the
//! solver is clean — which is where [`crate::Engine::run_until`]
//! consults its pause guard.

use crate::engine::{
    Activity, Comm, CommState, Event, EventKind, MailboxKey, Op, OpState, Owner,
};
use crate::error::OpKind;
use crate::lmm::LmmSnapshot;
use crate::slab::Slab;
use std::cmp::Ordering;

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

impl SlabSnap<Activity> {
    /// Each running activity's predicted completion as `(time,
    /// activity)`, sorted: what [`EngineSnapshot::completions`] holds.
    pub fn predicted_completions(&self) -> Vec<(f64, usize)> {
        let mut list: Vec<(f64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(act, a)| Some((a.as_ref()?.predicted_completion()?, act)))
            .collect();
        list.sort_unstable_by(by_time_then_activity);
        list
    }
}

fn by_time_then_activity(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
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
    /// `seq` is unique — so the heap a restore builds from them pops
    /// them in this order).
    pub events: Vec<Event>,
    /// Each running activity's predicted completion, `(time, activity
    /// key)` sorted by that pair
    /// ([`SlabSnap::predicted_completions`]). Restore accepts the list
    /// in any order, as long as it holds exactly those entries.
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
    /// Structural validation. [`crate::Engine::restore_state`] runs
    /// this before touching the engine, so a corrupt or crafted
    /// checkpoint fails closed instead of corrupting a simulation or
    /// panicking the kernel:
    ///
    /// * every cross-reference points at an occupied slot;
    /// * each pending op is *claimed* — named by what will complete it
    ///   — at most once, by a claimant of its kind: a compute activity,
    ///   a sleep event, a rendezvous comm's send, a comm's receive or a
    ///   mailbox's early receive, which must be its actor's op on that
    ///   mailbox;
    /// * each in-flight comm is claimed at most once, by its latency
    ///   event or its transfer activity, and sits in at most one
    ///   mailbox slot, with no receive while listed there;
    /// * the completion list is exactly the activities' predictions.
    pub fn validate(&self) -> Result<(), String> {
        let op = |k: usize| self.ops.slots.get(k).and_then(Option::as_ref);
        let comm = |k: usize| self.comms.slots.get(k).and_then(Option::as_ref);
        let var_ok = |k: usize| self.lmm.vars.get(k).is_some_and(Option::is_some);
        let mut op_claimed = vec![false; self.ops.slots.len()];
        let mut claim_op = |k: usize, kind: OpKind, by: &str| -> Result<(), String> {
            let o = op(k).ok_or_else(|| format!("{by} references missing op {k}"))?;
            if o.kind != kind || o.state != OpState::Pending {
                return Err(format!("{by} claims op {k}, not a pending {kind} op"));
            }
            if std::mem::replace(&mut op_claimed[k], true) {
                return Err(format!("{by} claims op {k}, which is already claimed"));
            }
            Ok(())
        };
        let mut comm_claimed = vec![false; self.comms.slots.len()];
        let mut claim_comm = |k: usize, by: &str| -> Result<(), String> {
            let c = comm(k).ok_or_else(|| format!("{by} references missing comm {k}"))?;
            if c.state != CommState::InFlight {
                return Err(format!("{by} claims comm {k}, which is not in flight"));
            }
            if std::mem::replace(&mut comm_claimed[k], true) {
                return Err(format!("{by} claims comm {k}, which is already claimed"));
            }
            Ok(())
        };

        for o in self.ops.slots.iter().flatten() {
            if o.actor >= self.actors.len() {
                return Err(format!("op references missing actor {}", o.actor));
            }
        }
        for ev in &self.events {
            if ev.seq > self.seq {
                return Err(format!("event seq {} above counter {}", ev.seq, self.seq));
            }
            if ev.time.partial_cmp(&self.clock).is_none_or(Ordering::is_lt) {
                return Err(format!("event at {} is due before the clock {}", ev.time, self.clock));
            }
            match ev.kind {
                EventKind::LatencyDone { comm } => claim_comm(comm, "latency event")?,
                EventKind::SleepDone { op } => claim_op(op.0, OpKind::Sleep, "sleep event")?,
            }
        }
        for (k, a) in self.activities.slots.iter().enumerate() {
            let Some(a) = a else { continue };
            if !var_ok(a.var.0) {
                return Err(format!("activity {k} references missing lmm variable {}", a.var.0));
            }
            let by = format!("activity {k}");
            match a.owner {
                Owner::Exec { op } => claim_op(op.0, OpKind::Compute, &by)?,
                Owner::Comm { comm } => claim_comm(comm, &by)?,
            }
        }
        let activities = self.activities.slots.iter().flatten().count();
        let vars = self.lmm.vars.iter().flatten().count();
        if vars != activities {
            return Err(format!("{vars} lmm variables for {activities} activities"));
        }
        for (k, c) in self.comms.slots.iter().enumerate() {
            let Some(c) = c else { continue };
            let by = format!("comm {k}");
            // An eager comm's send op completes (and may be freed, or
            // its slot reused) at post time, while the comm itself
            // lingers in the mailbox until the receiver matches it; the
            // engine never dereferences `send_op` again on that path,
            // so only rendezvous comms claim their send op.
            if !c.eager {
                claim_op(c.send_op.0, OpKind::Send, &by)?;
            }
            if let Some(r) = c.recv_op {
                claim_op(r.0, OpKind::Recv, &by)?;
            }
        }
        let mut listed = vec![false; self.comms.slots.len()];
        for m in &self.mailboxes {
            let at = format!("mailbox {}->{} chan {}", m.key.src, m.key.dst, m.key.chan);
            for &k in &m.comms {
                let c = comm(k).ok_or_else(|| format!("{at} references missing comm {k}"))?;
                if c.recv_op.is_some() {
                    return Err(format!("{at} lists comm {k}, which already has a receive"));
                }
                if std::mem::replace(&mut listed[k], true) {
                    return Err(format!("{at} lists comm {k}, which is already listed"));
                }
            }
            for &(k, actor) in &m.recvs {
                claim_op(k, OpKind::Recv, &at)?;
                if op(k).is_some_and(|o| o.actor != actor || o.mailbox != Some(m.key)) {
                    return Err(format!("{at} holds op {k} as an early receive of actor {actor}, \
                                        but it is not that actor's receive on this mailbox"));
                }
            }
        }
        for (i, a) in self.actors.iter().enumerate() {
            if let Some(w) = a.waiting {
                if !op(w).is_some_and(|o| o.actor == i && o.state == OpState::Pending) {
                    return Err(format!("actor {i} waits on op {w}, not a pending op of its own"));
                }
            }
            if a.alive && a.waiting.is_none() {
                return Err(format!("actor {i} is alive but waiting on nothing"));
            }
        }

        let want = self.activities.predicted_completions();
        if let Some(&(_, k)) = want.iter().find(|(t, _)| t.is_nan()) {
            return Err(format!("activity {k} has no valid completion time"));
        }
        let mut got = self.completions.clone();
        got.sort_unstable_by(by_time_then_activity);
        let bits = |e: Option<&(f64, usize)>| e.map(|&(t, k)| (t.to_bits(), k));
        let show = |e: Option<&(f64, usize)>| {
            e.map_or("nothing".to_owned(), |&(t, k)| format!("activity {k} at {t}"))
        };
        let first_difference =
            (0..got.len().max(want.len())).find(|&i| bits(got.get(i)) != bits(want.get(i)));
        if let Some(i) = first_difference {
            return Err(format!(
                "completion entry {i} (by time) is {}, but the activities predict {}",
                show(got.get(i)),
                show(want.get(i))
            ));
        }
        Ok(())
    }
}
