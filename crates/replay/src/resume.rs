//! The `TICK1` replay checkpoint: the codec for resumable replay state.
//!
//! A replay paused at a kernel *safe point*
//! ([`simkern::Engine::run_until`]) exports the full engine state
//! ([`simkern::EngineSnapshot`]) — including each rank's replay-actor
//! state and the action counter — into a [`ReplayCheckpoint`]. The
//! driver ([`crate::Replay`]) writes it into a `TICK1` container
//! ([`tit_core::checkpoint`]) or hands it back in memory to a
//! preempted request; a later run restores the snapshot, seeks each
//! rank's trace cursor to its saved position and continues to the
//! **bit-identical** final simulated time the uninterrupted run would
//! have produced (the snapshot captures raw solver and slab layouts
//! verbatim and stores the timed events and completion predictions
//! sorted, since both heaps pop by a total order; see
//! [`simkern::snapshot`]). Decoding validates the snapshot, the
//! completion list against the activities included, so a crafted
//! payload under a recomputed checksum fails closed.
//!
//! The checkpoint is keyed by a [`fingerprint`] of the platform,
//! network model, collective algorithm, process count and the input's
//! trace salt: resuming against a different configuration or trace
//! fails closed instead of silently diverging.
//!
//! [`simkern::snapshot`]: simkern::EngineSnapshot

use crate::error::ReplayError;
use crate::simulator::ReplayConfig;
use simkern::engine::{
    Activity, Comm, CommState, Event, EventKind, MailboxKey, Op, OpState, Owner,
};
use simkern::lmm::{CnstSnap, LmmSnapshot, VarId, VarSnap};
use simkern::resource::Sharing;
use simkern::snapshot::{ActorSnap, EngineSnapshot, MailboxSnap, SlabSnap};
use simkern::{HostId, OpId, OpKind, Platform};
use std::path::Path;
use tit_core::checkpoint::{fnv1a, read_checkpoint, write_checkpoint, Dec, Enc};

/// The decoded contents of a replay checkpoint: a `TICK1` file, or the
/// in-memory state of a preempted run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCheckpoint {
    /// [`fingerprint`] of the configuration the snapshot was taken
    /// under; resume refuses a mismatch.
    pub fingerprint: u64,
    /// Shared action counter at the safe point.
    pub actions_replayed: u64,
    /// Raw engine state.
    pub engine: EngineSnapshot,
}

fn ck_err(detail: impl std::fmt::Display) -> ReplayError {
    ReplayError::Checkpoint { detail: detail.to_string() }
}

/// Hashes everything a snapshot's validity depends on: process count,
/// collective algorithm, network model, the platform's hosts and links,
/// and a trace-content `salt` (a TIB2 store's footer hash, an in-memory
/// trace's action count). A salt of `0` means "no trace binding" and
/// leaves the hash unsalted, so plain-file checkpoints stay readable
/// across versions; their trace content is covered by each rank's
/// cursor seeking to its saved position on resume, which fails if the
/// trace got shorter.
pub fn fingerprint(platform: &Platform, cfg: &ReplayConfig, nproc: usize, salt: u64) -> u64 {
    let mut e = Enc::new();
    e.usize(nproc);
    e.u8(match cfg.algo {
        crate::collectives::CollectiveAlgo::Binomial => 0,
        crate::collectives::CollectiveAlgo::Flat => 1,
    });
    e.u8(u8::from(cfg.network.contention));
    match cfg.network.tcp_gamma {
        Some(g) => {
            e.u8(1);
            e.f64(g);
        }
        None => e.u8(0),
    }
    e.f64(cfg.network.eager_threshold);
    let segs = cfg.network.piecewise.segments();
    e.usize(segs.len());
    for s in segs {
        e.f64(s.max_size);
        e.f64(s.lat_factor);
        e.f64(s.bw_factor);
    }
    e.usize(platform.hosts.len());
    for h in &platform.hosts {
        e.bytes(h.name.as_bytes());
        e.f64(h.speed);
        e.u32(h.cores);
    }
    e.usize(platform.links.len());
    for l in &platform.links {
        e.bytes(l.name.as_bytes());
        e.f64(l.bandwidth);
        e.f64(l.latency);
        e.u8(u8::from(matches!(l.sharing, Sharing::FatPipe)));
    }
    e.f64(platform.loopback.bandwidth);
    e.f64(platform.loopback.latency);
    let fp = fnv1a(&e.finish());
    if salt == 0 {
        return fp;
    }
    let mut e = Enc::new();
    e.u64(fp);
    e.u64(salt);
    fnv1a(&e.finish())
}

fn enc_bool(e: &mut Enc, v: bool) {
    e.u8(u8::from(v));
}

fn dec_bool(d: &mut Dec<'_>) -> Result<bool, String> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        k => Err(format!("invalid bool byte {k}")),
    }
}

fn enc_mailbox_key(e: &mut Enc, k: MailboxKey) {
    e.u32(k.src);
    e.u32(k.dst);
    e.u8(k.chan);
}

fn dec_mailbox_key(d: &mut Dec<'_>) -> Result<MailboxKey, String> {
    Ok(MailboxKey { src: d.u32()?, dst: d.u32()?, chan: d.u8()? })
}

fn enc_usize_list(e: &mut Enc, v: &[usize]) {
    e.usize(v.len());
    for &x in v {
        e.usize(x);
    }
}

fn dec_usize_list(d: &mut Dec<'_>) -> Result<Vec<usize>, String> {
    let n = d.usize()?;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        v.push(d.usize()?);
    }
    Ok(v)
}

fn enc_slab<T>(
    e: &mut Enc,
    slots: &[Option<T>],
    free: &[usize],
    enc_item: impl Fn(&mut Enc, &T),
) {
    e.usize(slots.len());
    for slot in slots {
        match slot {
            Some(item) => {
                e.u8(1);
                enc_item(e, item);
            }
            None => e.u8(0),
        }
    }
    enc_usize_list(e, free);
}

fn dec_slab<T>(
    d: &mut Dec<'_>,
    dec_item: impl Fn(&mut Dec<'_>) -> Result<T, String>,
) -> Result<SlabSnap<T>, String> {
    let n = d.usize()?;
    let mut slots = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        slots.push(if dec_bool(d)? { Some(dec_item(d)?) } else { None });
    }
    let free = dec_usize_list(d)?;
    Ok(SlabSnap { slots, free })
}

fn enc_op_kind(e: &mut Enc, k: OpKind) {
    e.u8(match k {
        OpKind::Compute => 0,
        OpKind::Send => 1,
        OpKind::Recv => 2,
        OpKind::Sleep => 3,
    });
}

fn dec_op_kind(d: &mut Dec<'_>) -> Result<OpKind, String> {
    Ok(match d.u8()? {
        0 => OpKind::Compute,
        1 => OpKind::Send,
        2 => OpKind::Recv,
        3 => OpKind::Sleep,
        k => return Err(format!("unknown op kind {k}")),
    })
}

fn enc_engine(e: &mut Enc, s: &EngineSnapshot) {
    e.f64(s.clock);
    e.u64(s.seq);
    e.u64(s.ops_completed);

    e.usize(s.events.len());
    for ev in &s.events {
        e.f64(ev.time);
        e.u64(ev.seq);
        match ev.kind {
            EventKind::LatencyDone { comm } => {
                e.u8(0);
                e.usize(comm);
            }
            EventKind::SleepDone { op } => {
                e.u8(1);
                e.usize(op.to_raw());
            }
        }
    }

    e.usize(s.completions.len());
    for &(t, k) in &s.completions {
        e.f64(t);
        e.usize(k);
    }

    enc_slab(e, &s.lmm.cnsts, &s.lmm.cnst_free, |e, c: &CnstSnap| {
        e.f64(c.capacity);
        enc_usize_list(e, &c.vars);
    });
    enc_slab(e, &s.lmm.vars, &s.lmm.var_free, |e, v: &VarSnap| {
        e.f64(v.bound);
        enc_usize_list(e, &v.cnsts);
        e.f64(v.value);
    });

    enc_slab(e, &s.activities.slots, &s.activities.free, |e, a: &Activity| {
        e.usize(a.var.0);
        e.f64(a.remaining);
        e.f64(a.rate);
        e.f64(a.t_last);
        match a.owner {
            Owner::Exec { op } => {
                e.u8(0);
                e.usize(op.to_raw());
            }
            Owner::Comm { comm } => {
                e.u8(1);
                e.usize(comm);
            }
        }
    });

    enc_slab(e, &s.ops.slots, &s.ops.free, |e, o: &Op| {
        e.usize(o.actor);
        enc_op_kind(e, o.kind);
        e.u32(o.tag);
        e.f64(o.t_start);
        e.f64(o.volume);
        match o.mailbox {
            Some(k) => {
                e.u8(1);
                enc_mailbox_key(e, k);
            }
            None => e.u8(0),
        }
        enc_bool(e, o.state == OpState::Complete);
    });

    enc_slab(e, &s.comms.slots, &s.comms.free, |e, c: &Comm| {
        e.f64(c.size);
        e.u32(c.src_host.0);
        e.u32(c.dst_host.0);
        e.usize(c.send_op.to_raw());
        e.opt_usize(c.recv_op.map(OpId::to_raw));
        enc_bool(e, c.eager);
        e.u8(match c.state {
            CommState::Unlaunched => 0,
            CommState::InFlight => 1,
            CommState::Arrived => 2,
        });
    });

    e.usize(s.mailboxes.len());
    for m in &s.mailboxes {
        enc_mailbox_key(e, m.key);
        enc_usize_list(e, &m.comms);
        e.usize(m.recvs.len());
        for &(op, actor) in &m.recvs {
            e.usize(op);
            e.usize(actor);
        }
    }

    e.usize(s.actors.len());
    for a in &s.actors {
        e.u32(a.host);
        e.opt_usize(a.waiting);
        enc_bool(e, a.alive);
        e.u64(a.phase);
        match &a.state {
            Some(b) => {
                e.u8(1);
                e.bytes(b);
            }
            None => e.u8(0),
        }
    }
}

fn dec_engine(d: &mut Dec<'_>) -> Result<EngineSnapshot, String> {
    let clock = d.f64()?;
    let seq = d.u64()?;
    let ops_completed = d.u64()?;

    let n_events = d.usize()?;
    let mut events = Vec::with_capacity(n_events.min(1 << 16));
    for _ in 0..n_events {
        let time = d.f64()?;
        let ev_seq = d.u64()?;
        let kind = match d.u8()? {
            0 => EventKind::LatencyDone { comm: d.usize()? },
            1 => EventKind::SleepDone { op: OpId::from_raw(d.usize()?) },
            k => return Err(format!("unknown event kind {k}")),
        };
        events.push(Event { time, seq: ev_seq, kind });
    }

    let n_comp = d.usize()?;
    let mut completions = Vec::with_capacity(n_comp.min(1 << 16));
    for _ in 0..n_comp {
        let t = d.f64()?;
        let k = d.usize()?;
        completions.push((t, k));
    }

    let cnst_slab = dec_slab(d, |d| {
        Ok(CnstSnap { capacity: d.f64()?, vars: dec_usize_list(d)? })
    })?;
    let var_slab = dec_slab(d, |d| {
        Ok(VarSnap { bound: d.f64()?, cnsts: dec_usize_list(d)?, value: d.f64()? })
    })?;
    let lmm = LmmSnapshot {
        cnsts: cnst_slab.slots,
        cnst_free: cnst_slab.free,
        vars: var_slab.slots,
        var_free: var_slab.free,
    };

    let activities = dec_slab(d, |d| {
        let var = VarId(d.usize()?);
        let remaining = d.f64()?;
        let rate = d.f64()?;
        let t_last = d.f64()?;
        let owner = match d.u8()? {
            0 => Owner::Exec { op: OpId::from_raw(d.usize()?) },
            1 => Owner::Comm { comm: d.usize()? },
            k => return Err(format!("unknown activity owner {k}")),
        };
        Ok(Activity { var, remaining, rate, t_last, owner })
    })?;

    let ops = dec_slab(d, |d| {
        let actor = d.usize()?;
        let kind = dec_op_kind(d)?;
        let tag = d.u32()?;
        let t_start = d.f64()?;
        let volume = d.f64()?;
        let mailbox = if dec_bool(d)? { Some(dec_mailbox_key(d)?) } else { None };
        let state = if dec_bool(d)? { OpState::Complete } else { OpState::Pending };
        Ok(Op { actor, kind, tag, t_start, volume, mailbox, state })
    })?;

    let comms = dec_slab(d, |d| {
        let size = d.f64()?;
        let src_host = HostId(d.u32()?);
        let dst_host = HostId(d.u32()?);
        let send_op = OpId::from_raw(d.usize()?);
        let recv_op = d.opt_usize()?.map(OpId::from_raw);
        let eager = dec_bool(d)?;
        let state = match d.u8()? {
            0 => CommState::Unlaunched,
            1 => CommState::InFlight,
            2 => CommState::Arrived,
            k => return Err(format!("unknown comm state {k}")),
        };
        Ok(Comm { size, src_host, dst_host, send_op, recv_op, eager, state })
    })?;

    let n_mb = d.usize()?;
    let mut mailboxes = Vec::with_capacity(n_mb.min(1 << 16));
    for _ in 0..n_mb {
        let key = dec_mailbox_key(d)?;
        let comms_q = dec_usize_list(d)?;
        let n_recv = d.usize()?;
        let mut recvs = Vec::with_capacity(n_recv.min(1 << 16));
        for _ in 0..n_recv {
            let op = d.usize()?;
            let actor = d.usize()?;
            recvs.push((op, actor));
        }
        mailboxes.push(MailboxSnap { key, comms: comms_q, recvs });
    }

    let n_actors = d.usize()?;
    let mut actors = Vec::with_capacity(n_actors.min(1 << 16));
    for _ in 0..n_actors {
        let host = d.u32()?;
        let waiting = d.opt_usize()?;
        let alive = dec_bool(d)?;
        let phase = d.u64()?;
        let state = if dec_bool(d)? { Some(d.bytes()?.to_vec()) } else { None };
        actors.push(ActorSnap { host, waiting, alive, phase, state });
    }

    Ok(EngineSnapshot {
        clock,
        seq,
        ops_completed,
        events,
        completions,
        lmm,
        activities,
        ops,
        comms,
        mailboxes,
        actors,
    })
}

impl ReplayCheckpoint {
    /// Serializes into a `TICK1` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint);
        e.u64(self.actions_replayed);
        enc_engine(&mut e, &self.engine);
        e.finish()
    }

    /// Parses a `TICK1` payload; structurally validates the embedded
    /// engine snapshot before returning.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(payload);
        let fingerprint = d.u64()?;
        let actions_replayed = d.u64()?;
        let engine = dec_engine(&mut d)?;
        d.expect_done()?;
        engine.validate()?;
        Ok(ReplayCheckpoint { fingerprint, actions_replayed, engine })
    }

    /// Loads and decodes a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, ReplayError> {
        let payload = read_checkpoint(path)
            .map_err(|e| ck_err(format!("cannot read {}: {e}", path.display())))?;
        Self::decode(&payload)
            .map_err(|e| ck_err(format!("{} is not a valid replay checkpoint: {e}", path.display())))
    }

    /// Encodes and writes a checkpoint file atomically.
    pub fn save(&self, path: &Path) -> Result<(), ReplayError> {
        write_checkpoint(path, &self.encode())
            .map_err(|e| ck_err(format!("cannot write {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{Input, Replay, ReplayOutcome, Status, Stop};
    use crate::testkit::{busy_trace, mycluster, plain_cfg, tmp_dir};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;
    use tit_core::{Budget, CompactTrace};

    /// Writes `busy_trace(iters)` into a scratch dir and runs it until
    /// the first checkpoint, written to `<dir>/state.tick`.
    fn first_checkpoint(tag: &str, iters: usize) -> (PathBuf, PathBuf) {
        let d = tmp_dir(tag);
        busy_trace(iters).save_per_process(&d).unwrap();
        let ckpath = d.join("state.tick");
        let (p, hosts) = mycluster(4);
        let out = Replay::new(Input::files(&d, 4), p, &hosts, &plain_cfg())
            .checkpoint(Some(ckpath.clone()))
            .pause_every(3)
            .stop_after(Some(1))
            .run()
            .unwrap();
        assert_eq!(out.status, Status::Stopped(Stop::StopAfter));
        (d, ckpath)
    }

    fn resume_files(
        d: &Path,
        cfg: &ReplayConfig,
        ck: &Path,
    ) -> Result<ReplayOutcome, ReplayError> {
        let (p, hosts) = mycluster(4);
        let ck = ReplayCheckpoint::load(ck)?;
        Replay::new(Input::files(d, 4), p, &hosts, cfg).resume(Some(ck)).run()
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let (d, ckpath) = first_checkpoint("fp", 1);
        // Different network model → different fingerprint → refused.
        let err = resume_files(&d, &ReplayConfig::default(), &ckpath).unwrap_err();
        assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn salt_binds_the_fingerprint_to_trace_content() {
        let (p, _) = mycluster(4);
        let cfg = plain_cfg();
        let base = fingerprint(&p, &cfg, 4, 0);
        // Distinct salts separate, and salting is not a plain XOR/add.
        let a = fingerprint(&p, &cfg, 4, 1);
        let b = fingerprint(&p, &cfg, 4, 2);
        assert_ne!(a, b);
        assert_ne!(a, base);
        assert_ne!(a, base ^ 1);
        assert_ne!(a, base.wrapping_add(1));
    }

    #[test]
    fn preempted_state_refuses_another_trace() {
        let always = AtomicBool::new(true);
        let short = Arc::new(CompactTrace::from_trace(&busy_trace(2)).unwrap());
        let (p, hosts) = mycluster(4);
        let out = Replay::new(Input::compact(&short), p, &hosts, &plain_cfg())
            .pause_every(2)
            .preempt(Some(&always))
            .run()
            .unwrap();
        assert_eq!(out.status, Status::Stopped(Stop::Preempted));
        let paused = out.paused.expect("preempted state");
        // Same platform/config, a longer trace → different salt → refused.
        let long = Arc::new(CompactTrace::from_trace(&busy_trace(3)).unwrap());
        let (p, _) = mycluster(4);
        let err = Replay::new(Input::compact(&long), p, &hosts, &plain_cfg())
            .resume(Some(paused.clone()))
            .run()
            .unwrap_err();
        assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
        // The matching trace resumes and finishes.
        let (p, _) = mycluster(4);
        let done = Replay::new(Input::compact(&short), p, &hosts, &plain_cfg())
            .resume(Some(paused))
            .run()
            .unwrap();
        assert!(matches!(done.status, Status::Finished { .. }));
    }

    #[test]
    fn corrupt_checkpoint_fails_closed() {
        let (d, ckpath) = first_checkpoint("corrupt", 1);
        let mut bytes = std::fs::read(&ckpath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&ckpath, &bytes).unwrap();
        let err = resume_files(&d, &plain_cfg(), &ckpath).unwrap_err();
        assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn watchdog_writes_final_checkpoint_and_pauses() {
        let d = tmp_dir("wall");
        busy_trace(4).save_per_process(&d).unwrap();
        let ckpath = d.join("state.tick");
        let (p1, hosts) = mycluster(4);
        let out = Replay::new(Input::files(&d, 4), p1, &hosts, &plain_cfg())
            .checkpoint(Some(ckpath.clone()))
            .deadline(Budget::limited(Duration::ZERO))
            .run()
            .unwrap();
        assert_eq!(out.status, Status::Stopped(Stop::Deadline));
        assert!(ckpath.exists(), "final checkpoint must be on disk");
        // And the saved state resumes to the same result as a plain run.
        let (p2, _) = mycluster(4);
        let reference = Replay::new(Input::files(&d, 4), p2, &hosts, &plain_cfg()).run().unwrap();
        let resumed = resume_files(&d, &plain_cfg(), &ckpath).unwrap();
        match resumed.status {
            Status::Finished { simulated_time } => {
                assert_eq!(simulated_time.to_bits(), reference.simulated_time.to_bits());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        std::fs::remove_dir_all(&d).unwrap();
    }
}
