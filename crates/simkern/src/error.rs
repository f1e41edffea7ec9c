//! The kernel's structured failure model.
//!
//! The engine never unwinds on malformed input: every way a simulation
//! can fail to terminate normally is a [`SimError`] variant carrying
//! enough context to diagnose the failing actor — which process was
//! blocked on which mailbox or operation, at what simulated time.
//! Actors report their own failures through [`crate::Step::Fail`]
//! (the failure channel) instead of panicking mid-step, so one corrupt
//! per-process trace aborts the simulation with a typed error rather
//! than the whole process.

use crate::engine::{ActorId, MailboxKey};

/// What kind of operation an actor was blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A CPU burst.
    Compute,
    /// A message emission.
    Send,
    /// A message reception.
    Recv,
    /// A timed sleep.
    Sleep,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OpKind::Compute => "compute",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
            OpKind::Sleep => "sleep",
        })
    }
}

/// Per-actor wait-for diagnostic: one blocked actor's state at the
/// moment the simulation stopped making progress.
#[derive(Debug, Clone)]
pub struct WaitFor {
    /// The blocked actor (== MPI rank in the replayer).
    pub actor: ActorId,
    /// Operation kind it is blocked on, if it is blocked on one at all.
    pub kind: Option<OpKind>,
    /// Observer tag of the blocking operation.
    pub tag: u32,
    /// Mailbox of the blocking operation (communications only).
    pub mailbox: Option<MailboxKey>,
    /// Volume (bytes or flops) of the blocking operation.
    pub volume: f64,
    /// Simulated time at which the blocking operation was posted.
    pub since: f64,
}

impl std::fmt::Display for WaitFor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{} blocked", self.actor)?;
        match self.kind {
            Some(kind) => write!(f, " on {kind}")?,
            None => write!(f, " with no pending op")?,
        }
        if let Some(mb) = self.mailbox {
            write!(f, " [mailbox {}->{} chan {}]", mb.src, mb.dst, mb.chan)?;
        }
        if self.volume > 0.0 {
            write!(f, " ({} units)", self.volume)?;
        }
        write!(f, " since t={:.9}", self.since)
    }
}

/// Why a simulation did not run to completion.
#[derive(Debug)]
pub enum SimError {
    /// No events remain but live actors are still blocked: the replayed
    /// trace (or actor program) is not self-consistent.
    Deadlock {
        /// Simulated time at which progress stopped.
        time: f64,
        /// Wait-for diagnostic of every still-blocked actor.
        blocked: Vec<WaitFor>,
    },
    /// An actor reported a failure through the failure channel
    /// ([`crate::Step::Fail`]) — e.g. a corrupt trace line.
    ActorFailure {
        /// The failing actor (its rank for replay actors).
        actor: ActorId,
        /// Simulated time at which the failure was reported.
        time: f64,
        /// The error the actor failed with, as it gave it.
        reason: Box<dyn std::error::Error + Send + Sync>,
    },
    /// The engine caught an actor doing something structurally invalid
    /// (waiting on a foreign or unknown operation, sending to a rank
    /// that was never spawned).
    Protocol {
        /// The offending actor.
        actor: ActorId,
        /// Simulated time of the violation.
        time: f64,
        /// What invariant was broken.
        detail: String,
    },
}

impl SimError {
    /// Simulated time at which the failure was detected.
    pub fn time(&self) -> f64 {
        match self {
            SimError::Deadlock { time, .. }
            | SimError::ActorFailure { time, .. }
            | SimError::Protocol { time, .. } => *time,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { time, blocked } => {
                write!(f, "deadlock at t={time:.9}: {} actor(s) blocked: ", blocked.len())?;
                for (i, w) in blocked.iter().take(8).enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{w}")?;
                }
                if blocked.len() > 8 {
                    write!(f, "; … and {} more", blocked.len() - 8)?;
                }
                Ok(())
            }
            SimError::ActorFailure { actor, time, reason } => {
                write!(f, "actor p{actor} failed at t={time}: {reason}")
            }
            SimError::Protocol { actor, time, detail } => {
                write!(f, "protocol violation by p{actor} at t={time}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_names_actor_mailbox_and_time() {
        let e = SimError::Deadlock {
            time: 1.5,
            blocked: vec![WaitFor {
                actor: 3,
                kind: Some(OpKind::Recv),
                tag: 4,
                mailbox: Some(MailboxKey::p2p(1, 3)),
                volume: 0.0,
                since: 0.25,
            }],
        };
        let msg = e.to_string();
        assert!(msg.contains("p3"), "{msg}");
        assert!(msg.contains("recv"), "{msg}");
        assert!(msg.contains("1->3"), "{msg}");
        assert!(msg.contains("t=1.5"), "{msg}");
        assert!(msg.contains("since t=0.25"), "{msg}");
    }

    #[test]
    fn long_deadlock_lists_are_elided() {
        let blocked: Vec<WaitFor> = (0..20)
            .map(|a| WaitFor {
                actor: a,
                kind: Some(OpKind::Send),
                tag: 0,
                mailbox: None,
                volume: 1.0,
                since: 0.0,
            })
            .collect();
        let msg = SimError::Deadlock { time: 0.0, blocked }.to_string();
        assert!(msg.contains("and 12 more"), "{msg}");
    }
}
