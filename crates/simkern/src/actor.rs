//! The actor model: simulated processes as resumable state machines.
//!
//! The engine is single-threaded; simulated processes ("actors") are not OS
//! threads but objects implementing [`Actor`]. The engine calls
//! [`Actor::step`] when the actor starts and whenever the operation it
//! blocks on completes. During a step, the actor issues operations through
//! the [`Ctx`] handle (compute, isend, irecv, sleep) and returns either
//! [`Step::Wait`] on one operation or [`Step::Done`].
//!
//! This design avoids the context-switch cost the paper's Section 6.6
//! identifies as the dominant part of simulation time in the MSG-based
//! prototype ("the biggest part of this simulation time is spent in the
//! system"), one of the two mitigations the authors propose (bypassing the
//! process-oriented API).

pub use crate::engine::Ctx;
use crate::engine::OpId;

/// Why the actor is being scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// First scheduling after spawn.
    Start,
    /// The operation the actor was waiting on completed.
    Op(OpId),
}

/// What the actor does next.
#[derive(Debug)]
pub enum Step {
    /// Block until `OpId` completes (wake immediately if it already has).
    Wait(OpId),
    /// The actor terminated.
    Done,
    /// The actor hit unrecoverable bad input (e.g. a corrupt trace line).
    ///
    /// This is the failure channel: instead of unwinding through the
    /// engine, the failure is reported to it, which aborts the run with
    /// [`crate::error::SimError::ActorFailure`] naming this actor and
    /// carrying the error unchanged, so the caller can downcast it back
    /// to its own type. Its message should say *what* was malformed and
    /// *where* (file, line).
    Fail {
        /// What was malformed and where (file, line) when known.
        reason: Box<dyn std::error::Error + Send + Sync>,
    },
}

/// A simulated process.
pub trait Actor {
    /// Resumes the actor. `wake` says why it was scheduled.
    fn step(&mut self, ctx: &mut Ctx<'_>, wake: Wake) -> Step;

    /// Serializes the actor's own state for a checkpoint, or `None`
    /// when this actor type does not support checkpointing (the
    /// default). [`crate::Engine::export_state`] fails if any *alive*
    /// actor returns `None`, so opting out is safe but makes the whole
    /// engine uncheckpointable while such an actor runs.
    fn export_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state previously produced by
    /// [`export_state`](Actor::export_state) into a freshly-constructed
    /// actor. The default rejects, matching the default export.
    fn import_state(&mut self, _state: &[u8]) -> Result<(), String> {
        Err("this actor type does not support checkpoint restore".into())
    }
}

/// Blanket helper: an actor from a closure, for tests and examples.
pub struct FnActor<F>(pub F);

impl<F> Actor for FnActor<F>
where
    F: FnMut(&mut Ctx<'_>, Wake) -> Step,
{
    fn step(&mut self, ctx: &mut Ctx<'_>, wake: Wake) -> Step {
        (self.0)(ctx, wake)
    }
}
