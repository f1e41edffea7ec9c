//! `simkern` — a flow-level discrete-event simulation kernel.
//!
//! This crate is the stand-in for the SimGrid simulation kernel used by the
//! paper *Assessing the Performance of MPI Applications Through
//! Time-Independent Trace Replay* (Desprez, Markomanolis, Quinson, Suter;
//! PSTI/ICPP 2011). It provides:
//!
//! * **Resources** — hosts (CPUs with a per-core speed in flop/s) and
//!   network links (bandwidth in bytes/s, latency in seconds), assembled
//!   into a [`resource::Platform`] with a routing table.
//! * **A bandwidth-sharing solver** — [`lmm`] implements max-min fairness
//!   with per-variable rate bounds (progressive filling), the analytical
//!   contention model SimGrid validates against packet-level simulation.
//! * **Activities** — computations and point-to-point communications whose
//!   progress is driven by the solver; communications have a latency phase
//!   followed by a bandwidth-shared transfer phase.
//! * **Actors** — simulated processes expressed as resumable state machines
//!   ([`actor::Actor`]), communicating through rendezvous mailboxes.
//! * **Network models** — a constant (contention-free) model, a shared
//!   flow model, and the MPI-specific 3-segment piece-wise-linear model
//!   of the paper ([`netmodel::PiecewiseModel`]).
//!
//! The engine is single-threaded and fully deterministic: simultaneous
//! events are ordered by sequence number.
//!
//! # Example
//!
//! ```
//! use simkern::resource::PlatformBuilder;
//! use simkern::engine::Engine;
//! use simkern::actor::{Actor, Ctx, Step, Wake};
//!
//! // Two hosts connected by one link; one actor computes then messages
//! // the other.
//! let mut pb = PlatformBuilder::new();
//! let h0 = pb.add_host("a", 1e9, 1);
//! let h1 = pb.add_host("b", 1e9, 1);
//! let l = pb.add_link("l", 1.25e8, 1e-5);
//! pb.add_route(h0, h1, vec![l]);
//! let platform = pb.build();
//!
//! struct Sender;
//! impl Actor for Sender {
//!     fn step(&mut self, ctx: &mut Ctx, wake: Wake) -> Step {
//!         match wake {
//!             Wake::Start => {
//!                 let op = ctx.execute_tagged(1e6, 0);
//!                 Step::Wait(op)
//!             }
//!             Wake::Op(_) if ctx.phase() == 0 => {
//!                 ctx.set_phase(1);
//!                 let op = ctx.isend_tagged(simkern::engine::MailboxKey::p2p(0, 1), 1e6, 0);
//!                 Step::Wait(op)
//!             }
//!             _ => Step::Done,
//!         }
//!     }
//! }
//! struct Receiver;
//! impl Actor for Receiver {
//!     fn step(&mut self, ctx: &mut Ctx, wake: Wake) -> Step {
//!         match wake {
//!             Wake::Start => {
//!                 let op = ctx.irecv_tagged(simkern::engine::MailboxKey::p2p(0, 1), 0);
//!                 Step::Wait(op)
//!             }
//!             _ => Step::Done,
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(platform);
//! engine.spawn(Box::new(Sender), h0);
//! engine.spawn(Box::new(Receiver), h1);
//! let end = engine.run_checked().expect("well-formed actor program");
//! assert!(end > 1e-3); // 1 Mflop at 1 Gflop/s + 1 MB at 125 MB/s
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod actor;
pub mod idxheap;
pub mod engine;
pub mod error;
pub mod fxhash;
pub mod kprof;
pub mod lmm;
pub mod netmodel;
pub mod observer;
pub mod resource;
pub mod slab;
pub mod snapshot;

pub use actor::{Actor, Ctx, Step, Wake};
pub use engine::{Engine, KernelMode, MailboxKey, OpId, RunStatus};
pub use kprof::{KernelProfile, WallPhases};
pub use snapshot::EngineSnapshot;
pub use error::{OpKind, SimError, WaitFor};
pub use netmodel::{NetworkConfig, PiecewiseModel, Segment};
pub use resource::{HostId, LinkId, Platform, PlatformBuilder, Route};
