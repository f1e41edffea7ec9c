//! `tit-extract` — from TAU traces to time-independent traces.
//!
//! The paper's `tau2simgrid` tool (Section 4.3) implements the callbacks
//! of the TAU Trace Format Reader: it walks each binary trace, rebuilds
//! CPU-burst volumes from `PAPI_FP_OPS` trigger deltas, turns message
//! records into `send`/`recv` actions (with the lookup technique for
//! `MPI_Irecv`, whose source is only known from the `RecvMessage` event
//! inside the matching `MPI_Wait`), and writes one `SG_process<N>.trace`
//! per rank. The traces are then **gathered** onto a single node with a
//! K-nomial tree reduction (`log_{K+1} N` steps).
//!
//! * [`tau2ti()`] — the extractor (parallel over ranks).
//! * [`gather`] — gathering plan, cost model, and a physical bundle
//!   format.
//! * [`pipeline`] — the full acquisition chain with the per-step cost
//!   accounting Figure 7 reports (application, tracing overhead,
//!   extraction, gathering).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod faultinject;
pub mod gather;
pub mod pipeline;
pub mod tau2ti;

pub use error::{with_retry, PipelineError, RetryPolicy};
pub use faultinject::{Fault, FaultSpec, Injector};
pub use gather::{bundle, gather_plan, unbundle, unbundle_degraded, DegradedUnbundle, GatherPlan};
pub use pipeline::{run_pipeline, PipelineCosts, PipelineResult};
pub use tau2ti::{extract_process, tau2ti, ExtractStats};
