//! The NPB CG (conjugate gradient) communication skeleton.
//!
//! Not part of the paper's evaluation (which uses LU throughout), but
//! the paper's premise is the NPB suite; CG is the natural second
//! benchmark because its profile is the *opposite* of LU's: dominated by
//! small latency-bound reductions (two dot products per inner iteration)
//! plus a transpose exchange along process-grid rows for the sparse
//! matrix-vector product. Useful to exercise the replay tool on an
//! allreduce-heavy trace.
//!
//! Process grid: `nprows × npcols` with `npcols = 2^ceil(log2(n)/2)`
//! (NPB's `setup_proc_info`); each of the `niter` outer iterations runs
//! 25 inner CG iterations.

use crate::classes::Class;
use mpi_emul::ops::{MpiOp, OpStream};
use std::collections::VecDeque;

/// CG class parameters (`na` matrix order, `nonzer` per-row density,
/// `niter` outer iterations) — NPB 3.3 values.
pub fn cg_params(class: Class) -> (u64, u64, usize) {
    match class {
        Class::S => (1_400, 7, 15),
        Class::W => (7_000, 8, 15),
        Class::A => (14_000, 11, 15),
        Class::B => (75_000, 13, 75),
        Class::C => (150_000, 15, 75),
        Class::D => (1_500_000, 21, 100),
        Class::E => (9_000_000, 26, 100),
    }
}

/// Inner CG iterations per outer iteration (NPB's `cgitmax`).
pub const CGITMAX: usize = 25;

/// A CG instance.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    pub class: Class,
    pub nproc: usize,
    /// Outer-iteration override (scale knob).
    pub niter_override: Option<usize>,
}

impl CgConfig {
    pub fn new(class: Class, nproc: usize) -> Self {
        assert!(nproc.is_power_of_two(), "CG needs a power-of-two process count");
        CgConfig { class, nproc, niter_override: None }
    }

    pub fn with_niter(mut self, niter: usize) -> Self {
        self.niter_override = Some(niter);
        self
    }

    pub fn niter(&self) -> usize {
        let (_, _, n) = cg_params(self.class);
        self.niter_override.unwrap_or(n).max(1)
    }

    /// NPB's process grid: `npcols >= nprows`, both powers of two.
    pub fn grid(&self) -> (usize, usize) {
        let ndim = self.nproc.trailing_zeros();
        let npcols = 1usize << ndim.div_ceil(2);
        (self.nproc / npcols, npcols)
    }

    /// Factory for the acquisition driver and `program_trace`.
    pub fn program(self) -> impl Fn(usize, usize) -> Box<dyn OpStream> {
        move |rank, nproc| {
            assert_eq!(nproc, self.nproc);
            Box::new(CgStream::new(self, rank))
        }
    }
}

/// Streaming op generator for one CG rank.
pub struct CgStream {
    cfg: CgConfig,
    outer: usize,
    inner: usize,
    buf: VecDeque<MpiOp>,
    started: bool,
    /// Transpose-exchange partners within the process-grid row
    /// (recursive doubling, `log2(npcols)` stages).
    partners: Vec<usize>,
    /// Bytes exchanged per reduction stage.
    chunk_bytes: f64,
    /// Local share of the sparse matvec, flops.
    matvec_flops: f64,
    /// Local vector-update flops per inner iteration.
    axpy_flops: f64,
    /// Local dot-product flops.
    dot_flops: f64,
}

impl CgStream {
    pub fn new(cfg: CgConfig, rank: usize) -> Self {
        let (nprows, npcols) = cfg.grid();
        let (na, nonzer, _) = cg_params(cfg.class);
        let col = rank % npcols;
        let row = rank / npcols;
        // Recursive-doubling partners within the row.
        let mut partners = Vec::new();
        let mut stride = 1usize;
        while stride < npcols {
            let partner_col = col ^ stride;
            partners.push(row * npcols + partner_col);
            stride <<= 1;
        }
        let local_n = na as f64 / nprows as f64;
        // nnz ~ na * (nonzer+1)^2 (NPB's makea density estimate).
        let nnz = na as f64 * ((nonzer + 1) * (nonzer + 1)) as f64;
        CgStream {
            cfg,
            outer: 0,
            inner: 0,
            buf: VecDeque::new(),
            started: false,
            partners,
            chunk_bytes: (local_n / npcols as f64) * 8.0,
            matvec_flops: 2.0 * nnz / cfg.nproc as f64,
            axpy_flops: 10.0 * local_n / npcols as f64,
            dot_flops: 2.0 * local_n / npcols as f64,
        }
    }

    fn fill_inner_iteration(&mut self) {
        // Sparse matvec.
        self.buf.push_back(MpiOp::Compute { flops: self.matvec_flops, efficiency: 0.55 });
        // Transpose reduction along the row: Irecv/Send/Wait per stage.
        for &p in &self.partners {
            self.buf.push_back(MpiOp::Irecv { src: p, bytes: self.chunk_bytes });
            self.buf.push_back(MpiOp::Send { dst: p, bytes: self.chunk_bytes });
            self.buf.push_back(MpiOp::Wait);
        }
        // Two dot products (rho, alpha denominator) + vector updates.
        for _ in 0..2 {
            self.buf.push_back(MpiOp::Allreduce { vcomm: 8.0, vcomp: self.dot_flops });
        }
        self.buf.push_back(MpiOp::Compute { flops: self.axpy_flops, efficiency: 0.8 });
    }

    fn fill_residual_norm(&mut self) {
        self.buf.push_back(MpiOp::Allreduce { vcomm: 8.0, vcomp: self.dot_flops });
    }
}

impl OpStream for CgStream {
    fn next_op(&mut self) -> Option<MpiOp> {
        loop {
            if let Some(op) = self.buf.pop_front() {
                return Some(op);
            }
            if !self.started {
                self.started = true;
                self.buf.push_back(MpiOp::CommSize);
                continue;
            }
            if self.outer >= self.cfg.niter() {
                return None;
            }
            if self.inner < CGITMAX {
                self.inner += 1;
                self.fill_inner_iteration();
            } else {
                self.fill_residual_norm();
                self.inner = 0;
                self.outer += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program_trace;

    #[test]
    fn grid_follows_npb_rule() {
        assert_eq!(CgConfig::new(Class::S, 1).grid(), (1, 1));
        assert_eq!(CgConfig::new(Class::S, 2).grid(), (1, 2));
        assert_eq!(CgConfig::new(Class::S, 4).grid(), (2, 2));
        assert_eq!(CgConfig::new(Class::S, 8).grid(), (2, 4));
        assert_eq!(CgConfig::new(Class::S, 16).grid(), (4, 4));
    }

    #[test]
    fn trace_validates_and_is_allreduce_heavy() {
        let cfg = CgConfig::new(Class::S, 8).with_niter(2);
        let t = program_trace(&cfg.program(), 8);
        let report = titlint::analyze(&t);
        assert!(!report.has_errors(), "{}", report.render_text());
        let stats = tit_core::TraceStats::of(&t);
        let allreduces = stats.per_keyword["allReduce"];
        // 2 per inner iteration x 25 x 2 outers + 1 norm per outer, x8.
        assert_eq!(allreduces, 8 * (2 * CGITMAX as u64 * 2 + 2));
    }

    #[test]
    fn partners_are_symmetric() {
        let cfg = CgConfig::new(Class::S, 16);
        for rank in 0..16 {
            let s = CgStream::new(cfg, rank);
            for &p in &s.partners {
                let sp = CgStream::new(cfg, p);
                assert!(sp.partners.contains(&rank), "rank {rank} partner {p}");
            }
        }
    }

    #[test]
    fn niter_scales_trace_linearly() {
        let a = program_trace(&CgConfig::new(Class::S, 4).with_niter(1).program(), 4)
            .num_actions();
        let b = program_trace(&CgConfig::new(Class::S, 4).with_niter(3).program(), 4)
            .num_actions();
        assert!(b > 2 * a && b < 4 * a, "{a} vs {b}");
    }

    #[test]
    fn replayable_end_to_end() {
        use crate::op_to_action;
        let _ = op_to_action(&MpiOp::Wait); // module linkage sanity
        let cfg = CgConfig::new(Class::S, 4).with_niter(1);
        let t = program_trace(&cfg.program(), 4);
        assert!(t.num_actions() > 100);
    }
}
