//! A 2-D Jacobi heat-diffusion stencil.
//!
//! Not part of the paper's evaluation, but a second realistic workload
//! the intro motivates (regular domain-decomposed codes): each process
//! owns a tile of an `n × n` grid, exchanges halo rows/columns with up to
//! four neighbours every sweep (Irecv/Send/Wait), relaxes its tile, and
//! periodically reduces the global residual.

use mpi_emul::ops::{MpiOp, OpStream};
use std::collections::VecDeque;
use tit_core::TiTrace;

/// A Jacobi instance on a `px × py` process grid.
#[derive(Debug, Clone, Copy)]
pub struct StencilConfig {
    /// Global grid edge.
    pub n: usize,
    pub px: usize,
    pub py: usize,
    pub iters: usize,
    /// Residual-reduction period.
    pub check_every: usize,
    /// Flops per point per sweep (5-point stencil ≈ 6).
    pub flops_per_point: f64,
}

impl Default for StencilConfig {
    fn default() -> Self {
        StencilConfig { n: 1024, px: 2, py: 2, iters: 100, check_every: 10, flops_per_point: 6.0 }
    }
}

impl StencilConfig {
    pub fn nproc(&self) -> usize {
        self.px * self.py
    }

    /// Factory for the acquisition driver and `program_trace`.
    pub fn program(self) -> impl Fn(usize, usize) -> Box<dyn OpStream> {
        move |rank, nproc| {
            assert_eq!(nproc, self.nproc());
            Box::new(StencilStream::new(self, rank))
        }
    }

    /// Directly generated time-independent trace.
    pub fn trace(&self) -> TiTrace {
        crate::program_trace(&self.program(), self.nproc())
    }
}

/// Streaming op generator for one stencil rank.
pub struct StencilStream {
    cfg: StencilConfig,
    it: usize,
    buf: VecDeque<MpiOp>,
    neighbours: Vec<(usize, f64)>,
    tile_points: f64,
    started: bool,
}

impl StencilStream {
    pub fn new(cfg: StencilConfig, rank: usize) -> Self {
        assert!(rank < cfg.nproc());
        let (px, py) = (cfg.px, cfg.py);
        let (x, y) = (rank % px, rank / px);
        let tile_x = cfg.n / px;
        let tile_y = cfg.n / py;
        let mut neighbours = Vec::new();
        if x > 0 {
            neighbours.push((rank - 1, (tile_y * 8) as f64));
        }
        if x + 1 < px {
            neighbours.push((rank + 1, (tile_y * 8) as f64));
        }
        if y > 0 {
            neighbours.push((rank - px, (tile_x * 8) as f64));
        }
        if y + 1 < py {
            neighbours.push((rank + px, (tile_x * 8) as f64));
        }
        StencilStream {
            cfg,
            it: 0,
            buf: VecDeque::new(),
            neighbours,
            tile_points: (tile_x * tile_y) as f64,
            started: false,
        }
    }

    fn fill_iteration(&mut self) {
        for &(n, bytes) in &self.neighbours {
            self.buf.push_back(MpiOp::Irecv { src: n, bytes });
        }
        for &(n, bytes) in &self.neighbours {
            self.buf.push_back(MpiOp::Send { dst: n, bytes });
        }
        for _ in 0..self.neighbours.len() {
            self.buf.push_back(MpiOp::Wait);
        }
        self.buf.push_back(MpiOp::compute(self.cfg.flops_per_point * self.tile_points));
        if self.it.is_multiple_of(self.cfg.check_every) || self.it == self.cfg.iters {
            // Global residual: one double, 2 flops/point locally.
            self.buf.push_back(MpiOp::Allreduce {
                vcomm: 8.0,
                vcomp: 2.0 * self.tile_points,
            });
        }
    }
}

impl OpStream for StencilStream {
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
            if self.it >= self.cfg.iters {
                return None;
            }
            self.it += 1;
            self.fill_iteration();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_validates_for_various_grids() {
        for (px, py) in [(1, 2), (2, 2), (4, 2), (3, 3)] {
            let cfg = StencilConfig { n: 64, px, py, iters: 5, ..Default::default() };
            let t = cfg.trace();
            let report = titlint::analyze(&t);
            assert!(!report.has_errors(), "{px}x{py}: {}", report.render_text());
            assert_eq!(t.num_processes(), px * py);
        }
    }

    #[test]
    fn interior_rank_has_four_neighbours() {
        let cfg = StencilConfig { n: 64, px: 3, py: 3, iters: 1, ..Default::default() };
        let s = StencilStream::new(cfg, 4); // centre of the 3x3 grid
        assert_eq!(s.neighbours.len(), 4);
        let corner = StencilStream::new(cfg, 0);
        assert_eq!(corner.neighbours.len(), 2);
    }

    #[test]
    fn residual_check_period_honoured() {
        let cfg = StencilConfig { n: 32, px: 2, py: 1, iters: 10, check_every: 5, ..Default::default() };
        let t = cfg.trace();
        let allreduces = t.actions[0]
            .iter()
            .filter(|a| matches!(a, tit_core::Action::AllReduce { .. }))
            .count();
        // Iterations 5 and 10 → 2 reductions.
        assert_eq!(allreduces, 2);
    }
}
