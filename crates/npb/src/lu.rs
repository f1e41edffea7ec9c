//! The NPB LU communication/computation skeleton.
//!
//! LU applies SSOR iterations to a 3-D grid distributed over a 2-D
//! process grid (power-of-two ranks). Each iteration:
//!
//! 1. **Lower sweep** (`jacld`/`blts`): for every k-plane, receive
//!    boundary data from the north and west neighbours (`MPI_Irecv` +
//!    `MPI_Wait`, LU's `exchange_1`), factor the plane, send to south and
//!    east — the wavefront pipeline that makes LU latency-sensitive.
//! 2. **Upper sweep** (`jacu`/`buts`): the mirror pipeline, south/east to
//!    north/west.
//! 3. **RHS update** with full ghost-face exchanges (`exchange_3`:
//!    `MPI_Irecv`/`MPI_Send`/`MPI_Wait` per neighbour).
//! 4. Periodic residual norms via `MPI_Allreduce` (`l2norm`).
//!
//! Per-kernel flop volumes are proportional to the local subdomain, with
//! per-kernel *effective* flop rates (cache behaviour differs between the
//! triangular solves and the stencil-heavy RHS). Section 6.4 of the paper
//! blames exactly this rate variability for the replay error: the
//! replayer uses one calibrated average rate.
//!
//! The skeleton's per-process action count,
//! `2·itmax·(nz-2)·(2·upstream + downstream + 1) + exchanges + norms`,
//! reproduces Table 3's measured counts within a few percent (see the
//! `table3` experiment).

use crate::classes::Class;
use mpi_emul::ops::{MpiOp, OpStream};
use std::collections::VecDeque;

/// Flop volumes (per grid point per iteration) and effective rates of
/// the LU kernels. Defaults were fixed so that the emulated class-B/C
/// runs land in the range of the paper's Table 2 wall-clocks on the
/// bordereau model.
#[derive(Debug, Clone, Copy)]
pub struct LuFlopModel {
    /// `jacld` + `blts`, per point of a k-plane.
    pub jacld_blts_per_point: f64,
    /// `jacu` + `buts`, per point of a k-plane.
    pub jacu_buts_per_point: f64,
    /// `rhs` (+ solution update), per 3-D point.
    pub rhs_per_point: f64,
    /// `l2norm`, per 3-D point.
    pub norm_per_point: f64,
    /// Effective rate factors (fraction of calibrated core speed).
    pub eff_lower: f64,
    pub eff_upper: f64,
    pub eff_rhs: f64,
}

impl Default for LuFlopModel {
    fn default() -> Self {
        LuFlopModel {
            jacld_blts_per_point: 1000.0,
            jacu_buts_per_point: 1000.0,
            rhs_per_point: 1500.0,
            norm_per_point: 10.0,
            eff_lower: 0.96,
            eff_upper: 0.84,
            eff_rhs: 1.0,
        }
    }
}

impl LuFlopModel {
    /// Cache-pressure factor: the effective flop rate slides from full
    /// speed (working set fits L2) down to memory-bound (far beyond L3),
    /// linearly in `log2(working set)`. This is the rate variability
    /// Section 6.4 blames for the replay error: it depends on the
    /// *local* problem size, so no single calibrated rate fits every
    /// (class, process count) instance.
    pub fn cache_factor(&self, ws_bytes: f64) -> f64 {
        const FAST_BYTES: f64 = 1024.0 * 1024.0; // ~L2
        const SLOW_BYTES: f64 = 8.0 * 1024.0 * 1024.0; // beyond L3
        const FAST_EFF: f64 = 1.12; // cache-resident bonus
        const SLOW_EFF: f64 = 0.88; // memory-bound penalty
        if ws_bytes <= FAST_BYTES {
            FAST_EFF
        } else if ws_bytes >= SLOW_BYTES {
            SLOW_EFF
        } else {
            let t = (ws_bytes / FAST_BYTES).log2() / (SLOW_BYTES / FAST_BYTES).log2();
            FAST_EFF + t * (SLOW_EFF - FAST_EFF)
        }
    }
}

/// An LU instance: class + process count (+ optional iteration override,
/// the experiment scale knob — volumes per iteration are unchanged).
#[derive(Debug, Clone, Copy)]
pub struct LuConfig {
    pub class: Class,
    pub nproc: usize,
    pub itmax_override: Option<usize>,
    pub model: LuFlopModel,
}

impl LuConfig {
    pub fn new(class: Class, nproc: usize) -> Self {
        LuConfig { class, nproc, itmax_override: None, model: LuFlopModel::default() }
    }

    /// Caps the iteration count (scale knob; trace size and run time are
    /// linear in it).
    pub fn with_itmax(mut self, itmax: usize) -> Self {
        self.itmax_override = Some(itmax);
        self
    }

    pub fn itmax(&self) -> usize {
        self.itmax_override.unwrap_or_else(|| self.class.itmax()).max(1)
    }

    /// Factory closure for the acquisition driver.
    pub fn program(self) -> impl Fn(usize, usize) -> Box<dyn OpStream> {
        move |rank, nproc| {
            assert_eq!(nproc, self.nproc, "LU instance built for {} ranks", self.nproc);
            Box::new(LuStream::new(self, rank))
        }
    }

    /// Number of actions rank `rank` will emit (streams and counts).
    pub fn count_actions(&self, rank: usize) -> u64 {
        let mut s = LuStream::new(*self, rank);
        let mut n = 0;
        while s.next_op().is_some() {
            n += 1;
        }
        n
    }
}

/// The LU process grid: `xdim × ydim` with `xdim = 2^(ndim/2)` as in
/// NPB's `proc_grid.f`. Requires a power-of-two process count.
pub fn proc_grid(nproc: usize) -> (usize, usize) {
    assert!(nproc > 0 && nproc.is_power_of_two(), "LU needs a power-of-two process count");
    let ndim = nproc.trailing_zeros();
    let xdim = 1usize << (ndim / 2);
    (xdim, nproc / xdim)
}

/// Per-rank geometry.
#[derive(Debug, Clone, Copy)]
pub struct LuGeometry {
    pub xdim: usize,
    pub ydim: usize,
    pub row: usize,
    pub col: usize,
    pub nx_local: usize,
    pub ny_local: usize,
    pub nz: usize,
    pub north: Option<usize>,
    pub south: Option<usize>,
    pub west: Option<usize>,
    pub east: Option<usize>,
}

impl LuGeometry {
    pub fn new(class: Class, nproc: usize, rank: usize) -> Self {
        let (xdim, ydim) = proc_grid(nproc);
        assert!(rank < nproc);
        let n = class.problem_size();
        // NPB's rank layout: row-major in x.
        let row = rank % xdim;
        let col = rank / xdim;
        let nx_local = n / xdim + usize::from(row < n % xdim);
        let ny_local = n / ydim + usize::from(col < n % ydim);
        LuGeometry {
            xdim,
            ydim,
            row,
            col,
            nx_local,
            ny_local,
            nz: n,
            north: (row > 0).then(|| rank - 1),
            south: (row + 1 < xdim).then(|| rank + 1),
            west: (col > 0).then(|| rank - xdim),
            east: (col + 1 < ydim).then(|| rank + xdim),
        }
    }

    /// Number of neighbours.
    pub fn degree(&self) -> usize {
        [self.north, self.south, self.west, self.east].iter().flatten().count()
    }

    /// Pipeline message along x (north/south): one plane row, 5 variables
    /// of 8 bytes.
    pub fn row_msg_bytes(&self) -> f64 {
        (self.ny_local * 5 * 8) as f64
    }

    /// Pipeline message along y (east/west).
    pub fn col_msg_bytes(&self) -> f64 {
        (self.nx_local * 5 * 8) as f64
    }

    /// `exchange_3` ghost face: 2 layers × 5 variables × nz.
    pub fn face_ns_bytes(&self) -> f64 {
        (2 * 5 * 8 * self.ny_local * self.nz) as f64
    }

    pub fn face_ew_bytes(&self) -> f64 {
        (2 * 5 * 8 * self.nx_local * self.nz) as f64
    }

    /// Points of one k-plane.
    pub fn plane_points(&self) -> f64 {
        (self.nx_local * self.ny_local) as f64
    }

    /// Points of the local 3-D subdomain.
    pub fn local_points(&self) -> f64 {
        self.plane_points() * self.nz as f64
    }

    /// Working set of one plane (5 variables + jacobians ≈ 4 arrays).
    pub fn plane_bytes(&self) -> f64 {
        self.plane_points() * 5.0 * 8.0 * 4.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Start,
    Lower { it: usize, k: usize },
    Upper { it: usize, k: usize },
    Rhs { it: usize },
    Norm { it: usize },
    Done,
}

/// Streaming op generator for one LU rank.
pub struct LuStream {
    cfg: LuConfig,
    geo: LuGeometry,
    phase: Phase,
    buf: VecDeque<MpiOp>,
    /// k-planes swept per direction (interior planes, as in NPB).
    kplanes: usize,
}

impl LuStream {
    pub fn new(cfg: LuConfig, rank: usize) -> Self {
        let geo = LuGeometry::new(cfg.class, cfg.nproc, rank);
        LuStream {
            cfg,
            geo,
            phase: Phase::Start,
            buf: VecDeque::with_capacity(16),
            kplanes: geo.nz.saturating_sub(2).max(1),
        }
    }

    pub fn geometry(&self) -> &LuGeometry {
        &self.geo
    }

    fn eff(&self, base: f64) -> f64 {
        base * self.cfg.model.cache_factor(self.geo.plane_bytes())
    }

    fn fill_start(&mut self) {
        self.buf.push_back(MpiOp::CommSize);
        // Initial RHS (sets up the residual) + initial norm, as ssor does
        // before iterating.
        self.fill_exchange3();
        self.push_rhs_compute();
        self.fill_norm();
    }

    /// One pipeline step of the lower sweep: receive from north/west,
    /// factor the plane, send to south/east (exchange_1 + jacld/blts).
    fn fill_lower_plane(&mut self) {
        let g = self.geo;
        for src in [g.north, g.west].into_iter().flatten() {
            let bytes = if Some(src) == g.north { g.row_msg_bytes() } else { g.col_msg_bytes() };
            self.buf.push_back(MpiOp::Irecv { src, bytes });
            self.buf.push_back(MpiOp::Wait);
        }
        self.buf.push_back(MpiOp::Compute {
            flops: self.cfg.model.jacld_blts_per_point * g.plane_points(),
            efficiency: self.eff(self.cfg.model.eff_lower),
        });
        if let Some(dst) = g.south {
            self.buf.push_back(MpiOp::Send { dst, bytes: g.row_msg_bytes() });
        }
        if let Some(dst) = g.east {
            self.buf.push_back(MpiOp::Send { dst, bytes: g.col_msg_bytes() });
        }
    }

    /// One pipeline step of the upper sweep (mirror direction).
    fn fill_upper_plane(&mut self) {
        let g = self.geo;
        for src in [g.south, g.east].into_iter().flatten() {
            let bytes = if Some(src) == g.south { g.row_msg_bytes() } else { g.col_msg_bytes() };
            self.buf.push_back(MpiOp::Irecv { src, bytes });
            self.buf.push_back(MpiOp::Wait);
        }
        self.buf.push_back(MpiOp::Compute {
            flops: self.cfg.model.jacu_buts_per_point * g.plane_points(),
            efficiency: self.eff(self.cfg.model.eff_upper),
        });
        if let Some(dst) = g.north {
            self.buf.push_back(MpiOp::Send { dst, bytes: g.row_msg_bytes() });
        }
        if let Some(dst) = g.west {
            self.buf.push_back(MpiOp::Send { dst, bytes: g.col_msg_bytes() });
        }
    }

    /// `exchange_3`: ghost-face swap with every neighbour.
    fn fill_exchange3(&mut self) {
        let g = self.geo;
        let dirs = [
            (g.north, g.face_ns_bytes()),
            (g.south, g.face_ns_bytes()),
            (g.west, g.face_ew_bytes()),
            (g.east, g.face_ew_bytes()),
        ];
        let mut waits = 0;
        for (n, bytes) in dirs {
            if let Some(src) = n {
                self.buf.push_back(MpiOp::Irecv { src, bytes });
                waits += 1;
            }
        }
        for (n, bytes) in dirs {
            if let Some(dst) = n {
                self.buf.push_back(MpiOp::Send { dst, bytes });
            }
        }
        for _ in 0..waits {
            self.buf.push_back(MpiOp::Wait);
        }
    }

    fn push_rhs_compute(&mut self) {
        // The RHS stencil sweeps the whole 3-D subdomain (~5 arrays of 5
        // variables), so its working set is the subdomain, not a plane.
        let ws = self.geo.local_points() * 200.0;
        self.buf.push_back(MpiOp::Compute {
            flops: self.cfg.model.rhs_per_point * self.geo.local_points(),
            efficiency: self.cfg.model.eff_rhs * self.cfg.model.cache_factor(ws),
        });
    }

    fn fill_norm(&mut self) {
        self.buf.push_back(MpiOp::Allreduce {
            vcomm: 5.0 * 8.0,
            vcomp: self.cfg.model.norm_per_point * self.geo.local_points(),
        });
    }

    /// Norm iterations: every `inorm` and the last.
    fn norm_due(&self, it: usize) -> bool {
        let itmax = self.cfg.itmax();
        it == itmax || it.is_multiple_of(self.cfg.class.inorm())
    }

    fn advance(&mut self) {
        let itmax = self.cfg.itmax();
        self.phase = match self.phase {
            Phase::Start => {
                self.fill_start();
                Phase::Lower { it: 1, k: 0 }
            }
            Phase::Lower { it, k } => {
                self.fill_lower_plane();
                if k + 1 < self.kplanes {
                    Phase::Lower { it, k: k + 1 }
                } else {
                    Phase::Upper { it, k: 0 }
                }
            }
            Phase::Upper { it, k } => {
                self.fill_upper_plane();
                if k + 1 < self.kplanes {
                    Phase::Upper { it, k: k + 1 }
                } else {
                    Phase::Rhs { it }
                }
            }
            Phase::Rhs { it } => {
                self.fill_exchange3();
                self.push_rhs_compute();
                if self.norm_due(it) {
                    Phase::Norm { it }
                } else if it < itmax {
                    Phase::Lower { it: it + 1, k: 0 }
                } else {
                    Phase::Done
                }
            }
            Phase::Norm { it } => {
                self.fill_norm();
                if it < itmax {
                    Phase::Lower { it: it + 1, k: 0 }
                } else {
                    Phase::Done
                }
            }
            Phase::Done => Phase::Done,
        };
    }
}

impl OpStream for LuStream {
    fn next_op(&mut self) -> Option<MpiOp> {
        loop {
            if let Some(op) = self.buf.pop_front() {
                return Some(op);
            }
            if self.phase == Phase::Done {
                return None;
            }
            self.advance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program_trace;

    #[test]
    fn proc_grid_matches_npb() {
        assert_eq!(proc_grid(1), (1, 1));
        assert_eq!(proc_grid(4), (2, 2));
        assert_eq!(proc_grid(8), (2, 4));
        assert_eq!(proc_grid(16), (4, 4));
        assert_eq!(proc_grid(32), (4, 8));
        assert_eq!(proc_grid(64), (8, 8));
        assert_eq!(proc_grid(1024), (32, 32));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        proc_grid(6);
    }

    #[test]
    fn geometry_neighbours_are_consistent() {
        // If a has b as south, b must have a as north, etc.
        let nproc = 16;
        let geos: Vec<_> =
            (0..nproc).map(|r| LuGeometry::new(Class::S, nproc, r)).collect();
        for (r, g) in geos.iter().enumerate() {
            if let Some(s) = g.south {
                assert_eq!(geos[s].north, Some(r));
            }
            if let Some(e) = g.east {
                assert_eq!(geos[e].west, Some(r));
            }
            assert!(g.degree() >= 2 && g.degree() <= 4);
        }
    }

    #[test]
    fn subdomain_sizes_tile_the_grid() {
        for nproc in [4, 8, 16] {
            let n = Class::B.problem_size();
            let (xdim, ydim) = proc_grid(nproc);
            let sum_x: usize = (0..xdim)
                .map(|row| LuGeometry::new(Class::B, nproc, row).nx_local)
                .sum();
            assert_eq!(sum_x, n);
            let sum_y: usize = (0..ydim)
                .map(|col| LuGeometry::new(Class::B, nproc, col * xdim).ny_local)
                .sum();
            assert_eq!(sum_y, n);
        }
    }

    #[test]
    fn trace_is_balanced_and_replayable_in_shape() {
        // Class S on 4 ranks: the generated trace has no error lint.
        let cfg = LuConfig::new(Class::S, 4).with_itmax(3);
        let t = program_trace(&cfg.program(), 4);
        let report = titlint::analyze(&t);
        assert!(!report.has_errors(), "LU trace invalid:\n{}", report.render_text());
    }

    #[test]
    fn action_counts_match_the_analytic_model() {
        // Per-process count ≈ 2·itmax·kplanes·(2·up + down + 1) + extras.
        let cfg = LuConfig::new(Class::S, 8).with_itmax(10);
        for rank in [0usize, 3, 7] {
            let g = LuGeometry::new(Class::S, 8, rank);
            let up_l = [g.north, g.west].iter().flatten().count() as u64;
            let down_l = [g.south, g.east].iter().flatten().count() as u64;
            let kp = (Class::S.problem_size() - 2) as u64;
            let per_iter = kp * (2 * up_l + down_l + 1) + kp * (2 * down_l + up_l + 1);
            // exchange_3 (3 ops per neighbour) + rhs compute per iter.
            let ex3 = 3 * g.degree() as u64 + 1;
            let norms = 1; // only the final iteration for itmax=10 < inorm
            let expected = 10 * (per_iter + ex3) + (1 + ex3 + 1) + norms;
            let got = cfg.count_actions(rank);
            let rel = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(
                rel < 0.02,
                "rank {rank}: expected ~{expected}, got {got} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn class_b_8_ranks_action_count_matches_table_3_scaled() {
        // Paper, Table 3: class B, 8 processes → 2.03 million actions at
        // itmax=250. Check our per-iteration count extrapolates into
        // ±15 % of that.
        let itmax_small = 5;
        let cfg = LuConfig::new(Class::B, 8).with_itmax(itmax_small);
        let total: u64 = (0..8).map(|r| cfg.count_actions(r)).sum();
        let per_iter = total as f64 / itmax_small as f64;
        let extrapolated = per_iter * 250.0;
        let paper = 2.03e6;
        let rel = (extrapolated - paper).abs() / paper;
        assert!(
            rel < 0.15,
            "class B x8: extrapolated {extrapolated:.3e} vs paper {paper:.3e} (rel {rel:.2})"
        );
    }

    #[test]
    fn message_sizes_scale_with_class() {
        let g_b = LuGeometry::new(Class::B, 8, 0);
        let g_c = LuGeometry::new(Class::C, 8, 0);
        assert!(g_c.row_msg_bytes() > g_b.row_msg_bytes());
        assert!(g_c.face_ns_bytes() > g_b.face_ns_bytes());
    }

    #[test]
    fn itmax_override_scales_linearly() {
        let c1 = LuConfig::new(Class::S, 4).with_itmax(2);
        let c2 = LuConfig::new(Class::S, 4).with_itmax(4);
        let a1 = c1.count_actions(0) as f64;
        let a2 = c2.count_actions(0) as f64;
        // Start-up costs make it slightly sublinear; ratio close to 2.
        let ratio = a2 / a1;
        assert!((1.8..2.1).contains(&ratio), "ratio {ratio}");
    }
}
