//! The paper's Figure 1 ring example.
//!
//! Four (or `nproc`) processes pass a token around a ring: each computes
//! 1 Mflop and sends 1 MB to its successor, for a configurable number of
//! loop iterations. This is the canonical quickstart workload: its
//! time-independent trace is small enough to read by eye and its replay
//! time has a closed form.

use mpi_emul::ops::{MpiOp, OpStream, VecOpStream};
use tit_core::TiTrace;
#[cfg(test)]
use tit_core::Action;

/// A ring computation instance.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    pub nproc: usize,
    /// Loop iterations (the paper's code uses 4).
    pub iters: usize,
    /// Flops computed per process per iteration (paper: 1e6).
    pub flops: f64,
    /// Bytes sent per hop (paper: 1e6).
    pub bytes: f64,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig { nproc: 4, iters: 4, flops: 1e6, bytes: 1e6 }
    }
}

impl RingConfig {
    /// Figure 1's exact parameters, single iteration (the trace shown in
    /// the paper).
    pub fn figure_1() -> Self {
        RingConfig { iters: 1, ..Default::default() }
    }

    /// Op stream for `rank` (for the acquisition emulator).
    pub fn stream(&self, rank: usize) -> VecOpStream {
        assert!(self.nproc >= 2 && rank < self.nproc);
        let mut ops = Vec::with_capacity(3 * self.iters);
        for _ in 0..self.iters {
            if rank == 0 {
                ops.push(MpiOp::compute(self.flops));
                ops.push(MpiOp::Send { dst: 1, bytes: self.bytes });
                ops.push(MpiOp::Recv { src: self.nproc - 1, bytes: self.bytes });
            } else {
                ops.push(MpiOp::Recv { src: rank - 1, bytes: self.bytes });
                ops.push(MpiOp::compute(self.flops));
                ops.push(MpiOp::Send { dst: (rank + 1) % self.nproc, bytes: self.bytes });
            }
        }
        VecOpStream::new(ops)
    }

    /// Factory for the acquisition driver.
    pub fn program(self) -> impl Fn(usize, usize) -> Box<dyn OpStream> {
        move |rank, nproc| {
            assert_eq!(nproc, self.nproc);
            Box::new(self.stream(rank))
        }
    }

    /// The time-independent trace, exactly as in Figure 1 (right side).
    pub fn trace(&self) -> TiTrace {
        let mut t = TiTrace::new(self.nproc);
        for rank in 0..self.nproc {
            let mut s = self.stream(rank);
            use mpi_emul::ops::OpStream as _;
            while let Some(op) = s.next_op() {
                t.push(rank, crate::op_to_action(&op));
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_trace_text_matches_the_paper() {
        let text = {
            let mut buf = Vec::new();
            RingConfig::figure_1().trace().write_merged(&mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        // The twelve lines of Figure 1 (volumes in integer form).
        for line in [
            "p0 compute 1000000",
            "p0 send p1 1000000",
            "p0 recv p3",
            "p1 recv p0",
            "p1 compute 1000000",
            "p1 send p2 1000000",
            "p2 recv p1",
            "p2 compute 1000000",
            "p2 send p3 1000000",
            "p3 recv p2",
            "p3 compute 1000000",
            "p3 send p0 1000000",
        ] {
            assert!(text.contains(&format!("{line}\n")), "missing {line:?}");
        }
        assert_eq!(text.lines().count(), 12);
    }

    #[test]
    fn ring_trace_validates() {
        let t = RingConfig::default().trace();
        assert!(!titlint::analyze(&t).has_errors());
        assert_eq!(t.num_actions(), 4 * 3 * 4);
    }

    #[test]
    fn ring_action_zero_check() {
        let t = RingConfig { nproc: 2, iters: 1, flops: 0.0, bytes: 10.0 }.trace();
        assert_eq!(t.actions[0][0], Action::Compute { flops: 0.0 });
    }
}
