//! TAU instrumentation hooks for the emulated runtime.
//!
//! Reproduces what TAU's `-TRACE` mode records around each MPI call
//! (Section 4.3, Figure 3): an `EnterState`, a `PAPI_FP_OPS`
//! `EventTrigger` snapshot (ending the preceding CPU burst), optional
//! message-size triggers and `SendMessage`/`RecvMessage` records, a
//! second counter snapshot (starting the next burst), and a `LeaveState`.

use std::path::{Path, PathBuf};
use tau_sim::mpi::{COMM_SIZE, FP_OPS, MSG_SIZE};
use tau_sim::{MpiCall, TauWriter};

/// Per-process instrumentation state.
pub struct Instrument {
    w: TauWriter,
    fp_ev: i32,
    cyc_ev: i32,
    msgsize_ev: i32,
    commsize_ev: i32,
}

/// Nominal clock used to synthesise the cycle counter (bordereau's
/// 2.6 GHz Opterons).
const CLOCK_HZ: f64 = 2.6e9;

impl Instrument {
    /// Opens the TAU trace/edf pair for `node` under `dir` and writes the
    /// `MPI_Init` bracket.
    pub fn create(dir: &Path, node: usize) -> std::io::Result<Self> {
        Ok(Self::from_writer(TauWriter::create(dir, node)?))
    }

    /// Instrumentation whose records are counted (and cost time) but
    /// never reach disk — for timing-only experiments.
    pub fn create_discarding(node: usize) -> Self {
        Self::from_writer(TauWriter::create_discarding(node))
    }

    fn from_writer(mut w: TauWriter) -> Self {
        let fp_ev = w.counter_event(FP_OPS);
        let cyc_ev = w.counter_event("PAPI_TOT_CYC");
        let msgsize_ev = w.counter_event(MSG_SIZE);
        let commsize_ev = w.counter_event(COMM_SIZE);
        Instrument { w, fp_ev, cyc_ev, msgsize_ev, commsize_ev }
    }

    fn state_ev(&mut self, call: MpiCall) -> i32 {
        self.w.state_event("MPI", call.event_name())
    }

    /// Enter an MPI call: enter record + counter snapshots (flops and
    /// cycles, the usual two-counter PAPI configuration). Returns the
    /// number of records written.
    pub fn mpi_enter(&mut self, t: f64, call: MpiCall, papi: i64) -> std::io::Result<u64> {
        let ev = self.state_ev(call);
        self.w.enter_state(t, ev)?;
        self.w.event_trigger(t, self.fp_ev, papi)?;
        self.w.event_trigger(t, self.cyc_ev, (t * CLOCK_HZ) as i64)?;
        Ok(3)
    }

    /// Leave an MPI call: counter snapshots + leave record.
    pub fn mpi_leave(&mut self, t: f64, call: MpiCall, papi: i64) -> std::io::Result<u64> {
        let ev = self.state_ev(call);
        self.w.event_trigger(t, self.fp_ev, papi)?;
        self.w.event_trigger(t, self.cyc_ev, (t * CLOCK_HZ) as i64)?;
        self.w.leave_state(t, ev)?;
        Ok(3)
    }

    /// Message-size trigger + `SendMessage` record (inside a send call).
    pub fn msg_send(&mut self, t: f64, dst: usize, bytes: f64) -> std::io::Result<u64> {
        self.w.event_trigger(t, self.msgsize_ev, bytes as i64)?;
        self.w.send_message(t, dst, bytes as u64, 1, 0)?;
        Ok(2)
    }

    /// `RecvMessage` record (inside `MPI_Recv` or the `MPI_Wait`
    /// completing an `MPI_Irecv` — the paper's lookup case).
    pub fn msg_recv(&mut self, t: f64, src: usize, bytes: f64) -> std::io::Result<u64> {
        self.w.recv_message(t, src, bytes as u64, 1, 0)?;
        Ok(1)
    }

    /// Collective payload trigger (inside bcast/reduce/allreduce).
    pub fn coll_volume(&mut self, t: f64, bytes: f64) -> std::io::Result<u64> {
        self.w.event_trigger(t, self.msgsize_ev, bytes as i64)?;
        Ok(1)
    }

    /// Communicator-size trigger (inside `MPI_Comm_size`).
    pub fn comm_size(&mut self, t: f64, nproc: usize) -> std::io::Result<u64> {
        self.w.event_trigger(t, self.commsize_ev, nproc as i64)?;
        Ok(1)
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.w.records_written()
    }

    /// Closes the pair, returning `(trc, edf)` paths.
    pub fn finish(self, t: f64) -> std::io::Result<(PathBuf, PathBuf)> {
        self.w.finish(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_bracket_writes_six_records() {
        let dir = std::env::temp_dir().join(format!("titr-inst-{}", std::process::id()));
        let mut i = Instrument::create(&dir, 0).unwrap();
        let mut n = 0;
        n += i.mpi_enter(1.0, MpiCall::Send, 100).unwrap();
        n += i.msg_send(1.0, 1, 163840.0).unwrap();
        n += i.mpi_leave(1.1, MpiCall::Send, 100).unwrap();
        // Figure 3's six callbacks plus one cycle-counter trigger on
        // each side (the two-counter PAPI configuration).
        assert_eq!(n, 8);
        assert_eq!(i.records_written(), 8);
        i.finish(1.2).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
