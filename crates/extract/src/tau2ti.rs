//! The `tau2simgrid` extractor: TFR callbacks → time-independent actions.
//!
//! Per MPI call, TAU records the sequence of Figure 3: `EnterState`, a
//! `PAPI_FP_OPS` trigger (ending the preceding CPU burst), message
//! triggers/records, a second counter trigger (starting the next burst),
//! and `LeaveState`. The extractor:
//!
//! * emits a `compute` action for every positive counter delta *between*
//!   MPI calls (flops inside an MPI call are ignored — "they are
//!   accounted for by the network model");
//! * maps `SendMessage` records inside `MPI_Send`/`MPI_Isend` states to
//!   `send`/`Isend` actions;
//! * maps `RecvMessage` inside `MPI_Recv` to `recv`; for `MPI_Irecv` the
//!   source is unknown at post time, so a placeholder is kept and filled
//!   by the `RecvMessage` that appears inside the matching `MPI_Wait`
//!   (the paper's "lookup techniques");
//! * recovers collective volumes from the message-size trigger and their
//!   compute volumes from the counter delta across the call.
//!
//! The tracer pairs every send/receive state with its message record,
//! every `MPI_Comm_size` with its size trigger and every receive inside
//! an `MPI_Wait` with an open `MPI_Irecv`. The files are input, though:
//! the first record that breaks that pairing fails the rank's
//! extraction with `InvalidData`, naming the record.

use std::io;
use std::path::Path;
use tau_sim::edf::EventRegistry;
use tau_sim::mpi::{MpiCall, COMM_SIZE, FP_OPS, MSG_SIZE};
use tau_sim::reader::{read_trace_file, TraceCallbacks};
use tit_core::trace::{process_trace_filename, ProcessTraceWriter};
use tit_core::Action;

/// Extraction statistics (inputs of the Figure 7 cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// TAU records read through the TFR callbacks.
    pub records_read: u64,
    /// Time-independent actions formatted and written.
    pub actions_written: u64,
    /// Bytes of the produced time-independent traces.
    pub ti_bytes: u64,
}

struct Extractor<'a> {
    registry: &'a EventRegistry,
    fp_ev: Option<i32>,
    msgsize_ev: Option<i32>,
    commsize_ev: Option<i32>,
    /// Counter value at the last state boundary (end of last MPI call).
    burst_base: i64,
    /// Counter value at entry of the current state.
    enter_value: i64,
    /// Inside an `EntryExit` state.
    in_state: bool,
    /// The MPI call of the current state (`None`: no MPI call).
    call: Option<MpiCall>,
    /// Triggers seen since entering the current state.
    fp_triggers_in_state: u32,
    /// Message-size trigger value inside the current state.
    pending_volume: Option<i64>,
    /// Message record seen inside the current state.
    pending_send: Option<(usize, f64)>,
    pending_recv: Option<(usize, f64)>,
    pending_commsize: Option<usize>,
    /// Indices (into `actions`) of Irecv placeholders not yet resolved.
    open_irecvs: std::collections::VecDeque<usize>,
    actions: Vec<Action>,
    /// Records dispatched so far.
    records: u64,
    /// The first record that broke the tracer's pairing.
    unpaired: Option<String>,
}

impl<'a> Extractor<'a> {
    fn new(registry: &'a EventRegistry) -> Self {
        Extractor {
            registry,
            fp_ev: registry.id_of(FP_OPS),
            msgsize_ev: registry.id_of(MSG_SIZE),
            commsize_ev: registry.id_of(COMM_SIZE),
            burst_base: 0,
            enter_value: 0,
            in_state: false,
            call: None,
            fp_triggers_in_state: 0,
            pending_volume: None,
            pending_send: None,
            pending_recv: None,
            pending_commsize: None,
            open_irecvs: std::collections::VecDeque::new(),
            actions: Vec::new(),
            records: 0,
            unpaired: None,
        }
    }

    /// Notes that the current record breaks the tracer's pairing; only
    /// the first such record is reported.
    fn note_unpaired(&mut self, what: &str) {
        if self.unpaired.is_none() {
            self.unpaired = Some(format!("record {}: {what}", self.records));
        }
    }

    /// Emits the CPU burst that ended when the current MPI call began.
    fn flush_burst(&mut self, counter_at_enter: i64) {
        let delta = counter_at_enter - self.burst_base;
        if delta > 0 {
            self.actions.push(Action::Compute { flops: delta as f64 });
        }
    }

    fn finish_state(&mut self, call: MpiCall, leave_value: i64) {
        let vcomp = (leave_value - self.enter_value).max(0) as f64;
        match call {
            MpiCall::Send => match self.pending_send.take() {
                Some((dst, bytes)) => self.actions.push(Action::Send { dst, bytes }),
                None => self.note_unpaired("MPI_Send state without a SendMessage record"),
            },
            MpiCall::Isend => match self.pending_send.take() {
                Some((dst, bytes)) => self.actions.push(Action::Isend { dst, bytes }),
                None => self.note_unpaired("MPI_Isend state without a SendMessage record"),
            },
            MpiCall::Recv => match self.pending_recv.take() {
                Some((src, _)) => self.actions.push(Action::Recv { src, bytes: None }),
                None => self.note_unpaired("MPI_Recv state without a RecvMessage record"),
            },
            MpiCall::Irecv => {
                // Source unknown here: placeholder, resolved by the
                // RecvMessage inside the matching MPI_Wait.
                self.open_irecvs.push_back(self.actions.len());
                self.actions.push(Action::Irecv { src: usize::MAX, bytes: None });
            }
            MpiCall::Wait => {
                if let Some((src, _)) = self.pending_recv.take() {
                    match self.open_irecvs.pop_front() {
                        Some(idx) => self.actions[idx] = Action::Irecv { src, bytes: None },
                        None => {
                            self.note_unpaired("RecvMessage in MPI_Wait with no pending MPI_Irecv");
                        }
                    }
                }
                self.actions.push(Action::Wait);
            }
            MpiCall::Bcast => {
                let bytes = self.pending_volume.take().unwrap_or(0) as f64;
                self.actions.push(Action::Bcast { bytes });
            }
            MpiCall::Reduce => {
                let vcomm = self.pending_volume.take().unwrap_or(0) as f64;
                self.actions.push(Action::Reduce { vcomm, vcomp });
            }
            MpiCall::Allreduce => {
                let vcomm = self.pending_volume.take().unwrap_or(0) as f64;
                self.actions.push(Action::AllReduce { vcomm, vcomp });
            }
            MpiCall::Barrier => self.actions.push(Action::Barrier),
            MpiCall::CommSize => match self.pending_commsize.take() {
                Some(nproc) => self.actions.push(Action::CommSize { nproc }),
                None => self.note_unpaired("MPI_Comm_size state without a size trigger"),
            },
            MpiCall::Init | MpiCall::Finalize => {}
        }
    }
}

impl TraceCallbacks for Extractor<'_> {
    fn enter_state(&mut self, _t: f64, _nid: u16, _tid: u16, ev: i32) {
        self.records += 1;
        let name = self.registry.def(ev).map(|d| d.name.as_str()).unwrap_or("");
        self.in_state = true;
        self.call = MpiCall::from_event_name(name);
        self.fp_triggers_in_state = 0;
        self.pending_volume = None;
        self.pending_send = None;
        self.pending_recv = None;
        self.pending_commsize = None;
    }

    fn leave_state(&mut self, _t: f64, _nid: u16, _tid: u16, _ev: i32) {
        self.records += 1;
        self.in_state = false;
        if let Some(call) = self.call.take() {
            // The last fp trigger before leave is the new burst base; if
            // the writer produced none (untracked function), keep base.
            self.finish_state(call, self.burst_base);
        }
    }

    fn event_trigger(&mut self, _t: f64, _nid: u16, _tid: u16, ev: i32, value: i64) {
        self.records += 1;
        if Some(ev) == self.fp_ev {
            if self.in_state {
                self.fp_triggers_in_state += 1;
                if self.fp_triggers_in_state == 1 {
                    // Snapshot at call entry: closes the app burst.
                    self.flush_burst(value);
                    self.enter_value = value;
                } else {
                    // Snapshot at call exit: flops inside the MPI call are
                    // not part of any app burst.
                    self.burst_base = value;
                }
            }
            // Triggers outside any state do not occur in TAU traces.
        } else if Some(ev) == self.msgsize_ev {
            self.pending_volume = Some(value);
        } else if Some(ev) == self.commsize_ev {
            self.pending_commsize = Some(value as usize);
        }
    }

    fn send_message(
        &mut self,
        _t: f64,
        _nid: u16,
        _tid: u16,
        dst_nid: u16,
        _dst_tid: u16,
        size: u32,
        _tag: u8,
        _comm: u8,
    ) {
        self.records += 1;
        self.pending_send = Some((dst_nid as usize, size as f64));
    }

    fn recv_message(
        &mut self,
        _t: f64,
        _nid: u16,
        _tid: u16,
        src_nid: u16,
        _src_tid: u16,
        size: u32,
        _tag: u8,
        _comm: u8,
    ) {
        self.records += 1;
        self.pending_recv = Some((src_nid as usize, size as f64));
    }

    fn end_trace(&mut self, _nid: u16, _tid: u16) {
        self.records += 1;
    }
}

/// Extracts one rank's actions from its TAU trace/edf pair. Errors
/// name the file they come from.
pub fn extract_process(trc: &Path, edf: &Path) -> io::Result<(Vec<Action>, u64)> {
    let registry = EventRegistry::load(edf).map_err(in_file(edf))?;
    let mut ex = Extractor::new(&registry);
    let records = read_trace_file(trc, &registry, &mut ex).map_err(in_file(trc))?;
    let open = ex.open_irecvs.len();
    let unpaired = ex.unpaired.or_else(|| {
        (open > 0).then(|| format!("{open} MPI_Irecv without a resolving MPI_Wait"))
    });
    match unpaired {
        Some(what) => Err(in_file(trc)(io::Error::new(io::ErrorKind::InvalidData, what))),
        None => Ok((ex.actions, records)),
    }
}

/// Prefixes an error with the file it concerns, keeping its kind.
fn in_file(path: &Path) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Extracts rank `rank` of `tau_dir` into `out_dir`.
fn extract_rank(tau_dir: &Path, out_dir: &Path, rank: usize) -> io::Result<ExtractStats> {
    let trc = tau_dir.join(tau_sim::trace_filename(rank));
    let edf = tau_dir.join(tau_sim::edf_filename(rank));
    let (actions, records_read) = extract_process(&trc, &edf)?;
    let out = out_dir.join(process_trace_filename(rank));
    let write = || -> io::Result<ExtractStats> {
        let mut w = ProcessTraceWriter::create(out_dir, rank)?;
        for a in &actions {
            w.write(a)?;
        }
        let actions_written = w.actions_written();
        w.finish()?;
        let ti_bytes = std::fs::metadata(&out)?.len();
        Ok(ExtractStats { records_read, actions_written, ti_bytes })
    };
    write().map_err(in_file(&out))
}

/// Extracts all ranks from `tau_dir`, writing `SG_process<N>.trace` files
/// into `out_dir`. Runs `threads` extraction workers (the paper's
/// `tau2simgrid` is itself a parallel MPI program) on the rank pool
/// [`tit_core::ingest::for_each_rank`]: a failure returns the lowest
/// failing rank's error, prefixed with the rank and naming the file,
/// whatever the worker count.
pub fn tau2ti(
    tau_dir: &Path,
    nproc: usize,
    out_dir: &Path,
    threads: usize,
) -> io::Result<ExtractStats> {
    std::fs::create_dir_all(out_dir)?;
    let ranks = tit_core::ingest::for_each_rank(nproc, threads.max(1), |rank| {
        extract_rank(tau_dir, out_dir, rank)
            .map_err(|e| io::Error::new(e.kind(), format!("rank {rank}: {e}")))
    })?;
    Ok(ranks.into_iter().fold(ExtractStats::default(), |sum, r| ExtractStats {
        records_read: sum.records_read + r.records_read,
        actions_written: sum.actions_written + r.actions_written,
        ti_bytes: sum.ti_bytes + r.ti_bytes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_emul::acquisition::{acquire, AcquisitionMode};
    use mpi_emul::runtime::EmulConfig;
    use npb::ring::RingConfig;

    fn tmp(tagname: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("titr-x-{tagname}-{}", std::process::id()))
    }

    fn exact_cfg() -> EmulConfig {
        EmulConfig { papi_jitter: 0.0, ..Default::default() }
    }

    #[test]
    fn ring_extraction_recovers_figure_1_trace() {
        let dir = tmp("ring");
        let tau = dir.join("tau");
        let ti = dir.join("ti");
        let ring = RingConfig::figure_1();
        acquire(&ring.program(), 4, AcquisitionMode::Regular, &exact_cfg(), &tau).unwrap();
        let stats = tau2ti(&tau, 4, &ti, 2).unwrap();
        assert_eq!(stats.actions_written, 12, "Figure 1 has 12 actions");
        let got = tit_core::load_exact(&ti, 4, 1).unwrap();
        let want = ring.trace();
        assert_eq!(got, want, "extracted trace must match the program's");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn irecv_wait_lookup_resolves_sources() {
        use mpi_emul::ops::{MpiOp, VecOpStream};
        // Rank 0 posts two Irecvs (from 1 then 2), then waits twice.
        let prog = |rank: usize, _n: usize| -> Box<dyn mpi_emul::ops::OpStream> {
            Box::new(VecOpStream::new(match rank {
                0 => vec![
                    MpiOp::Irecv { src: 1, bytes: 100.0 },
                    MpiOp::Irecv { src: 2, bytes: 200.0 },
                    MpiOp::compute(1e6),
                    MpiOp::Wait,
                    MpiOp::Wait,
                ],
                r => vec![MpiOp::Send { dst: 0, bytes: (r * 100) as f64 }],
            }))
        };
        let dir = tmp("irecv");
        let tau = dir.join("tau");
        let ti = dir.join("ti");
        acquire(&prog, 3, AcquisitionMode::Regular, &exact_cfg(), &tau).unwrap();
        tau2ti(&tau, 3, &ti, 1).unwrap();
        let got = tit_core::load_exact(&ti, 3, 1).unwrap();
        let p0 = &got.actions[0];
        assert_eq!(p0[0], Action::Irecv { src: 1, bytes: None });
        assert_eq!(p0[1], Action::Irecv { src: 2, bytes: None });
        assert_eq!(p0[2], Action::Compute { flops: 1e6 });
        assert_eq!(p0[3], Action::Wait);
        assert_eq!(p0[4], Action::Wait);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn collectives_extract_volumes() {
        use mpi_emul::ops::{MpiOp, VecOpStream};
        let prog = |_r: usize, _n: usize| -> Box<dyn mpi_emul::ops::OpStream> {
            Box::new(VecOpStream::new(vec![
                MpiOp::CommSize,
                MpiOp::Bcast { bytes: 4096.0 },
                MpiOp::Reduce { vcomm: 64.0, vcomp: 1000.0 },
                MpiOp::Allreduce { vcomm: 40.0, vcomp: 500.0 },
                MpiOp::Barrier,
            ]))
        };
        let dir = tmp("coll");
        let tau = dir.join("tau");
        let ti = dir.join("ti");
        acquire(&prog, 4, AcquisitionMode::Regular, &exact_cfg(), &tau).unwrap();
        tau2ti(&tau, 4, &ti, 1).unwrap();
        let got = tit_core::load_exact(&ti, 4, 1).unwrap();
        for rank in 0..4 {
            let a = &got.actions[rank];
            assert_eq!(a[0], Action::CommSize { nproc: 4 }, "rank {rank}");
            assert_eq!(a[1], Action::Bcast { bytes: 4096.0 });
            assert_eq!(a[2], Action::Reduce { vcomm: 64.0, vcomp: 1000.0 });
            assert_eq!(a[3], Action::AllReduce { vcomm: 40.0, vcomp: 500.0 });
            assert_eq!(a[4], Action::Barrier);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn papi_jitter_perturbs_only_compute_volumes() {
        let dir = tmp("jit");
        let tau = dir.join("tau");
        let ti = dir.join("ti");
        let ring = RingConfig::figure_1();
        let cfg = EmulConfig { papi_jitter: 5e-4, ..Default::default() };
        acquire(&ring.program(), 4, AcquisitionMode::Regular, &cfg, &tau).unwrap();
        tau2ti(&tau, 4, &ti, 1).unwrap();
        let got = tit_core::load_exact(&ti, 4, 1).unwrap();
        let want = ring.trace();
        for (ga, wa) in got.actions.iter().flatten().zip(want.actions.iter().flatten()) {
            match (ga, wa) {
                (Action::Compute { flops: g }, Action::Compute { flops: w }) => {
                    let rel = (g - w).abs() / w;
                    assert!(rel < 1e-3, "jitter must stay below 0.1%: {rel}");
                }
                _ => assert_eq!(ga, wa, "non-compute actions must be exact"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_error_cleanly() {
        let dir = tmp("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(tau2ti(&dir, 2, &dir.join("out"), 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
