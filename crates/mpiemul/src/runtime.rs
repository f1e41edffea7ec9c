//! The emulated MPI runtime: executes op streams on a simulated host
//! platform, with instrumentation and MPI software-cost models.

use crate::instrument::Instrument;
use crate::ops::{MpiOp, OpStream};
use crate::papi::PapiCounter;
use simkern::engine::{Ctx, MailboxKey, OpId};
use simkern::netmodel::NetworkConfig;
use simkern::resource::HostId;
use simkern::{Actor, Engine, Platform, Step, Wake};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tau_sim::MpiCall;
use tit_replay::collectives::{self, CollectiveAlgo};
use tit_replay::handlers::MicroOp;

/// Emulation parameters: the realism knobs the replayer's model lacks.
#[derive(Debug, Clone)]
pub struct EmulConfig {
    /// Collective algorithm of the emulated MPI implementation.
    pub algo: CollectiveAlgo,
    /// Host-platform network model.
    pub network: NetworkConfig,
    /// Write TAU traces (adds the tracing overhead of Figure 7).
    pub instrument: bool,
    /// CPU seconds burned per trace record written (TAU buffering cost).
    pub tracing_per_record: f64,
    /// CPU seconds per MPI call (library stack, syscalls).
    pub mpi_per_call: f64,
    /// CPU seconds per sent byte (buffer copies on the eager path).
    pub mpi_per_byte: f64,
    /// Extra CPU seconds on the receive path (`MPI_Recv`/`MPI_Wait`):
    /// progress-engine polling and interrupt wake-up. This is real MPI
    /// software time the replay's network model does not include — one
    /// driver of the Figure 8 accuracy gap, and it weighs most where
    /// communication dominates (many processes, small subdomains).
    pub recv_wakeup: f64,
    /// PAPI counter relative error amplitude.
    pub papi_jitter: f64,
    /// Memory/cache contention when a host is oversubscribed: each
    /// compute burst takes `1 + beta x (ranks_per_core - 1)` times
    /// longer (co-located ranks thrash caches and share memory
    /// bandwidth; the fluid CPU-sharing model alone underestimates the
    /// folding cost Table 2 measures). PAPI still counts true flops.
    pub mem_contention_beta: f64,
    /// Base RNG seed (per-rank seeds derive from it).
    pub seed: u64,
}

impl Default for EmulConfig {
    fn default() -> Self {
        EmulConfig {
            algo: CollectiveAlgo::Binomial,
            network: NetworkConfig::mpi_cluster(),
            instrument: false,
            tracing_per_record: 0.9e-6,
            mpi_per_call: 3.0e-6,
            mpi_per_byte: 3.0e-10,
            recv_wakeup: 1.5e-5,
            papi_jitter: 5.0e-4,
            mem_contention_beta: 0.012,
            seed: 0xDE5B,
        }
    }
}

/// Outcome of one emulated run.
#[derive(Debug)]
pub struct EmulationResult {
    /// Simulated execution time of the (possibly instrumented)
    /// application — Table 2's "Execution Time".
    pub exec_time: f64,
    /// Where TAU traces were written, when instrumented.
    pub tau_dir: Option<PathBuf>,
    /// Total bytes of the TAU trace + edf files.
    pub tau_bytes: u64,
    /// Total MPI ops + compute bursts executed.
    pub ops_executed: u64,
}

/// Micro-steps an [`EmulActor`] executes for one `MpiOp`.
#[derive(Debug, Clone, Copy)]
enum Micro {
    Enter(MpiCall),
    Leave(MpiCall),
    /// Message-size trigger + SendMessage record.
    SendRec { dst: usize, bytes: f64 },
    /// RecvMessage record (written at completion time).
    RecvRec { src: usize, bytes: f64 },
    /// Collective payload trigger.
    CollVol { bytes: f64 },
    /// Communicator-size trigger.
    CommSizeRec,
    /// Application compute burst (PAPI-counted), at `efficiency`×speed.
    Exec { flops: f64, efficiency: f64, counted: bool },
    /// Software overhead burnt on the CPU at full speed (not counted).
    Overhead { seconds: f64 },
    /// Point-to-point send; `blocking` waits for completion, otherwise
    /// the kernel op joins the request queue.
    Send { dst: usize, bytes: f64, chan: u8, blocking: bool },
    /// Point-to-point receive; non-blocking receives remember their
    /// source/size so the completing `wait` can emit the RecvMessage
    /// record (the paper's Irecv lookup case).
    Recv { src: usize, bytes: f64, chan: u8, blocking: bool },
    /// `MPI_Wait`: block on the oldest pending request.
    WaitOldest,
}

const TAG_COMPUTE: u32 = 1;
const TAG_COMM: u32 = 2;
const TAG_OVERHEAD: u32 = 20;

struct EmulActor {
    rank: usize,
    nproc: usize,
    stream: Box<dyn OpStream>,
    cfg: Arc<EmulConfig>,
    micro: VecDeque<Micro>,
    /// Pending requests: kernel op + recv note for the Irecv case.
    requests: VecDeque<(OpId, Option<(usize, f64)>)>,
    inst: Option<Instrument>,
    papi: PapiCounter,
    started: bool,
    finished_stream: bool,
    ops_executed: Arc<AtomicU64>,
    coll_buf: Vec<MicroOp>,
    /// Work-inflation factor from host oversubscription (>= 1).
    mem_inflation: f64,
}

impl EmulActor {
    #[allow(clippy::too_many_arguments)]
    fn new(
        rank: usize,
        nproc: usize,
        stream: Box<dyn OpStream>,
        cfg: Arc<EmulConfig>,
        inst: Option<Instrument>,
        ops_executed: Arc<AtomicU64>,
        oversubscription: f64,
    ) -> Self {
        let papi = PapiCounter::new(
            cfg.papi_jitter,
            cfg.seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        let mem_inflation =
            1.0 + cfg.mem_contention_beta * (oversubscription - 1.0).max(0.0);
        EmulActor {
            rank,
            nproc,
            stream,
            cfg,
            micro: VecDeque::new(),
            requests: VecDeque::new(),
            inst,
            papi,
            started: false,
            finished_stream: false,
            ops_executed,
            coll_buf: Vec::new(),
            mem_inflation,
        }
    }

    /// CPU-seconds of overhead for an MPI call writing `records` trace
    /// records and touching `bytes` of payload on the send path.
    fn call_overhead(&self, records: u64, bytes: f64) -> f64 {
        let tracing = if self.inst.is_some() {
            records as f64 * self.cfg.tracing_per_record
        } else {
            0.0
        };
        self.cfg.mpi_per_call + bytes * self.cfg.mpi_per_byte + tracing
    }

    /// Lowers one program op into micro-steps.
    fn lower(&mut self, op: MpiOp) {
        use Micro as M;
        match op {
            MpiOp::Compute { flops, efficiency } => {
                self.micro.push_back(M::Exec { flops, efficiency, counted: true });
            }
            MpiOp::Send { dst, bytes } => {
                self.micro.push_back(M::Enter(MpiCall::Send));
                self.micro.push_back(M::SendRec { dst, bytes });
                self.micro.push_back(M::Overhead { seconds: self.call_overhead(8, bytes) });
                self.micro.push_back(M::Send { dst, bytes, chan: 0, blocking: true });
                self.micro.push_back(M::Leave(MpiCall::Send));
            }
            MpiOp::Isend { dst, bytes } => {
                self.micro.push_back(M::Enter(MpiCall::Isend));
                self.micro.push_back(M::SendRec { dst, bytes });
                self.micro.push_back(M::Overhead { seconds: self.call_overhead(8, bytes) });
                self.micro.push_back(M::Send { dst, bytes, chan: 0, blocking: false });
                self.micro.push_back(M::Leave(MpiCall::Isend));
            }
            MpiOp::Recv { src, bytes } => {
                self.micro.push_back(M::Enter(MpiCall::Recv));
                self.micro.push_back(M::Overhead {
                    seconds: self.call_overhead(7, 0.0) + self.cfg.recv_wakeup,
                });
                self.micro.push_back(M::Recv { src, bytes, chan: 0, blocking: true });
                self.micro.push_back(M::RecvRec { src, bytes });
                self.micro.push_back(M::Leave(MpiCall::Recv));
            }
            MpiOp::Irecv { src, bytes } => {
                self.micro.push_back(M::Enter(MpiCall::Irecv));
                self.micro.push_back(M::Overhead { seconds: self.call_overhead(6, 0.0) });
                self.micro.push_back(M::Recv { src, bytes, chan: 0, blocking: false });
                self.micro.push_back(M::Leave(MpiCall::Irecv));
            }
            MpiOp::Wait => {
                self.micro.push_back(M::Enter(MpiCall::Wait));
                self.micro.push_back(M::Overhead {
                    seconds: self.call_overhead(7, 0.0) + self.cfg.recv_wakeup,
                });
                self.micro.push_back(M::WaitOldest);
                // A RecvRec for the Irecv case is injected by WaitOldest.
                self.micro.push_back(M::Leave(MpiCall::Wait));
            }
            MpiOp::Bcast { bytes } => {
                self.micro.push_back(M::Enter(MpiCall::Bcast));
                self.micro.push_back(M::CollVol { bytes });
                self.micro.push_back(M::Overhead { seconds: self.call_overhead(7, bytes) });
                self.lower_collective(|algo, rank, nproc, out| {
                    collectives::bcast(algo, rank, nproc, bytes, 0, out)
                });
                self.micro.push_back(M::Leave(MpiCall::Bcast));
            }
            MpiOp::Reduce { vcomm, vcomp } => {
                self.micro.push_back(M::Enter(MpiCall::Reduce));
                self.micro.push_back(M::CollVol { bytes: vcomm });
                self.micro.push_back(M::Overhead { seconds: self.call_overhead(7, vcomm) });
                self.lower_collective(|algo, rank, nproc, out| {
                    collectives::reduce(algo, rank, nproc, vcomm, vcomp, 0, out)
                });
                self.micro.push_back(M::Leave(MpiCall::Reduce));
            }
            MpiOp::Allreduce { vcomm, vcomp } => {
                self.micro.push_back(M::Enter(MpiCall::Allreduce));
                self.micro.push_back(M::CollVol { bytes: vcomm });
                self.micro.push_back(M::Overhead { seconds: self.call_overhead(7, vcomm) });
                self.lower_collective(|algo, rank, nproc, out| {
                    collectives::allreduce(algo, rank, nproc, vcomm, vcomp, 0, out)
                });
                self.micro.push_back(M::Leave(MpiCall::Allreduce));
            }
            MpiOp::Barrier => {
                self.micro.push_back(M::Enter(MpiCall::Barrier));
                self.micro.push_back(M::Overhead { seconds: self.call_overhead(6, 0.0) });
                self.lower_collective(|algo, rank, nproc, out| {
                    collectives::barrier(algo, rank, nproc, 0, out)
                });
                self.micro.push_back(M::Leave(MpiCall::Barrier));
            }
            MpiOp::CommSize => {
                self.micro.push_back(M::Enter(MpiCall::CommSize));
                self.micro.push_back(M::CommSizeRec);
                self.micro.push_back(M::Overhead { seconds: self.call_overhead(7, 0.0) });
                self.micro.push_back(M::Leave(MpiCall::CommSize));
            }
        }
    }

    /// Expands a collective through the replay decomposition, converting
    /// its micro-ops to emulator micro-ops on the collective channel.
    fn lower_collective(
        &mut self,
        gen: impl FnOnce(CollectiveAlgo, usize, usize, &mut Vec<MicroOp>),
    ) {
        self.coll_buf.clear();
        let mut buf = std::mem::take(&mut self.coll_buf);
        gen(self.cfg.algo, self.rank, self.nproc, &mut buf);
        for m in &buf {
            match *m {
                MicroOp::Exec { flops, .. } => self.micro.push_back(Micro::Exec {
                    flops,
                    efficiency: 1.0,
                    counted: true,
                }),
                MicroOp::CollSend { dst, bytes, .. } => self.micro.push_back(Micro::Send {
                    dst,
                    bytes,
                    chan: 1,
                    blocking: true,
                }),
                MicroOp::CollRecv { src, .. } => self.micro.push_back(Micro::Recv {
                    src,
                    bytes: 0.0,
                    chan: 1,
                    blocking: true,
                }),
                ref other => unreachable!("collective produced {other:?}"),
            }
        }
        self.coll_buf = buf;
    }

    // Reads like the other ctx accessors at its call sites even though
    // it needs no state.
    #[allow(clippy::unused_self)]
    fn mailbox(&self, src: usize, dst: usize, chan: u8) -> MailboxKey {
        MailboxKey { src: src as u32, dst: dst as u32, chan }
    }

    /// Executes one micro-step; `Some(step)` when the actor must block.
    fn run_micro(&mut self, ctx: &mut Ctx<'_>, m: Micro) -> Option<Step> {
        let now = ctx.now();
        match m {
            Micro::Enter(call) => {
                if let Some(i) = self.inst.as_mut() {
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.mpi_enter(now, call, self.papi.read()).expect("tau write");
                }
                None
            }
            Micro::Leave(call) => {
                if let Some(i) = self.inst.as_mut() {
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.mpi_leave(now, call, self.papi.read()).expect("tau write");
                }
                None
            }
            Micro::SendRec { dst, bytes } => {
                if let Some(i) = self.inst.as_mut() {
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.msg_send(now, dst, bytes).expect("tau write");
                }
                None
            }
            Micro::RecvRec { src, bytes } => {
                if let Some(i) = self.inst.as_mut() {
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.msg_recv(now, src, bytes).expect("tau write");
                }
                None
            }
            Micro::CollVol { bytes } => {
                if let Some(i) = self.inst.as_mut() {
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.coll_volume(now, bytes).expect("tau write");
                }
                None
            }
            Micro::CommSizeRec => {
                if let Some(i) = self.inst.as_mut() {
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.comm_size(now, self.nproc).expect("tau write");
                }
                None
            }
            Micro::Exec { flops, efficiency, counted } => {
                if counted {
                    self.papi.count(flops);
                }
                let cap = ctx.host_speed() * efficiency.clamp(1e-6, 1.0);
                let work = flops * self.mem_inflation;
                Some(Step::Wait(ctx.execute_bound(work, cap, TAG_COMPUTE)))
            }
            Micro::Overhead { seconds } => {
                if seconds <= 0.0 {
                    return None;
                }
                let flops = seconds * ctx.host_speed() * self.mem_inflation;
                Some(Step::Wait(ctx.execute_bound(flops, f64::INFINITY, TAG_OVERHEAD)))
            }
            Micro::Send { dst, bytes, chan, blocking } => {
                let mb = self.mailbox(self.rank, dst, chan);
                let op = ctx.isend_tagged(mb, bytes, TAG_COMM);
                if blocking {
                    Some(Step::Wait(op))
                } else {
                    self.requests.push_back((op, None));
                    None
                }
            }
            Micro::Recv { src, bytes, chan, blocking } => {
                let mb = self.mailbox(src, self.rank, chan);
                let op = ctx.irecv_tagged(mb, TAG_COMM);
                if blocking {
                    Some(Step::Wait(op))
                } else {
                    self.requests.push_back((op, Some((src, bytes))));
                    None
                }
            }
            Micro::WaitOldest => {
                let (op, note) = self.requests.pop_front().unwrap_or_else(|| {
                    // panics: a wait with no request mirrors the real MPI abort
                    panic!("p{}: MPI_Wait with no pending request", self.rank)
                });
                if let Some((src, bytes)) = note {
                    // Emit the RecvMessage record when the wait returns.
                    self.micro.push_front(Micro::RecvRec { src, bytes });
                }
                Some(Step::Wait(op))
            }
        }
    }
}

impl Actor for EmulActor {
    fn step(&mut self, ctx: &mut Ctx<'_>, _wake: Wake) -> Step {
        if !self.started {
            self.started = true;
            if let Some(i) = self.inst.as_mut() {
                let now = ctx.now();
                // panics: an unwritable trace sink aborts the acquisition run
                i.mpi_enter(now, MpiCall::Init, 0).expect("tau write");
                // panics: an unwritable trace sink aborts the acquisition run
                i.mpi_leave(now, MpiCall::Init, 0).expect("tau write");
            }
        }
        loop {
            if let Some(m) = self.micro.pop_front() {
                if let Some(step) = self.run_micro(ctx, m) {
                    return step;
                }
                continue;
            }
            if self.finished_stream {
                if let Some(mut i) = self.inst.take() {
                    let now = ctx.now();
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.mpi_enter(now, MpiCall::Finalize, self.papi.read()).expect("tau write");
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.mpi_leave(now, MpiCall::Finalize, self.papi.read()).expect("tau write");
                    // panics: an unwritable trace sink aborts the acquisition run
                    i.finish(now).expect("tau finish");
                }
                return Step::Done;
            }
            match self.stream.next_op() {
                Some(op) => {
                    self.ops_executed.fetch_add(1, Ordering::Relaxed);
                    self.lower(op);
                }
                None => self.finished_stream = true,
            }
        }
    }
}

/// Observer tags used by the emulator (exported for calibration).
pub mod obs_tags {
    /// Application compute bursts.
    pub const COMPUTE: u32 = super::TAG_COMPUTE;
    /// Point-to-point and collective kernel communications.
    pub const COMM: u32 = super::TAG_COMM;
    /// MPI/tracing software overhead bursts.
    pub const OVERHEAD: u32 = super::TAG_OVERHEAD;
}

/// [`run_emulation`] that also returns one record per completed kernel
/// operation (used by the calibration procedure, which times each
/// compute action of a small instrumented run).
pub fn run_emulation_with_records(
    streams: Vec<Box<dyn OpStream>>,
    platform: Platform,
    hosts: &[HostId],
    cfg: &EmulConfig,
    tau_dir: Option<&Path>,
) -> std::io::Result<(EmulationResult, Vec<simkern::observer::OpRecord>)> {
    run_emulation_inner(streams, platform, hosts, cfg, tau_dir, true)
}

/// Runs `streams[rank]` on `hosts[rank]`. When `tau_dir` is set and
/// `cfg.instrument` is true, TAU traces are written there.
pub fn run_emulation(
    streams: Vec<Box<dyn OpStream>>,
    platform: Platform,
    hosts: &[HostId],
    cfg: &EmulConfig,
    tau_dir: Option<&Path>,
) -> std::io::Result<EmulationResult> {
    Ok(run_emulation_inner(streams, platform, hosts, cfg, tau_dir, false)?.0)
}

fn run_emulation_inner(
    streams: Vec<Box<dyn OpStream>>,
    platform: Platform,
    hosts: &[HostId],
    cfg: &EmulConfig,
    tau_dir: Option<&Path>,
    record: bool,
) -> std::io::Result<(EmulationResult, Vec<simkern::observer::OpRecord>)> {
    assert_eq!(streams.len(), hosts.len(), "one host per rank required");
    let nproc = streams.len();
    let mut engine = Engine::new(platform);
    engine.set_network_config(cfg.network.clone());
    let records = simkern::observer::Collector::new();
    if record {
        engine.set_observer(records.sink());
    }
    let cfg = Arc::new(cfg.clone());
    let counter = Arc::new(AtomicU64::new(0));
    // Ranks per core of each host (for the memory-contention model).
    let mut ranks_per_host = std::collections::HashMap::new();
    for h in hosts {
        *ranks_per_host.entry(h.0).or_insert(0u32) += 1;
    }
    for (rank, stream) in streams.into_iter().enumerate() {
        let inst = match (cfg.instrument, tau_dir) {
            (true, Some(dir)) => Some(Instrument::create(dir, rank)?),
            // Instrumentation cost without persistence (timing studies).
            (true, None) => Some(Instrument::create_discarding(rank)),
            _ => None,
        };
        let host = hosts[rank];
        let cores = engine.platform().host(host).cores as f64;
        let over = ranks_per_host[&host.0] as f64 / cores;
        let actor =
            EmulActor::new(rank, nproc, stream, cfg.clone(), inst, counter.clone(), over);
        engine.spawn(Box::new(actor), host);
    }
    // An emulated-app deadlock or actor failure surfaces as a typed
    // kernel error; fold it into this function's io::Result contract.
    let exec_time = engine
        .run_checked()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let (tau_dir_out, tau_bytes) = match (cfg.instrument, tau_dir) {
        (true, Some(dir)) => {
            let mut total = 0u64;
            for rank in 0..nproc {
                total += std::fs::metadata(dir.join(tau_sim::trace_filename(rank)))?.len();
                total += std::fs::metadata(dir.join(tau_sim::edf_filename(rank)))?.len();
            }
            (Some(dir.to_path_buf()), total)
        }
        _ => (None, 0),
    };
    Ok((
        EmulationResult {
            exec_time,
            tau_dir: tau_dir_out,
            tau_bytes,
            ops_executed: counter.load(Ordering::Relaxed),
        },
        records.take(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VecOpStream;
    use simkern::resource::PlatformBuilder;

    fn mesh_platform(n: usize, cores: u32) -> (Platform, Vec<HostId>) {
        let mut pb = PlatformBuilder::new();
        let hosts: Vec<HostId> =
            (0..n).map(|i| pb.add_host(&format!("h{i}"), 1e9, cores)).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                let l = pb.add_link(&format!("l{i}-{j}"), 1.25e8, 1e-5);
                pb.add_route(hosts[i], hosts[j], vec![l]);
            }
        }
        (pb.build(), hosts)
    }

    /// The Figure 1 ring program as op streams.
    fn ring_streams(nproc: usize, iters: usize) -> Vec<Box<dyn OpStream>> {
        (0..nproc)
            .map(|r| {
                let mut ops = vec![MpiOp::CommSize];
                for _ in 0..iters {
                    if r == 0 {
                        ops.push(MpiOp::compute(1e6));
                        ops.push(MpiOp::Send { dst: 1, bytes: 1e6 });
                        ops.push(MpiOp::Recv { src: nproc - 1, bytes: 1e6 });
                    } else {
                        ops.push(MpiOp::Recv { src: r - 1, bytes: 1e6 });
                        ops.push(MpiOp::compute(1e6));
                        ops.push(MpiOp::Send { dst: (r + 1) % nproc, bytes: 1e6 });
                    }
                }
                Box::new(VecOpStream::new(ops)) as Box<dyn OpStream>
            })
            .collect()
    }

    fn quiet_cfg() -> EmulConfig {
        EmulConfig {
            network: NetworkConfig::default(),
            mpi_per_call: 0.0,
            mpi_per_byte: 0.0,
            recv_wakeup: 0.0,
            papi_jitter: 0.0,
            mem_contention_beta: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn ring_runs_and_times_are_sane() {
        let (p, hosts) = mesh_platform(4, 1);
        let r = run_emulation(ring_streams(4, 2), p, &hosts, &quiet_cfg(), None).unwrap();
        // Two rounds of 4 sequential (compute + 1 MB transfer) hops.
        let hop = 1e6 / 1e9 + 1e6 / 1.25e8 + 1e-5;
        let expect = 8.0 * hop;
        let rel = (r.exec_time - expect).abs() / expect;
        assert!(rel < 1e-6, "expected {expect}, got {}", r.exec_time);
        assert_eq!(r.ops_executed, 4 + 8 * 3);
    }

    #[test]
    fn folding_on_one_core_serialises_compute() {
        // Two ranks, pure compute, on one single-core host vs two hosts.
        let streams = |n: usize| -> Vec<Box<dyn OpStream>> {
            (0..n)
                .map(|_| {
                    Box::new(VecOpStream::new(vec![MpiOp::compute(1e9)]))
                        as Box<dyn OpStream>
                })
                .collect()
        };
        let (p2, hosts2) = mesh_platform(2, 1);
        let regular = run_emulation(streams(2), p2, &hosts2, &quiet_cfg(), None).unwrap();
        let (p1, hosts1) = mesh_platform(1, 1);
        let folded =
            run_emulation(streams(2), p1, &[hosts1[0], hosts1[0]], &quiet_cfg(), None)
                .unwrap();
        assert!((regular.exec_time - 1.0).abs() < 1e-9);
        assert!(
            (folded.exec_time - 2.0).abs() < 1e-9,
            "folding factor 2 doubles compute time: {}",
            folded.exec_time
        );
    }

    #[test]
    fn instrumentation_writes_tau_files_and_costs_time() {
        let dir = std::env::temp_dir().join(format!("titr-emul-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (p1, hosts1) = mesh_platform(4, 1);
        let plain = run_emulation(ring_streams(4, 3), p1, &hosts1, &quiet_cfg(), None).unwrap();
        let (p2, hosts2) = mesh_platform(4, 1);
        let cfg = EmulConfig { instrument: true, tracing_per_record: 1e-4, ..quiet_cfg() };
        let inst =
            run_emulation(ring_streams(4, 3), p2, &hosts2, &cfg, Some(&dir)).unwrap();
        assert!(inst.tau_bytes > 0);
        assert!(dir.join("tautrace.0.0.0.trc").exists());
        assert!(dir.join("events.3.edf").exists());
        assert!(
            inst.exec_time > plain.exec_time,
            "tracing overhead must slow the run: {} vs {}",
            inst.exec_time,
            plain.exec_time
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn irecv_wait_exchange_completes() {
        let mk = |_me: usize, other: usize| {
            VecOpStream::new(vec![
                MpiOp::Irecv { src: other, bytes: 1e6 },
                MpiOp::Send { dst: other, bytes: 1e6 },
                MpiOp::Wait,
            ])
        };
        let (p, hosts) = mesh_platform(2, 1);
        let streams: Vec<Box<dyn OpStream>> =
            vec![Box::new(mk(0, 1)), Box::new(mk(1, 0))];
        let r = run_emulation(streams, p, &hosts, &quiet_cfg(), None).unwrap();
        assert!(r.exec_time >= 1e6 / 1.25e8);
    }

    #[test]
    fn collectives_execute_across_ranks() {
        let n = 8;
        let streams: Vec<Box<dyn OpStream>> = (0..n)
            .map(|_| {
                Box::new(VecOpStream::new(vec![
                    MpiOp::CommSize,
                    MpiOp::Bcast { bytes: 1e5 },
                    MpiOp::Allreduce { vcomm: 8.0, vcomp: 1e5 },
                    MpiOp::Barrier,
                ])) as Box<dyn OpStream>
            })
            .collect();
        let (p, hosts) = mesh_platform(n, 1);
        let r = run_emulation(streams, p, &hosts, &quiet_cfg(), None).unwrap();
        assert!(r.exec_time > 0.0);
        assert_eq!(r.ops_executed, (n * 4) as u64);
    }

    #[test]
    fn kernel_efficiency_slows_compute() {
        let mk = |eff: f64| -> Vec<Box<dyn OpStream>> {
            vec![Box::new(VecOpStream::new(vec![MpiOp::Compute {
                flops: 1e9,
                efficiency: eff,
            }]))]
        };
        let (p1, h1) = mesh_platform(1, 1);
        let fast = run_emulation(mk(1.0), p1, &h1, &quiet_cfg(), None).unwrap();
        let (p2, h2) = mesh_platform(1, 1);
        let slow = run_emulation(mk(0.5), p2, &h2, &quiet_cfg(), None).unwrap();
        assert!((fast.exec_time - 1.0).abs() < 1e-9);
        assert!((slow.exec_time - 2.0).abs() < 1e-9);
    }
}
