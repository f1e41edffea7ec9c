//! Happens-before graph construction.
//!
//! One node per *completion event* of a micro-op, with edge weights
//! carrying the **minimum** delay the engine could impose between the
//! two completions. Three edge families:
//!
//! * **program order** — each rank's blocking micro-ops chain
//!   sequentially; non-blocking requests hang off the chain without
//!   advancing it until the matching `wait`.
//! * **FIFO point-to-point matching** — the k-th send from `src` to
//!   `dst` on a channel pairs with the k-th receive `dst` posts from
//!   `src`, exactly the replayer's mailbox discipline. The application
//!   channel reuses [`tit_core::match_p2p`] (the lint matcher); the
//!   collective channel, whose micro-ops only exist after expansion,
//!   gets its own per-pair FIFO zip here.
//! * **collective synchronization** — every action, collectives
//!   included, is expanded through the *same* [`expand`] function the
//!   replayer uses, so their send/receive trees induce identical
//!   cross-rank edges.
//!
//! Because every edge weight under-estimates the engine's delay, the
//! longest weighted path is a sound makespan lower bound; the
//! serialized budgets accumulated alongside give the matching upper
//! bound (see `cost.rs`). A cycle in this graph is exactly a
//! guaranteed communication deadlock, surfaced as a typed error.
//!
//! # Construction strategy
//!
//! Phase 1 (program order) touches only one rank's actions at a time,
//! so it runs per rank on `jobs` worker threads (the same pool
//! discipline as trace ingest), each worker emitting *local* node ids
//! and edges plus per-channel pend tables. The per-rank pieces are
//! then merged in rank order — node ids shifted by a prefix-sum offset
//! — which reproduces, id for id and edge for edge, exactly the graph
//! the old single-pass construction built; the result is therefore
//! byte-identical for every `jobs` value.

use crate::cost::{clamp, CostModel};
use crate::AnalyzeError;
use simkern::netmodel::NetworkConfig;
use simkern::resource::HostId;
use simkern::Platform;
use std::collections::{BTreeMap, VecDeque};
use tit_core::graph::{DagBuilder, NodeId};
use tit_core::ingest::for_each_rank;
use tit_core::{match_p2p, Action, Dag, TiTrace};
use tit_replay::collectives::CollectiveAlgo;
use tit_replay::handlers::{expand, ExpandCtx, MicroOp};

/// Sentinel for "no pend recorded here" in the per-action tables
/// (also the hard cap on node count, enforced at node creation).
const NONE: NodeId = NodeId::MAX;

/// What a graph node represents: completion of the micro-op expanded
/// from action `index` of `rank`, classified by observer `tag`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// Owning rank.
    pub rank: u32,
    /// Action index within the rank (`u32::MAX` for the start node).
    pub index: u32,
    /// `tit_replay::tags` operation class (0 for the start node).
    pub tag: u32,
}

/// Per-rank volume and lower-cost accumulators for the report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RankAccum {
    /// Total floating-point operations computed.
    pub flops: f64,
    /// Total bytes sent (application + collective channels).
    pub bytes_sent: f64,
    /// Messages originated (application + collective channels).
    pub msgs_sent: u64,
    /// Lower-bound seconds of compute on this rank's host.
    pub compute_seconds: f64,
    /// Lower-bound seconds of the flows this rank originates.
    pub comm_seconds: f64,
}

/// Node id → [`Event`] table, kept chunked per rank: the chunks are
/// the phase-1 workers' own vectors, moved here instead of copied into
/// one flat allocation (which on large traces would double the
/// table's resident footprint for no query benefit).
pub(crate) struct Events {
    chunks: Vec<Vec<Event>>,
    /// Rank → first node id (prefix sums, length `ranks + 1`).
    off: Vec<NodeId>,
}

impl Events {
    /// The event behind node `v`.
    pub fn get(&self, v: NodeId) -> Event {
        let c = self.off.partition_point(|&o| o <= v) - 1;
        self.chunks[c][(v - self.off[c]) as usize]
    }

    /// All events in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.chunks.iter().flatten()
    }
}

/// The frozen graph plus everything the bounds and reports need.
pub(crate) struct Hb {
    /// Completion-event DAG (payload-free; see [`Hb::events`]).
    pub dag: Dag<()>,
    /// Node id → event description, parallel to the DAG's ids.
    pub events: Events,
    /// Full serialized budget: the static makespan **upper** bound.
    pub upper: f64,
    /// Number of network flows the engine would launch.
    pub flows: usize,
    /// Sends with no matching receive (either channel).
    pub unmatched_sends: usize,
    /// Receives with no matching send (either channel).
    pub unmatched_recvs: usize,
    /// `wait` micro-ops with no pending request.
    pub wait_underflows: usize,
    /// Per-rank accumulators.
    pub per_rank: Vec<RankAccum>,
}

/// A posted point-to-point operation awaiting its cross edge:
/// `post` is the completion the operation became eligible at, `done`
/// its own completion node. `done == NONE` marks an empty table slot.
#[derive(Debug, Clone, Copy)]
struct Pend {
    post: NodeId,
    done: NodeId,
}

impl Pend {
    const EMPTY: Pend = Pend { post: NONE, done: NONE };

    fn shifted(self, off: NodeId) -> Pend {
        Pend { post: self.post + off, done: self.done + off }
    }
}

/// Everything one rank's program-order pass produces, in local node
/// ids (0 = the rank's start node).
struct RankBuild {
    events: Vec<Event>,
    /// `(pred, succ, weight)` in local ids.
    edges: Vec<(NodeId, NodeId, f64)>,
    /// Action index → posted p2p op, application channel.
    app: Vec<Pend>,
    /// Destination rank → collective-channel sends in program order.
    coll_sends: BTreeMap<usize, Vec<(Pend, f64)>>,
    /// Source rank → collective-channel receives in program order.
    coll_recvs: BTreeMap<usize, Vec<Pend>>,
    acc: RankAccum,
    upper: f64,
    flows: usize,
    wait_underflows: usize,
}

/// Mutable state of one rank's program-order pass.
struct RankState<'m, 'p> {
    rank: usize,
    np: usize,
    rb: RankBuild,
    chain: NodeId,
    requests: VecDeque<NodeId>,
    cost: &'m mut CostModel<'p>,
}

impl RankState<'_, '_> {
    fn node(&mut self, index: u32, tag: u32) -> NodeId {
        let id = self.rb.events.len();
        assert!(id < NONE as usize, "happens-before node count overflows u32");
        self.rb.events.push(Event { rank: self.rank as u32, index, tag });
        id as NodeId
    }

    fn edge(&mut self, pred: NodeId, succ: NodeId, w: f64) {
        self.rb.edges.push((pred, succ, w));
    }

    /// Applies one micro-op of action `index`; `nproc` is the rank's
    /// mutable `comm_size` state.
    fn apply(&mut self, index: usize, op: &MicroOp, nproc: &mut usize) {
        let index32 = index as u32;
        match *op {
            MicroOp::Exec { flops, tag } => {
                let n = self.node(index32, tag);
                let w = self.cost.exec_lower(self.rank, flops);
                self.edge(self.chain, n, w);
                self.chain = n;
                self.rb.acc.flops += clamp(flops);
                self.rb.acc.compute_seconds += w;
                self.rb.upper += w + self.cost.exec_host_serial(self.rank, flops);
            }
            MicroOp::Send { dst, bytes, tag } | MicroOp::CollSend { dst, bytes, tag } => {
                let n = self.node(index32, tag);
                let coll = matches!(op, MicroOp::CollSend { .. });
                if dst < self.np {
                    let fc = self.cost.flow(self.rank, dst, bytes);
                    // Eager sends complete at post; rendezvous sends
                    // complete no earlier than post + the flow's
                    // minimum duration.
                    let w = if self.cost.is_eager(bytes) { 0.0 } else { fc.lower() };
                    self.edge(self.chain, n, w);
                    let pend = Pend { post: self.chain, done: n };
                    if coll {
                        self.rb.coll_sends.entry(dst).or_default().push((pend, bytes));
                    } else {
                        self.rb.app[index] = pend;
                    }
                    // Every send launches a flow (eager flows are
                    // buffered even when unmatched).
                    self.rb.flows += 1;
                    self.rb.upper += fc.serial();
                    self.rb.acc.comm_seconds += fc.lower();
                } else {
                    self.edge(self.chain, n, 0.0);
                }
                self.chain = n;
                self.rb.acc.bytes_sent += clamp(bytes);
                self.rb.acc.msgs_sent += 1;
            }
            MicroOp::Recv { src, tag } | MicroOp::CollRecv { src, tag } => {
                let n = self.node(index32, tag);
                self.edge(self.chain, n, 0.0);
                if src < self.np {
                    let pend = Pend { post: self.chain, done: n };
                    if matches!(op, MicroOp::CollRecv { .. }) {
                        self.rb.coll_recvs.entry(src).or_default().push(pend);
                    } else {
                        self.rb.app[index] = pend;
                    }
                }
                self.chain = n;
            }
            MicroOp::IsendReq { dst, bytes, tag } => {
                let n = self.node(index32, tag);
                if dst < self.np {
                    let fc = self.cost.flow(self.rank, dst, bytes);
                    let w = if self.cost.is_eager(bytes) { 0.0 } else { fc.lower() };
                    self.edge(self.chain, n, w);
                    self.rb.app[index] = Pend { post: self.chain, done: n };
                    self.rb.flows += 1;
                    self.rb.upper += fc.serial();
                    self.rb.acc.comm_seconds += fc.lower();
                } else {
                    self.edge(self.chain, n, 0.0);
                }
                // Non-blocking: the chain does not advance.
                self.requests.push_back(n);
                self.rb.acc.bytes_sent += clamp(bytes);
                self.rb.acc.msgs_sent += 1;
            }
            MicroOp::IrecvReq { src, tag } => {
                let n = self.node(index32, tag);
                self.edge(self.chain, n, 0.0);
                if src < self.np {
                    self.rb.app[index] = Pend { post: self.chain, done: n };
                }
                self.requests.push_back(n);
            }
            MicroOp::WaitReq { tag } => {
                let n = self.node(index32, tag);
                self.edge(self.chain, n, 0.0);
                match self.requests.pop_front() {
                    Some(req) => self.edge(req, n, 0.0),
                    None => self.rb.wait_underflows += 1,
                }
                self.chain = n;
            }
            MicroOp::SetCommSize { nproc: n } => {
                *nproc = n;
            }
        }
    }
}

/// Runs one rank's program-order pass, expanding every action through
/// the replayer's [`expand`].
fn build_rank(
    rank: usize,
    actions: &[Action],
    np: usize,
    cost: &mut CostModel<'_>,
    algo: CollectiveAlgo,
) -> Result<RankBuild, AnalyzeError> {
    let mut st = RankState {
        rank,
        np,
        rb: RankBuild {
            events: Vec::with_capacity(actions.len() + 1),
            edges: Vec::with_capacity(actions.len() + 1),
            app: vec![Pend::EMPTY; actions.len()],
            coll_sends: BTreeMap::new(),
            coll_recvs: BTreeMap::new(),
            acc: RankAccum::default(),
            upper: 0.0,
            flows: 0,
            wait_underflows: 0,
        },
        chain: 0,
        requests: VecDeque::new(),
        cost,
    };
    st.node(u32::MAX, 0); // the rank's start node, local id 0
    let mut nproc = 0usize;
    let mut ops: Vec<MicroOp> = Vec::new();
    for (index, action) in actions.iter().enumerate() {
        ops.clear();
        let ctx = ExpandCtx { rank, ranks: np, nproc, algo };
        expand(&ctx, action, &mut ops).map_err(|e| AnalyzeError::Expand {
            rank,
            index,
            detail: e.detail,
        })?;
        for op in &ops {
            st.apply(index, op, &mut nproc);
        }
    }
    Ok(st.rb)
}

pub(crate) fn build(
    trace: &TiTrace,
    platform: &Platform,
    net: &NetworkConfig,
    hosts: &[HostId],
    algo: CollectiveAlgo,
    jobs: usize,
) -> Result<Hb, AnalyzeError> {
    let np = trace.num_processes();

    // Phase 1, per rank in parallel: program-order nodes and edges in
    // local ids. Each worker gets its own cost model (the route cache
    // is just that — a cache).
    let mut per: Vec<RankBuild> = for_each_rank(np, jobs, |rank| {
        let mut cost = CostModel::new(platform, net, hosts);
        build_rank(rank, &trace.actions[rank], np, &mut cost, algo)
    })?;

    // Merge in rank order: ids shift by the node-count prefix sum,
    // reproducing exactly a single-pass construction. The per-rank
    // edge lists are re-id'd *in place* and donated to the builder by
    // move, and the event table stays chunked per rank — on
    // multi-million-action traces the copies this avoids dominate the
    // wall (fresh pages fault far slower than resident ones).
    let total_nodes: usize = per.iter().map(|rb| rb.events.len()).sum();
    let mut off = Vec::with_capacity(np + 1);
    let mut acc_off = 0usize;
    for rb in &per {
        off.push(acc_off as NodeId);
        acc_off += rb.events.len();
    }
    off.push(acc_off as NodeId);
    let mut g: DagBuilder<()> = DagBuilder::new();
    g.reserve(total_nodes, 0);
    let mut event_chunks: Vec<Vec<Event>> = Vec::with_capacity(np);
    let mut upper = 0.0f64;
    let mut flows = 0usize;
    let mut wait_underflows = 0usize;
    let mut per_rank = Vec::with_capacity(np);
    for (r, rb) in per.iter_mut().enumerate() {
        let o = off[r];
        for _ in 0..rb.events.len() {
            g.add_node(());
        }
        event_chunks.push(std::mem::take(&mut rb.events));
        for e in &mut rb.edges {
            e.0 += o;
            e.1 += o;
        }
        g.donate_edges(std::mem::take(&mut rb.edges));
        upper += rb.upper;
        flows += rb.flows;
        wait_underflows += rb.wait_underflows;
        per_rank.push(rb.acc);
    }
    let events = Events { chunks: event_chunks, off: off.clone() };

    // Phase 2: cross edges from FIFO matching. Application channel
    // first, via the shared lint matcher (valid because every p2p
    // action expands to exactly one micro-op, so program order over
    // actions equals program order over micro-ops).
    let mut cost = CostModel::new(platform, net, hosts);
    let matching = match_p2p(trace);
    let mut unmatched_sends = matching.unmatched_sends.len();
    let mut unmatched_recvs = matching.unmatched_recvs.len();
    for pair in &matching.matched {
        let (sr, rr) = (pair.send.rank, pair.recv.rank);
        let (Some(&s), Some(&r)) =
            (per[sr].app.get(pair.send.index), per[rr].app.get(pair.recv.index))
        else {
            continue;
        };
        if s.done == NONE || r.done == NONE {
            continue; // out-of-range peer: no flow was modelled
        }
        let bytes = pair.send.bytes.unwrap_or(0.0);
        link_flow(&mut g, &mut cost, s.shifted(off[sr]), r.shifted(off[rr]), sr, rr, bytes);
    }
    drop(matching); // endpoint tables are large; free before the CSR builds

    // Collective channel: per ordered pair, k-th send meets k-th recv.
    // (Iterating src-major over each rank's dst-sorted map is the same
    // (src, dst) lexicographic order the single-pass build used.)
    let empty = Vec::new();
    for (src, rb) in per.iter().enumerate() {
        for (&dst, sends) in &rb.coll_sends {
            let recvs = per[dst].coll_recvs.get(&src).unwrap_or(&empty);
            for (k, &(s, bytes)) in sends.iter().enumerate() {
                match recvs.get(k) {
                    Some(&r) => link_flow(
                        &mut g,
                        &mut cost,
                        s.shifted(off[src]),
                        r.shifted(off[dst]),
                        src,
                        dst,
                        bytes,
                    ),
                    None => unmatched_sends += 1,
                }
            }
            if recvs.len() > sends.len() {
                unmatched_recvs += recvs.len() - sends.len();
            }
        }
    }
    for (dst, rb) in per.iter().enumerate() {
        for (&src, recvs) in &rb.coll_recvs {
            let matched = per.get(src).is_some_and(|s| s.coll_sends.contains_key(&dst));
            if !matched {
                unmatched_recvs += recvs.len();
            }
        }
    }

    drop(per); // pend tables are no longer needed either
    let dag = g.build().map_err(|e| AnalyzeError::Deadlock {
        nodes: e
            .stuck
            .iter()
            .map(|&v| {
                let ev = events.get(v);
                (ev.rank as usize, ev.index as usize)
            })
            .collect(),
    })?;
    Ok(Hb {
        dag,
        events,
        upper,
        flows,
        unmatched_sends,
        unmatched_recvs,
        wait_underflows,
        per_rank,
    })
}

/// Adds the cross edges for one matched flow of `bytes` from rank
/// `src` to rank `dst`.
///
/// Eager: the flow launches at the send's post time even if the
/// receive is not up yet, so the receive completes no earlier than
/// `send.post + cost`. Rendezvous: the flow launches at
/// `max(send.post, recv.post)` and releases *both* sides at its end.
fn link_flow(
    g: &mut DagBuilder<()>,
    cost: &mut CostModel<'_>,
    s: Pend,
    r: Pend,
    src: usize,
    dst: usize,
    bytes: f64,
) {
    let fc = cost.flow(src, dst, bytes);
    let w = fc.lower();
    g.add_edge(s.post, r.done, w);
    if !cost.is_eager(bytes) {
        g.add_edge(r.post, r.done, w);
        g.add_edge(r.post, s.done, w);
        // send.post → send.done already carries `w` from phase 1.
    }
}
