//! Max-min fairness bandwidth-sharing solver ("LMM" in SimGrid parlance).
//!
//! At every instant, the simulation kernel must decide the rate of each
//! active activity (flop/s for computations, bytes/s for flows). The
//! paper's kernel uses SimGrid's analytical flow-level model: rates are the
//! **max-min fair** allocation under the capacity constraints of the
//! resources each activity crosses (Velho & Legrand, SIMUTools'09).
//!
//! A *variable* is an activity's rate. It may carry an upper *bound*
//! (e.g. the per-core speed of a CPU, a fat-pipe backbone, or a TCP-window
//! cap) and crosses zero or more *constraints* (shared resources with a
//! finite capacity). The solver performs progressive filling: the common
//! water level rises until either a variable hits its bound or a
//! constraint saturates; saturated entities are frozen and filling
//! continues with the remaining capacity.
//!
//! # Incremental solving
//!
//! Changing one variable only affects the variables *connected* to it
//! through shared constraints (its "island"). [`System::solve_dirty`]
//! re-solves only the islands touched since the last solve and reports
//! which variables changed rate — on a large platform most of the system
//! is untouched by any single event, which is what keeps replaying
//! thousand-process traces tractable (the paper's Section 6.6 concern).
//! [`System::solve`] remains as the full-system reference implementation.
//!
//! # Bit-identical partial solves
//!
//! The scale-invariance contract (docs/KERNEL.md §2) requires the
//! incremental path to produce **bit-identical** rates to a full
//! re-solve, so the engine's differential oracle can pin the fast kernel
//! against the reference one. Two implementation rules make per-island
//! filling reproduce global filling exactly:
//!
//! 1. **Canonical variable order.** Island variables are filled in
//!    ascending slab id, as the full solve iterates them, so each
//!    constraint's share-subtraction sequence — floating-point
//!    subtraction is order-sensitive — is the same in both paths.
//!    Constraint order does not matter: constraints only feed the
//!    water level, which is a min.
//! 2. **Exact level comparisons.** An entity binds only when its ratio
//!    or bound equals the current water level *exactly* (the level is a
//!    min over those quantities, so at least one entity binds per
//!    round and progress is guaranteed). With an epsilon slack, a
//!    global solve could batch two islands whose levels differ by an
//!    ulp into one round and assign the smaller level to both, while
//!    per-island solves would assign each island its own level — an
//!    ulp-level divergence that compounds. Exact comparisons make every
//!    binding value a function of island-local state only.
//!
//! The incremental fill runs on packed island-local arrays rather than
//! on the slabs: one pass marks island membership in bitsets and packs
//! each constraint's remaining capacity, active count and cached ratio,
//! and each variable's bound and constraint list (compressed rows of
//! local indices). Reading the variable bitset in word order yields
//! ascending ids, so rule 1 costs no sort. The buffers are owned by the
//! [`System`], so a solve is allocation-free once they have grown, and
//! each variable's constraint list is stored inline (up to
//! [`INLINE_CNSTS`]) instead of in a heap `Vec` — activity churn is the
//! kernel's allocation bottleneck at scale (docs/KERNEL.md §5).
//!
//! Most dirty islands are trivial: a constraint no variable crosses, or
//! one variable alone on every constraint it crosses. A solve whose
//! islands are all trivial skips the packing and sets each lone
//! variable to `min(bound, capacities)`, the rate the fill would give
//! it (docs/KERNEL.md §2).

use crate::slab::Slab;

/// Identifier of a shared-capacity constraint (resource).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CnstId(pub usize);

/// Identifier of a rate variable (activity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub usize);

/// Constraint-list entries stored inline before spilling to the heap.
/// Covers every route shape in the bundled platforms (a compute crosses
/// one constraint, a flat-cluster flow two NICs, a gdx cross-cabinet
/// flow four links); longer routes fall back to a `Vec`.
pub const INLINE_CNSTS: usize = 4;

/// A variable's constraint list: inline array for the common case, heap
/// spill for long routes. Replacing a per-variable `Vec` with this
/// removes one allocation per posted activity — millions per replay.
#[derive(Debug, Clone)]
enum CnstList {
    Inline { len: u8, ids: [usize; INLINE_CNSTS] },
    Heap(Vec<usize>),
}

impl CnstList {
    fn from_ids(cnsts: &[CnstId]) -> Self {
        if cnsts.len() <= INLINE_CNSTS {
            let mut ids = [0usize; INLINE_CNSTS];
            for (slot, c) in ids.iter_mut().zip(cnsts) {
                *slot = c.0;
            }
            #[allow(clippy::cast_possible_truncation)]
            CnstList::Inline { len: cnsts.len() as u8, ids }
        } else {
            CnstList::Heap(cnsts.iter().map(|c| c.0).collect())
        }
    }

    fn as_slice(&self) -> &[usize] {
        match self {
            CnstList::Inline { len, ids } => &ids[..*len as usize],
            CnstList::Heap(v) => v,
        }
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn get(&self, i: usize) -> usize {
        self.as_slice()[i]
    }
}

#[derive(Debug, Clone)]
struct Cnst {
    capacity: f64,
    /// Variables currently crossing this constraint.
    vars: Vec<usize>,
    /// Scratch: capacity left during a solve.
    remaining: f64,
    /// Scratch: number of unfixed variables crossing this constraint.
    nactive: usize,
    /// In the dirty queue already?
    queued_dirty: bool,
}

#[derive(Debug, Clone)]
struct Var {
    /// Upper bound on the rate (`f64::INFINITY` when unbounded).
    bound: f64,
    /// Constraints this variable crosses (inline up to [`INLINE_CNSTS`]).
    cnsts: CnstList,
    /// Solved rate.
    value: f64,
    /// Scratch: fixed during the current solve.
    fixed: bool,
}

/// A set of slab ids, one bit each.
#[derive(Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Makes room for ids below `n`.
    fn grow(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Adds `i`; true when it was not in the set yet.
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }
}

/// Working set of one [`System::solve_dirty`]: the dirty islands packed
/// into dense arrays indexed by island-local position. Rebuilt by every
/// solve, so it is not simulation state: snapshots leave it out.
#[derive(Debug, Default)]
struct Islands {
    /// Island membership by slab id.
    cnst_seen: BitSet,
    var_seen: BitSet,
    /// Local index of each member constraint, by slab id (stale for
    /// non-members).
    cnst_local: Vec<u32>,
    /// Constraints in discovery order (doubling as the breadth-first
    /// queue): slab id, capacity left, unfixed crossing variables, and
    /// `remaining / nactive` while `nactive > 0`.
    cnst_id: Vec<usize>,
    remaining: Vec<f64>,
    nactive: Vec<u32>,
    ratio: Vec<f64>,
    /// Variables in ascending slab id: id, bound, solved rate, and the
    /// local constraint indices `cols[rows[i]..rows[i + 1]]`.
    var_id: Vec<usize>,
    bound: Vec<f64>,
    value: Vec<f64>,
    rows: Vec<u32>,
    cols: Vec<u32>,
    /// Local indices of the unfixed variables (ascending) and of the
    /// constraints they still cross, compacted after every round.
    unfixed: Vec<u32>,
    active: Vec<u32>,
}

impl Islands {
    /// Appends constraint `c` to the island.
    fn push_cnst(&mut self, c: usize, capacity: f64) {
        self.cnst_local[c] = self.cnst_id.len() as u32;
        self.cnst_id.push(c);
        self.remaining.push(capacity);
        self.nactive.push(0);
    }

    /// Progressive filling on the packed arrays: the same rounds, level
    /// and binding rule as [`System::fill`], so the rates are
    /// bit-identical to it (docs/KERNEL.md §2). Ratios are cached and
    /// recomputed exactly when a fix changes them.
    fn fill(&mut self) {
        let Islands {
            remaining, nactive, ratio, bound, value, rows, cols, unfixed, active, ..
        } = self;
        ratio.clear();
        ratio.extend(remaining.iter().zip(nactive.iter()).map(|(&r, &n)| r / n as f64));
        active.clear();
        active.extend((0..nactive.len() as u32).filter(|&c| nactive[c as usize] > 0));
        value.clear();
        value.resize(bound.len(), 0.0);
        unfixed.clear();
        unfixed.extend(0..bound.len() as u32);
        // The level's two halves, each a min over a list that the
        // previous round's pass already walks (min is order-free).
        let mut min_ratio = active.iter().fold(f64::INFINITY, |m, &c| m.min(ratio[c as usize]));
        let mut min_bound = bound.iter().fold(f64::INFINITY, |m, &b| m.min(b));

        while !unfixed.is_empty() {
            // Water level at which the next entity binds.
            let level = min_ratio.min(min_bound);
            debug_assert!(level.is_finite(), "no binding entity for unfixed variables");

            // Fix every variable bound at `level`, in ascending id
            // order, with exact comparisons (bit-identity rules 1–2).
            let mut kept = 0;
            min_bound = f64::INFINITY;
            for k in 0..unfixed.len() {
                let v = unfixed[k] as usize;
                let cs = &cols[rows[v] as usize..rows[v + 1] as usize];
                if !(bound[v] <= level || cs.iter().any(|&c| ratio[c as usize] <= level)) {
                    unfixed[kept] = v as u32;
                    kept += 1;
                    min_bound = min_bound.min(bound[v]);
                    continue;
                }
                let x = level.min(bound[v]);
                value[v] = x;
                for &c in cs {
                    let c = c as usize;
                    remaining[c] = (remaining[c] - x).max(0.0);
                    nactive[c] -= 1;
                    if nactive[c] > 0 {
                        ratio[c] = remaining[c] / nactive[c] as f64;
                    }
                }
            }
            let progressed = kept < unfixed.len();
            debug_assert!(progressed, "progressive filling made no progress");
            if !progressed {
                break; // defensive: avoid an infinite loop in release
            }
            unfixed.truncate(kept);
            min_ratio = f64::INFINITY;
            active.retain(|&c| {
                let c = c as usize;
                if nactive[c] > 0 {
                    min_ratio = min_ratio.min(ratio[c]);
                }
                nactive[c] > 0
            });
        }
    }
}

/// Cumulative counters over every incremental solve since the system
/// was created (or restored from a snapshot — counters are *not* part
/// of [`LmmSnapshot`]: they are profiling state, not simulation state,
/// and must not perturb bit-identical checkpoint/resume).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Non-trivial [`System::solve_dirty`] calls (dirty on entry).
    pub solves: u64,
    /// Solves that re-solved a strict subset of the constraints — the
    /// observable half of the scale-invariance claim (the other half is
    /// [`constraints_skipped`](SolverStats::constraints_skipped)).
    pub partial_solves: u64,
    /// Connected components (islands) re-solved across all solves.
    pub islands: u64,
    /// Constraints visited during island collection, summed.
    pub constraints_touched: u64,
    /// Constraints *not* visited, summed over all solves: the work the
    /// incremental path avoided relative to a full re-solve.
    pub constraints_skipped: u64,
    /// Variables visited during island collection, summed.
    pub vars_touched: u64,
    /// Variables whose rate actually changed, summed.
    pub rate_changes: u64,
}

/// The sharing system: a set of constraints and variables.
#[derive(Debug, Default)]
pub struct System {
    cnsts: Slab<Cnst>,
    vars: Slab<Var>,
    /// Constraints whose variable set changed since the last solve.
    dirty_cnsts: Vec<usize>,
    /// Dirty variables with no constraints (their rate is their bound).
    dirty_free_vars: Vec<usize>,
    dirty: bool,
    stats: SolverStats,
    /// Packed working set reused across solves (allocation-free once
    /// grown).
    islands: Islands,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a shared resource with the given capacity
    /// (flop/s or bytes/s). Capacity must be positive and finite.
    pub fn new_constraint(&mut self, capacity: f64) -> CnstId {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "constraint capacity must be positive and finite, got {capacity}"
        );
        CnstId(self.cnsts.insert(Cnst {
            capacity,
            vars: Vec::new(),
            remaining: capacity,
            nactive: 0,
            queued_dirty: false,
        }))
    }

    fn mark_cnst_dirty(&mut self, c: usize) {
        let cn = &mut self.cnsts[c];
        if !cn.queued_dirty {
            cn.queued_dirty = true;
            self.dirty_cnsts.push(c);
        }
        self.dirty = true;
    }

    /// Registers an activity's rate variable crossing `cnsts`, capped at
    /// `bound` (use `f64::INFINITY` for no cap). The slice is copied
    /// inline (up to [`INLINE_CNSTS`] entries) — callers can reuse a
    /// scratch buffer instead of allocating a `Vec` per activity.
    pub fn new_variable(&mut self, bound: f64, cnsts: &[CnstId]) -> VarId {
        assert!(bound > 0.0, "variable bound must be positive, got {bound}");
        let id = self.vars.insert(Var {
            bound,
            cnsts: CnstList::from_ids(cnsts),
            value: 0.0,
            fixed: false,
        });
        if cnsts.is_empty() {
            self.dirty_free_vars.push(id);
            self.dirty = true;
        } else {
            for c in cnsts {
                self.cnsts[c.0].vars.push(id);
                self.mark_cnst_dirty(c.0);
            }
        }
        VarId(id)
    }

    /// Removes a finished activity's variable.
    pub fn remove_variable(&mut self, id: VarId) {
        let var = self
            .vars
            .try_remove(id.0)
            // panics: kernel invariant; violation means simulator state corruption
            .expect("remove_variable: variable already removed");
        for &c in var.cnsts.as_slice() {
            let vars = &mut self.cnsts[c].vars;
            if let Some(pos) = vars.iter().position(|&v| v == id.0) {
                vars.swap_remove(pos);
            }
            self.mark_cnst_dirty(c);
        }
        self.dirty = true;
    }

    /// Solved rate of a variable (valid after a solve).
    pub fn rate(&self, id: VarId) -> f64 {
        self.vars[id.0].value
    }

    /// True when the system changed since the last solve.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Cumulative incremental-solve counters (see [`SolverStats`]).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Checkpoint support

    /// Captures the system's raw layout for a checkpoint. Must be
    /// called on a *clean* system (`!is_dirty()`): scratch state is not
    /// captured, so a pending incremental solve would be lost.
    ///
    /// The slab free-lists are part of the snapshot because index reuse
    /// follows them, and a variable's id fixes its place in every fill:
    /// both [`solve`](System::solve) and
    /// [`solve_dirty`](System::solve_dirty) subtract shares in ascending
    /// variable id. A constraint's `vars` list is kept only as the
    /// adjacency the island search walks, so its order is not state: a
    /// snapshot restored with the lists permuted solves to the same bits.
    pub fn export_snapshot(&self) -> Result<LmmSnapshot, String> {
        if self.dirty {
            return Err("lmm snapshot requested while system is dirty".into());
        }
        Ok(LmmSnapshot {
            cnsts: self
                .cnsts
                .slots()
                .map(|s| {
                    s.map(|c| CnstSnap { capacity: c.capacity, vars: c.vars.clone() })
                })
                .collect(),
            cnst_free: self.cnsts.free_list().to_vec(),
            vars: self
                .vars
                .slots()
                .map(|s| {
                    s.map(|v| VarSnap {
                        bound: v.bound,
                        cnsts: v.cnsts.as_slice().to_vec(),
                        value: v.value,
                    })
                })
                .collect(),
            var_free: self.vars.free_list().to_vec(),
        })
    }

    /// Rebuilds a system from a snapshot: slab layouts, free-lists and
    /// per-constraint variable lists are restored verbatim; scratch
    /// state is reset; the system starts clean.
    pub fn restore_snapshot(snap: &LmmSnapshot) -> Result<Self, String> {
        let cnsts = Slab::from_raw(
            snap.cnsts
                .iter()
                .map(|s| {
                    s.as_ref().map(|c| Cnst {
                        capacity: c.capacity,
                        vars: c.vars.clone(),
                        remaining: c.capacity,
                        nactive: 0,
                        queued_dirty: false,
                    })
                })
                .collect(),
            snap.cnst_free.clone(),
        )?;
        let vars = Slab::from_raw(
            snap.vars
                .iter()
                .map(|s| {
                    s.as_ref().map(|v| Var {
                        bound: v.bound,
                        cnsts: CnstList::from_ids(
                            &v.cnsts.iter().map(|&c| CnstId(c)).collect::<Vec<_>>(),
                        ),
                        value: v.value,
                        fixed: false,
                    })
                })
                .collect(),
            snap.var_free.clone(),
        )?;
        for (c, cn) in cnsts.iter() {
            if !(cn.capacity > 0.0 && cn.capacity.is_finite()) {
                return Err(format!(
                    "lmm restore: constraint {c} has capacity {}, not positive and finite",
                    cn.capacity
                ));
            }
        }
        for (v, var) in vars.iter() {
            if var.bound.is_nan() || var.bound <= 0.0 {
                return Err(format!("lmm restore: variable {v} has non-positive bound"));
            }
        }
        check_edges(&cnsts, &vars)?;
        Ok(System {
            cnsts,
            vars,
            dirty_cnsts: Vec::new(),
            dirty_free_vars: Vec::new(),
            dirty: false,
            stats: SolverStats::default(),
            islands: Islands::default(),
        })
    }

    // ------------------------------------------------------------------
    // Incremental solve

    /// Re-solves only the islands touched since the last solve. Appends
    /// to `changed` every variable whose rate changed (including freshly
    /// created ones): free variables first, then island variables in
    /// ascending id. Untouched islands keep their cached rates — no
    /// work is spent on them at all.
    pub fn solve_dirty(&mut self, changed: &mut Vec<VarId>) {
        self.solve_dirty_with(changed, true);
    }

    /// [`solve_dirty`](Self::solve_dirty), solving trivial islands
    /// directly when `direct` allows it and every dirty island is one.
    fn solve_dirty_with(&mut self, changed: &mut Vec<VarId>, direct: bool) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.stats.solves += 1;
        let changed_before = changed.len();

        // Free variables: rate = bound, no sharing. Drained in place, so
        // the buffer keeps its capacity.
        for v in self.dirty_free_vars.drain(..) {
            if let Some(var) = self.vars.get_mut(v) {
                if var.cnsts.is_empty() && var.value != var.bound {
                    var.value = var.bound;
                    changed.push(VarId(v));
                }
            }
        }

        if !(direct && self.solve_trivial(changed)) {
            self.solve_packed(changed);
        }
        self.dirty_cnsts.clear();
        self.stats.rate_changes += (changed.len() - changed_before) as u64;
    }

    /// Solves the dirty islands without packing them, when every one is
    /// trivial: a constraint no variable crosses, or one variable alone
    /// on every constraint it crosses. That variable's rate is
    /// `min(bound, capacities)`, which is what [`Islands::fill`] gives
    /// it: each of its constraints has ratio `capacity / 1.0`, the
    /// level is the min of those and the bound, and min is exact and
    /// order-free. The islands, constraints and variables are counted
    /// as [`solve_packed`](Self::solve_packed) counts them, and the
    /// changed rates are appended in ascending id. Returns false, having
    /// changed neither rates nor counters, when some island's variables
    /// share a constraint.
    fn solve_trivial(&mut self, changed: &mut Vec<VarId>) -> bool {
        let System { cnsts, vars, dirty_cnsts, stats, islands: isl, .. } = self;
        isl.cnst_seen.grow(cnsts.slot_count());
        // Visited constraints, and each lone variable with its rate.
        isl.cnst_id.clear();
        isl.var_id.clear();
        isl.value.clear();
        let mut islands = 0;
        let mut trivial = true;
        'seeds: for &seed in dirty_cnsts.iter() {
            let Some(cn) = cnsts.get_mut(seed) else { continue };
            cn.queued_dirty = false;
            if !isl.cnst_seen.insert(seed) {
                continue;
            }
            islands += 1;
            isl.cnst_id.push(seed);
            let v = match cnsts[seed].vars[..] {
                [] => continue,
                [v] => v,
                _ => {
                    trivial = false;
                    break;
                }
            };
            let var = &vars[v];
            let mut x = var.bound;
            for &c in var.cnsts.as_slice() {
                if cnsts[c].vars.len() != 1 {
                    trivial = false;
                    break 'seeds;
                }
                x = x.min(cnsts[c].capacity);
                if isl.cnst_seen.insert(c) {
                    isl.cnst_id.push(c);
                }
            }
            isl.var_id.push(v);
            isl.value.push(x);
        }
        for &c in &isl.cnst_id {
            isl.cnst_seen.remove(c);
        }
        if !trivial {
            return false;
        }

        let ncnsts = isl.cnst_id.len();
        stats.islands += islands;
        stats.constraints_touched += ncnsts as u64;
        stats.constraints_skipped += (cnsts.len() - ncnsts) as u64;
        if ncnsts < cnsts.len() {
            stats.partial_solves += 1;
        }
        stats.vars_touched += isl.var_id.len() as u64;
        let first = changed.len();
        for (&v, &x) in isl.var_id.iter().zip(&isl.value) {
            let var = &mut vars[v];
            if var.value != x {
                var.value = x;
                changed.push(VarId(v));
            }
        }
        changed[first..].sort_unstable_by_key(|v| v.0);
        true
    }

    /// Collects the dirty islands, packs them and fills them with
    /// [`Islands::fill`], writing back the rates that changed.
    fn solve_packed(&mut self, changed: &mut Vec<VarId>) {
        // One breadth-first pass from the dirty constraints marks the
        // islands' members in the bitsets and packs each constraint;
        // the packed constraint list is the queue.
        let System { cnsts, vars, dirty_cnsts, stats, islands: isl, .. } = self;
        isl.cnst_seen.grow(cnsts.slot_count());
        isl.var_seen.grow(vars.slot_count());
        isl.cnst_local.resize(cnsts.slot_count(), 0);
        isl.cnst_id.clear();
        isl.remaining.clear();
        isl.nactive.clear();
        // `lo..=hi` bounds the bitset words that hold member variables.
        let (mut nvars, mut lo, mut hi) = (0usize, usize::MAX, 0usize);
        let mut head = 0;
        for &seed in dirty_cnsts.iter() {
            let Some(cn) = cnsts.get_mut(seed) else { continue };
            cn.queued_dirty = false;
            if !isl.cnst_seen.insert(seed) {
                continue;
            }
            stats.islands += 1;
            isl.push_cnst(seed, cn.capacity);
            while let Some(&c) = isl.cnst_id.get(head) {
                head += 1;
                for &v in &cnsts[c].vars {
                    if !isl.var_seen.insert(v) {
                        continue;
                    }
                    nvars += 1;
                    (lo, hi) = (lo.min(v / 64), hi.max(v / 64));
                    for &vc in vars[v].cnsts.as_slice() {
                        if isl.cnst_seen.insert(vc) {
                            isl.push_cnst(vc, cnsts[vc].capacity);
                        }
                    }
                }
            }
        }
        for &c in &isl.cnst_id {
            isl.cnst_seen.remove(c);
        }

        let ncnsts = isl.cnst_id.len();
        stats.constraints_touched += ncnsts as u64;
        stats.constraints_skipped += (cnsts.len() - ncnsts) as u64;
        if ncnsts < cnsts.len() {
            stats.partial_solves += 1;
        }
        stats.vars_touched += nvars as u64;

        // Pack the variables in ascending id (bit-identity rule 1)
        // straight off the bitset, clearing it on the way.
        isl.var_id.clear();
        isl.bound.clear();
        isl.rows.clear();
        isl.cols.clear();
        isl.rows.push(0);
        for w in lo..=hi {
            let mut bits = std::mem::take(&mut isl.var_seen.words[w]);
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let var = &vars[v];
                isl.var_id.push(v);
                isl.bound.push(var.bound);
                for &c in var.cnsts.as_slice() {
                    let lc = isl.cnst_local[c];
                    isl.cols.push(lc);
                    isl.nactive[lc as usize] += 1;
                }
                isl.rows.push(isl.cols.len() as u32);
            }
        }

        isl.fill();
        for (&v, &x) in isl.var_id.iter().zip(&isl.value) {
            let var = &mut vars[v];
            if var.value != x {
                var.value = x;
                changed.push(VarId(v));
            }
        }
    }

    /// Computes the max-min fair allocation of the whole system
    /// (reference implementation; `solve_dirty` is the incremental one).
    /// Produces bit-identical rates to a sequence of island solves over
    /// the same state — see the module docs for the two rules that make
    /// that hold.
    pub fn solve(&mut self) {
        self.dirty = false;
        self.dirty_cnsts.clear();
        self.dirty_free_vars.clear();
        for (_, c) in self.cnsts.iter_mut() {
            c.queued_dirty = false;
        }
        let all_vars: Vec<usize> = self.vars.iter().map(|(id, _)| id).collect();
        let all_cnsts: Vec<usize> = self.cnsts.iter().map(|(id, _)| id).collect();
        // Free variables take their bound.
        for &v in &all_vars {
            if self.vars[v].cnsts.is_empty() {
                let b = self.vars[v].bound;
                self.vars[v].value = b;
            }
        }
        self.fill(&all_vars, &all_cnsts);
    }

    /// Progressive filling over the given sub-system, walking the slabs.
    /// Variables without constraints in the list keep `value = bound`
    /// behaviour. This is the oracle that the packed incremental fill
    /// ([`Islands::fill`]) must match bit for bit.
    ///
    /// `vars` must be sorted ascending by id — the caller guarantees
    /// canonical order so partial and full solves subtract shares in the
    /// same sequence (bit-identity rule 1).
    fn fill(&mut self, vars: &[usize], cnsts: &[usize]) {
        // Reset scratch state.
        for &c in cnsts {
            let cn = &mut self.cnsts[c];
            cn.remaining = cn.capacity;
            cn.nactive = 0;
        }
        let mut unfixed = 0usize;
        for &v in vars {
            let var = &mut self.vars[v];
            if var.cnsts.is_empty() {
                var.value = var.bound;
                var.fixed = true;
                continue;
            }
            var.fixed = false;
            var.value = 0.0;
            unfixed += 1;
            let ncn = self.vars[v].cnsts.len();
            for j in 0..ncn {
                let c = self.vars[v].cnsts.get(j);
                self.cnsts[c].nactive += 1;
            }
        }

        while unfixed > 0 {
            // Water level at which the next entity binds.
            let mut level = f64::INFINITY;
            for &c in cnsts {
                let cn = &self.cnsts[c];
                if cn.nactive > 0 {
                    level = level.min(cn.remaining / cn.nactive as f64);
                }
            }
            for &v in vars {
                let var = &self.vars[v];
                if !var.fixed {
                    level = level.min(var.bound);
                }
            }
            debug_assert!(level.is_finite(), "no binding entity for unfixed variables");

            // Fix every variable bound at `level`. The comparisons are
            // exact (bit-identity rule 2): the level is itself a min
            // over these quantities, so the min-achieving entity binds
            // and each round makes progress.
            let mut progressed = false;
            for &v in vars {
                let binds = {
                    let var = &self.vars[v];
                    if var.fixed {
                        continue;
                    }
                    var.bound <= level
                        || var.cnsts.as_slice().iter().any(|&c| {
                            let cn = &self.cnsts[c];
                            cn.remaining / cn.nactive as f64 <= level
                        })
                };
                if !binds {
                    continue;
                }
                progressed = true;
                let value;
                {
                    let var = &mut self.vars[v];
                    value = level.min(var.bound);
                    var.value = value;
                    var.fixed = true;
                }
                unfixed -= 1;
                let ncn = self.vars[v].cnsts.len();
                for j in 0..ncn {
                    let c = self.vars[v].cnsts.get(j);
                    let cn = &mut self.cnsts[c];
                    cn.remaining = (cn.remaining - value).max(0.0);
                    cn.nactive -= 1;
                }
            }
            debug_assert!(progressed, "progressive filling made no progress");
            if !progressed {
                break; // defensive: avoid an infinite loop in release
            }
        }
    }
}

/// Checks that the constraint → variable and variable → constraint
/// lists hold the same edges, each as often on both sides (a missing
/// slot lists nothing): removal drops one entry per listing, so a
/// mismatch would leave a dangling reference for the next solve to
/// trip on.
fn check_edges(cnsts: &Slab<Cnst>, vars: &Slab<Var>) -> Result<(), String> {
    let mut listed: Vec<(usize, usize)> =
        cnsts.iter().flat_map(|(c, cn)| cn.vars.iter().map(move |&v| (c, v))).collect();
    let mut back: Vec<(usize, usize)> = vars
        .iter()
        .flat_map(|(v, var)| var.cnsts.as_slice().iter().map(move |&c| (c, v)))
        .collect();
    listed.sort_unstable();
    back.sort_unstable();
    // The first difference between the sorted edge lists names an edge
    // listed more often on one side than on the other.
    let k = listed.iter().zip(&back).take_while(|(a, b)| a == b).count();
    match (listed.get(k), back.get(k)) {
        (Some(&(c, v)), b) if b.is_none_or(|&b| (c, v) < b) => Err(format!(
            "lmm restore: constraint {c} lists variable {v} more often than the variable lists it"
        )),
        (_, Some(&(c, v))) => Err(format!(
            "lmm restore: variable {v} lists constraint {c} more often than the constraint lists it"
        )),
        _ => Ok(()),
    }
}

/// Raw layout of one constraint, as captured for a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CnstSnap {
    /// Resource capacity (flop/s or bytes/s).
    pub capacity: f64,
    /// Crossing variables in internal (swap-remove-shaped) order.
    pub vars: Vec<usize>,
}

/// Raw layout of one variable, as captured for a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct VarSnap {
    /// Rate cap (`f64::INFINITY` when unbounded).
    pub bound: f64,
    /// Crossed constraint keys.
    pub cnsts: Vec<usize>,
    /// Solved rate at capture time.
    pub value: f64,
}

/// Full raw layout of a clean [`System`]: slab slots in index order
/// (vacant = `None`) plus the free-lists. See
/// [`System::export_snapshot`] for why the layout, not just the
/// contents, must survive a round-trip.
#[derive(Debug, Clone, PartialEq)]
pub struct LmmSnapshot {
    /// Constraint slots in index order.
    pub cnsts: Vec<Option<CnstSnap>>,
    /// Constraint slab free-list, internal order.
    pub cnst_free: Vec<usize>,
    /// Variable slots in index order.
    pub vars: Vec<Option<VarSnap>>,
    /// Variable slab free-list, internal order.
    pub var_free: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        a == b || (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_variable_gets_full_capacity() {
        let mut s = System::new();
        let c = s.new_constraint(100.0);
        let v = s.new_variable(f64::INFINITY, &[c]);
        s.solve();
        assert!(close(s.rate(v), 100.0));
    }

    #[test]
    fn equal_sharing_on_one_link() {
        let mut s = System::new();
        let c = s.new_constraint(90.0);
        let vs: Vec<_> =
            (0..3).map(|_| s.new_variable(f64::INFINITY, &[c])).collect();
        s.solve();
        for v in vs {
            assert!(close(s.rate(v), 30.0));
        }
    }

    #[test]
    fn bound_caps_share_and_releases_capacity() {
        let mut s = System::new();
        let c = s.new_constraint(100.0);
        let slow = s.new_variable(10.0, &[c]);
        let fast = s.new_variable(f64::INFINITY, &[c]);
        s.solve();
        assert!(close(s.rate(slow), 10.0));
        // The other flow picks up the slack.
        assert!(close(s.rate(fast), 90.0));
    }

    #[test]
    fn parking_lot_scenario() {
        // Classic max-min example: one long flow crosses links A and B,
        // one short flow on A, one short flow on B. All links capacity 1.
        let mut s = System::new();
        let a = s.new_constraint(1.0);
        let b = s.new_constraint(1.0);
        let long = s.new_variable(f64::INFINITY, &[a, b]);
        let sa = s.new_variable(f64::INFINITY, &[a]);
        let sb = s.new_variable(f64::INFINITY, &[b]);
        s.solve();
        assert!(close(s.rate(long), 0.5));
        assert!(close(s.rate(sa), 0.5));
        assert!(close(s.rate(sb), 0.5));
    }

    #[test]
    fn bottleneck_then_refill() {
        let mut s = System::new();
        let narrow = s.new_constraint(1.0);
        let wide = s.new_constraint(10.0);
        let f1 = s.new_variable(f64::INFINITY, &[narrow, wide]);
        let f2 = s.new_variable(f64::INFINITY, &[narrow, wide]);
        let f3 = s.new_variable(f64::INFINITY, &[wide]);
        s.solve();
        assert!(close(s.rate(f1), 0.5));
        assert!(close(s.rate(f2), 0.5));
        assert!(close(s.rate(f3), 9.0));
    }

    #[test]
    fn unconstrained_variable_takes_its_bound() {
        let mut s = System::new();
        let v = s.new_variable(42.0, &[]);
        s.solve();
        assert!(close(s.rate(v), 42.0));
    }

    #[test]
    fn remove_variable_redistributes() {
        let mut s = System::new();
        let c = s.new_constraint(100.0);
        let v1 = s.new_variable(f64::INFINITY, &[c]);
        let v2 = s.new_variable(f64::INFINITY, &[c]);
        s.solve();
        assert!(close(s.rate(v1), 50.0));
        s.remove_variable(v2);
        assert!(s.is_dirty());
        s.solve();
        assert!(close(s.rate(v1), 100.0));
    }

    #[test]
    fn cpu_with_cores_and_per_core_bound() {
        let mut s = System::new();
        let cpu = s.new_constraint(4e9);
        let t: Vec<_> = (0..2).map(|_| s.new_variable(1e9, &[cpu])).collect();
        s.solve();
        for &v in &t {
            assert!(close(s.rate(v), 1e9));
        }
        let more: Vec<_> = (0..4).map(|_| s.new_variable(1e9, &[cpu])).collect();
        s.solve();
        for &v in t.iter().chain(more.iter()) {
            assert!(close(s.rate(v), 4e9 / 6.0));
        }
    }

    #[test]
    fn long_route_spills_to_heap_and_still_solves() {
        let mut s = System::new();
        let cnsts: Vec<CnstId> =
            (0..INLINE_CNSTS + 3).map(|_| s.new_constraint(10.0)).collect();
        let long = s.new_variable(f64::INFINITY, &cnsts);
        let short = s.new_variable(f64::INFINITY, &[cnsts[0]]);
        s.solve();
        assert!(close(s.rate(long), 5.0));
        assert!(close(s.rate(short), 5.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let mut s = System::new();
        s.new_constraint(0.0);
    }

    // ------------------------------------------------------------------
    // Checkpoint round-trip

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        let mut s = System::new();
        let ca = s.new_constraint(100.0);
        let cb = s.new_constraint(50.0);
        let v1 = s.new_variable(f64::INFINITY, &[ca, cb]);
        let v2 = s.new_variable(30.0, &[ca]);
        let v3 = s.new_variable(f64::INFINITY, &[cb]);
        let mut changed = Vec::new();
        s.solve_dirty(&mut changed);
        // Shape the internal layout with a removal + reuse.
        s.remove_variable(v2);
        changed.clear();
        s.solve_dirty(&mut changed);

        let snap = s.export_snapshot().unwrap();
        let mut r = System::restore_snapshot(&snap).unwrap();
        assert_eq!(s.rate(v1).to_bits(), r.rate(v1).to_bits());
        assert_eq!(s.rate(v3).to_bits(), r.rate(v3).to_bits());

        // Future evolution must match bit-for-bit: add a variable to
        // both systems and compare every solved rate exactly.
        let n1 = s.new_variable(f64::INFINITY, &[ca, cb]);
        let n2 = r.new_variable(f64::INFINITY, &[ca, cb]);
        assert_eq!(n1, n2, "slab index reuse must match");
        let mut ch1 = Vec::new();
        let mut ch2 = Vec::new();
        s.solve_dirty(&mut ch1);
        r.solve_dirty(&mut ch2);
        for v in [v1, v3, n1] {
            assert_eq!(s.rate(v).to_bits(), r.rate(v).to_bits());
        }
    }

    /// Both fills subtract in ascending variable id, so the order of a
    /// constraint's variable list is not state: a snapshot restored
    /// with every list permuted solves to the same rate bits, in full
    /// and incremental solves, before and after the system changes.
    #[test]
    fn permuted_constraint_lists_restore_to_the_same_bits() {
        let mut s = System::new();
        let caps = [1.0 / 3.0, 0.7, 2.0 / 7.0, 1.1, 0.9];
        let c: Vec<CnstId> = caps.iter().map(|&cap| s.new_constraint(cap)).collect();
        let mut vars = Vec::new();
        for i in 0..14usize {
            let route = [c[i % 5], c[(i * 3 + 1) % 5], c[(i * 7 + 2) % 5]];
            let bound = if i % 4 == 0 { 0.05 + i as f64 / 97.0 } else { f64::INFINITY };
            vars.push(s.new_variable(bound, &route[..=i % 3]));
        }
        s.solve_dirty(&mut Vec::new());
        // Shape the layout: vacant slots, and lists out of id order.
        for v in [vars[3], vars[8], vars[0]] {
            s.remove_variable(v);
        }
        vars.push(s.new_variable(f64::INFINITY, &[c[2], c[4]]));
        s.solve_dirty(&mut Vec::new());

        let snap = s.export_snapshot().unwrap();
        let mut permuted = snap.clone();
        for (i, cn) in permuted.cnsts.iter_mut().flatten().enumerate() {
            cn.vars.reverse();
            let n = cn.vars.len();
            cn.vars.rotate_left(i % n.max(1));
        }
        assert_ne!(permuted, snap, "the lists must actually move");
        let mut a = System::restore_snapshot(&snap).unwrap();
        let mut b = System::restore_snapshot(&permuted).unwrap();
        let same = |a: &System, b: &System| {
            assert_eq!(a.vars.len(), b.vars.len());
            for (v, var) in a.vars.iter() {
                assert_eq!(var.value.to_bits(), b.rate(VarId(v)).to_bits(), "variable {v}");
            }
        };
        same(&a, &b);
        for sys in [&mut a, &mut b] {
            sys.remove_variable(vars[1]);
            sys.new_variable(f64::INFINITY, &[c[0], c[1], c[3]]);
            sys.solve_dirty(&mut Vec::new());
        }
        same(&a, &b);
        a.solve();
        b.solve();
        same(&a, &b);
    }

    #[test]
    fn snapshot_refuses_dirty_system() {
        let mut s = System::new();
        let c = s.new_constraint(10.0);
        s.new_variable(f64::INFINITY, &[c]);
        assert!(s.is_dirty());
        assert!(s.export_snapshot().is_err());
    }

    #[test]
    fn restore_rejects_dangling_references() {
        let snap = LmmSnapshot {
            cnsts: vec![Some(CnstSnap { capacity: 1.0, vars: vec![5] })],
            cnst_free: vec![],
            vars: vec![],
            var_free: vec![],
        };
        assert!(System::restore_snapshot(&snap).is_err());
        let snap = LmmSnapshot {
            cnsts: vec![],
            cnst_free: vec![],
            vars: vec![Some(VarSnap { bound: 1.0, cnsts: vec![3], value: 0.0 })],
            var_free: vec![],
        };
        assert!(System::restore_snapshot(&snap).is_err());
    }

    /// A clean two-constraint system: variable 0 crosses both
    /// constraints, variable 1 only constraint 0, variable 2 only
    /// constraint 1.
    fn small_snapshot() -> LmmSnapshot {
        let mut s = System::new();
        let a = s.new_constraint(10.0);
        let b = s.new_constraint(20.0);
        s.new_variable(f64::INFINITY, &[a, b]);
        s.new_variable(5.0, &[a]);
        s.new_variable(f64::INFINITY, &[b]);
        s.solve_dirty(&mut Vec::new());
        s.export_snapshot().unwrap()
    }

    #[test]
    fn restore_rejects_a_variable_listed_twice_by_one_constraint() {
        let mut snap = small_snapshot();
        snap.cnsts[0].as_mut().unwrap().vars.push(1);
        let err = System::restore_snapshot(&snap).unwrap_err();
        assert!(err.contains("constraint 0 lists variable 1 more often"), "{err}");

        // A route that crosses one constraint twice lists it twice on
        // both sides; that layout is consistent and restores.
        let mut s = System::new();
        let c = s.new_constraint(10.0);
        let v = s.new_variable(f64::INFINITY, &[c, c]);
        s.solve_dirty(&mut Vec::new());
        let mut r = System::restore_snapshot(&s.export_snapshot().unwrap()).unwrap();
        r.remove_variable(v);
        r.solve_dirty(&mut Vec::new());
        assert_eq!(r.vars.len(), 0);
    }

    #[test]
    fn restore_rejects_a_constraint_that_does_not_list_its_variable_back() {
        let mut snap = small_snapshot();
        snap.vars[1].as_mut().unwrap().cnsts.push(1);
        let err = System::restore_snapshot(&snap).unwrap_err();
        assert!(err.contains("variable 1 lists constraint 1 more often"), "{err}");
    }

    #[test]
    fn restore_rejects_non_positive_or_non_finite_capacities() {
        for capacity in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut snap = small_snapshot();
            snap.cnsts[1].as_mut().unwrap().capacity = capacity;
            let err = System::restore_snapshot(&snap).unwrap_err();
            assert!(err.contains("constraint 1 has capacity"), "{capacity}: {err}");
        }
    }

    // ------------------------------------------------------------------
    // Incremental solving

    #[test]
    fn solve_dirty_reports_changed_vars() {
        let mut s = System::new();
        let c = s.new_constraint(100.0);
        let v1 = s.new_variable(f64::INFINITY, &[c]);
        let mut changed = Vec::new();
        s.solve_dirty(&mut changed);
        assert_eq!(changed, vec![v1]);
        assert!(close(s.rate(v1), 100.0));

        changed.clear();
        let v2 = s.new_variable(f64::INFINITY, &[c]);
        s.solve_dirty(&mut changed);
        changed.sort_by_key(|v| v.0);
        assert_eq!(changed, vec![v1, v2]);
        assert!(close(s.rate(v1), 50.0));
        assert!(close(s.rate(v2), 50.0));

        // Nothing dirty: no changes reported.
        changed.clear();
        s.solve_dirty(&mut changed);
        assert!(changed.is_empty());
    }

    #[test]
    fn solve_dirty_leaves_other_islands_untouched() {
        let mut s = System::new();
        let ca = s.new_constraint(10.0);
        let cb = s.new_constraint(20.0);
        let va = s.new_variable(f64::INFINITY, &[ca]);
        let vb = s.new_variable(f64::INFINITY, &[cb]);
        let mut changed = Vec::new();
        s.solve_dirty(&mut changed);
        changed.clear();
        // Adding a second var on island A must not report island B.
        let va2 = s.new_variable(f64::INFINITY, &[ca]);
        s.solve_dirty(&mut changed);
        changed.sort_by_key(|v| v.0);
        assert_eq!(changed, vec![va, va2]);
        assert!(close(s.rate(vb), 20.0));
    }

    #[test]
    fn partial_solve_counters_account_for_skipped_constraints() {
        let mut s = System::new();
        let ca = s.new_constraint(10.0);
        let cb = s.new_constraint(20.0);
        s.new_variable(f64::INFINITY, &[ca]);
        s.new_variable(f64::INFINITY, &[cb]);
        let mut changed = Vec::new();
        s.solve_dirty(&mut changed); // both islands dirty: not partial
        changed.clear();
        s.new_variable(f64::INFINITY, &[ca]);
        s.solve_dirty(&mut changed); // only island A dirty: partial
        let st = s.stats();
        assert_eq!(st.solves, 2);
        assert_eq!(st.partial_solves, 1);
        assert_eq!(st.constraints_skipped, 1, "island B skipped once");
        assert_eq!(st.constraints_touched, 3);
    }

    #[test]
    fn incremental_matches_full_solve_bit_identically() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        for _ in 0..50 {
            let ncnst = rng.random_range(1..8usize);
            let mut inc = System::new();
            let cnsts: Vec<CnstId> =
                (0..ncnst).map(|_| inc.new_constraint(rng.random_range(1.0..100.0))).collect();
            let mut vars = Vec::new();
            let mut changed = Vec::new();
            // Interleave adds, removes and incremental solves.
            for _ in 0..30 {
                if !vars.is_empty() && rng.random_bool(0.3) {
                    let idx = rng.random_range(0..vars.len());
                    let v: VarId = vars.swap_remove(idx);
                    inc.remove_variable(v);
                } else {
                    let k = rng.random_range(0..=cnsts.len().min(3));
                    let mut cs = Vec::new();
                    for _ in 0..k {
                        let c = cnsts[rng.random_range(0..cnsts.len())];
                        if !cs.contains(&c) {
                            cs.push(c);
                        }
                    }
                    let bound = if rng.random_bool(0.5) {
                        f64::INFINITY
                    } else {
                        rng.random_range(0.1..50.0)
                    };
                    vars.push(inc.new_variable(bound, &cs));
                }
                if rng.random_bool(0.5) {
                    changed.clear();
                    inc.solve_dirty(&mut changed);
                }
            }
            changed.clear();
            inc.solve_dirty(&mut changed);
            // Full solve from the same state must agree bit-for-bit
            // (docs/KERNEL.md §2: canonical order + exact levels).
            let incremental: Vec<f64> = vars.iter().map(|&v| inc.rate(v)).collect();
            inc.solve();
            let full: Vec<f64> = vars.iter().map(|&v| inc.rate(v)).collect();
            for (a, b) in incremental.iter().zip(&full) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "incremental {a} vs full {b} (vars {})",
                    vars.len()
                );
            }
        }
    }

    /// Capacities and bounds from small integer sets, so that ratios and
    /// bounds tie exactly — the cases the mid-round ratio rule governs.
    const TIE_CAPS: [f64; 6] = [1.0, 2.0, 3.0, 4.0, 6.0, 12.0];
    const TIE_BOUNDS: [f64; 6] = [1.0, 2.0, 3.0, 4.0, f64::INFINITY, f64::INFINITY];

    /// Solves `inc` incrementally and `full` from scratch, then checks
    /// every rate bit for bit and that `changed` names exactly the
    /// variables whose rate moved.
    fn solve_both(inc: &mut System, full: &mut System, vars: &[VarId]) -> usize {
        let before: Vec<u64> = vars.iter().map(|&v| inc.rate(v).to_bits()).collect();
        let touched = inc.stats().vars_touched;
        let mut changed = Vec::new();
        inc.solve_dirty(&mut changed);
        full.solve();
        for &v in vars {
            assert_eq!(inc.rate(v).to_bits(), full.rate(v).to_bits(), "variable {}", v.0);
        }
        let mut moved: Vec<usize> = vars
            .iter()
            .zip(&before)
            .filter(|&(&v, &b)| inc.rate(v).to_bits() != b)
            .map(|(v, _)| v.0)
            .collect();
        let mut changed: Vec<usize> = changed.iter().map(|v| v.0).collect();
        moved.sort_unstable();
        changed.sort_unstable();
        assert_eq!(changed, moved, "changed list");
        (inc.stats().vars_touched - touched) as usize
    }

    /// Solves `fast` (trivial islands solved directly), `packed` (every
    /// island packed and filled) and `full` (the reference solve), then
    /// checks that the two incremental solves emit the same `changed`
    /// list in the same order and count the same, and that all three
    /// agree on every rate bit for bit.
    fn solve_three(fast: &mut System, packed: &mut System, full: &mut System, vars: &[VarId]) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fast.solve_dirty(&mut a);
        packed.solve_dirty_with(&mut b, false);
        full.solve();
        assert_eq!(a, b, "changed list, in emitted order");
        assert_eq!(fast.stats(), packed.stats());
        for &v in vars {
            let bits = fast.rate(v).to_bits();
            assert_eq!(bits, packed.rate(v).to_bits(), "variable {}", v.0);
            assert_eq!(bits, full.rate(v).to_bits(), "variable {}", v.0);
        }
    }

    proptest::proptest! {
        /// Solving trivial islands directly matches the packed fill bit
        /// for bit, in the `changed` order and in every counter, on
        /// systems of mostly small islands: routes of zero to two of up
        /// to sixteen constraints give free variables, lone variables,
        /// pairs sharing a NIC and, after removals, constraints no
        /// variable crosses. Adds and removes (whose slab ids are
        /// reused) come in batches, each ended by a solve.
        #[test]
        fn trivial_islands_match_the_packed_fill(
            caps in proptest::collection::vec(0..TIE_CAPS.len(), 4..17),
            ops in proptest::collection::vec(
                (
                    0u8..6,
                    proptest::bool::ANY,
                    proptest::collection::vec(0usize..16, 0..3),
                    0..TIE_BOUNDS.len(),
                    0usize..64,
                ),
                20..120,
            ),
        ) {
            let mut twins = [System::new(), System::new(), System::new()];
            let mut cnsts = Vec::new();
            for &k in &caps {
                let ids = twins.each_mut().map(|s| s.new_constraint(TIE_CAPS[k]));
                assert!(ids.iter().all(|&c| c == ids[0]));
                cnsts.push(ids[0]);
            }
            let mut vars: Vec<VarId> = Vec::new();
            for (op, solve, route, bound, pick) in ops {
                let live = vars.len();
                if live > 0 && (live >= 8 || op < 2) {
                    let v = vars.swap_remove(pick % live);
                    for s in &mut twins {
                        s.remove_variable(v);
                    }
                } else {
                    let mut cs: Vec<CnstId> = Vec::new();
                    for r in route {
                        let c = cnsts[r % cnsts.len()];
                        if !cs.contains(&c) {
                            cs.push(c);
                        }
                    }
                    let ids = twins.each_mut().map(|s| s.new_variable(TIE_BOUNDS[bound], &cs));
                    assert!(ids.iter().all(|&v| v == ids[0]));
                    vars.push(ids[0]);
                }
                if solve {
                    let [fast, packed, full] = &mut twins;
                    solve_three(fast, packed, full, &vars);
                }
            }
            let [fast, packed, full] = &mut twins;
            solve_three(fast, packed, full, &vars);
        }

        /// Incremental solves match the full solve bit for bit on big
        /// islands with exact ties: 20–60 live variables over at most
        /// ten constraints, routes of up to seven constraints (longer
        /// than [`INLINE_CNSTS`]), and interleaved adds, removes (whose
        /// slab ids are reused) and solves.
        #[test]
        fn incremental_matches_full_solve_on_tied_big_islands(
            caps in proptest::collection::vec(0..TIE_CAPS.len(), 3..11),
            ops in proptest::collection::vec(
                (
                    0u8..8,
                    proptest::collection::vec(0usize..10, 2..8),
                    0..TIE_BOUNDS.len(),
                    0usize..64,
                ),
                40..160,
            ),
        ) {
            let mut inc = System::new();
            let mut full = System::new();
            let mut cnsts = Vec::new();
            for &k in &caps {
                let c = inc.new_constraint(TIE_CAPS[k]);
                assert_eq!(c, full.new_constraint(TIE_CAPS[k]));
                cnsts.push(c);
            }
            let mut vars: Vec<VarId> = Vec::new();
            let mut biggest = 0;
            for (choice, route, bound, pick) in ops {
                let live = vars.len();
                if live >= 60 || (live >= 20 && choice < 2) {
                    let v = vars.swap_remove(pick % live);
                    inc.remove_variable(v);
                    full.remove_variable(v);
                } else {
                    let mut cs: Vec<CnstId> = Vec::new();
                    for r in route {
                        let c = cnsts[r % cnsts.len()];
                        if !cs.contains(&c) {
                            cs.push(c);
                        }
                    }
                    let v = inc.new_variable(TIE_BOUNDS[bound], &cs);
                    assert_eq!(v, full.new_variable(TIE_BOUNDS[bound], &cs));
                    vars.push(v);
                }
                if vars.len() >= 20 && choice >= 5 {
                    biggest = biggest.max(solve_both(&mut inc, &mut full, &vars));
                }
            }
            biggest = biggest.max(solve_both(&mut inc, &mut full, &vars));
            proptest::prop_assert!(biggest >= 20, "largest island solve touched {biggest} variables");
        }
    }
}
