//! The Weihl-style *program-wide* flow-insensitive baseline.
//!
//! The paper's introduction recalls that early pointer analyses
//! (\[Wei80\], \[Cou86\]) computed "a single, global mapping between
//! pointers and their potential referents", and that later work found
//! those approximations overly large. This module implements that
//! baseline over the VDG so the claim is measurable: one store set for
//! the whole program — every `update` feeds it, every `lookup` reads it,
//! and program-point distinctions vanish.
//!
//! Against this baseline the published context-sensitive comparisons
//! were made before Ruf's paper; reproducing it closes the loop on the
//! paper's "how much of the precision is program-point-specificity?"
//! question.

use crate::fingerprint::GraphIndex;
use crate::fxhash::{HashMap, HashSet};
use crate::pairset::{PairId, PairInterner, PairSet, Propagation};
use crate::path::{AccessOp, Pair, PathId, PathTable};
use crate::solver::SolverKind;
use crate::summary::{FuncFacts, FunctionSummary, ResumeStats, SolverSummaries};
use std::collections::VecDeque;
use vdg::graph::{Graph, InputId, NodeId, NodeKind, OutputId, VFuncId, ValueKind};

/// Result of the program-wide analysis.
#[derive(Debug, Clone)]
pub struct WeihlResult {
    /// The interned path universe.
    pub paths: PathTable,
    /// Per-output value pairs (for non-store outputs).
    values: Vec<Vec<Pair>>,
    /// The single global store relation.
    store: Vec<Pair>,
    /// Outputs of store kind (their pairs live in `store`).
    store_outputs: std::collections::HashSet<u32>,
    /// Discovered call edges, sorted per call site (for summaries).
    pub(crate) callees: HashMap<NodeId, Vec<VFuncId>>,
    /// Transfer-function applications.
    pub flow_ins: u64,
    /// Successful meets (emissions that grew a set); redundant attempts
    /// are counted in [`WeihlResult::dedup_hits`].
    pub flow_outs: u64,
    /// Emission attempts deduplicated by the committed sets.
    pub dedup_hits: u64,
    /// Batched delta deliveries (`None` under [`Propagation::Naive`]).
    pub delta_batches: Option<u64>,
}

impl WeihlResult {
    /// Value pairs on a (non-store) output.
    pub fn value_pairs(&self, o: OutputId) -> &[Pair] {
        &self.values[o.0 as usize]
    }

    /// The global store relation.
    pub fn store_pairs(&self) -> &[Pair] {
        &self.store
    }

    /// Distinct referents at a memory operation's location input —
    /// comparable with [`crate::ci::CiResult::loc_referents`].
    pub fn loc_referents(&self, graph: &Graph, node: NodeId) -> Vec<PathId> {
        let loc_out = graph.input_src(node, 0);
        let mut refs: Vec<PathId> = self
            .value_pairs(loc_out)
            .iter()
            .map(|p| p.referent)
            .collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    /// Total pairs: global store plus all value sets (for table output).
    pub fn total_pairs(&self) -> usize {
        self.store.len() + self.values.iter().map(|v| v.len()).sum::<usize>()
    }
}

/// Runs the program-wide analysis: flow-insensitive in the store, so no
/// strong updates are possible, and every store-typed output denotes the
/// same relation.
pub fn analyze_weihl(graph: &Graph) -> WeihlResult {
    analyze_weihl_from(graph, PathTable::for_graph(graph))
}

/// Like [`analyze_weihl_from`], with an explicit propagation discipline.
pub fn analyze_weihl_with(
    graph: &Graph,
    paths: PathTable,
    propagation: Propagation,
) -> WeihlResult {
    let mut s = Weihl {
        g: graph,
        paths,
        propagation,
        interner: PairInterner::new(),
        values: vec![PairSet::new(); graph.output_count()],
        store: PairSet::new(),
        naive_wl: VecDeque::new(),
        out_wl: VecDeque::new(),
        queued: vec![false; graph.output_count()],
        store_queued: false,
        store_consumers: Vec::new(),
        callees: HashMap::default(),
        callers: HashMap::default(),
        flow_ins: 0,
        flow_outs: 0,
        dedup_hits: 0,
        delta_batches: 0,
    };
    s.collect_store_consumers();
    s.seed();
    s.run();
    s.finish()
}

/// Like [`analyze_weihl`], but starting from an existing path table so
/// that the resulting [`Pair`]s are id-comparable with another solver's
/// (e.g. pass a clone of [`crate::ci::CiResult::paths`]).
pub fn analyze_weihl_from(graph: &Graph, paths: PathTable) -> WeihlResult {
    analyze_weihl_with(graph, paths, Propagation::default())
}

enum Item {
    Value(InputId, PairId),
    Store(PairId),
}

/// Delta-worklist sentinel for "the global store has a pending delta".
const STORE_SLOT: u32 = u32::MAX;

struct Weihl<'g> {
    g: &'g Graph,
    paths: PathTable,
    propagation: Propagation,
    interner: PairInterner,
    values: Vec<PairSet>,
    store: PairSet,
    /// Naive-mode worklist: single-pair deliveries.
    naive_wl: VecDeque<Item>,
    /// Delta-mode worklist: outputs (or [`STORE_SLOT`]) with a delta.
    out_wl: VecDeque<u32>,
    queued: Vec<bool>,
    store_queued: bool,
    /// Nodes that react to new global-store pairs (lookups and copymem).
    store_consumers: Vec<NodeId>,
    callees: HashMap<NodeId, Vec<VFuncId>>,
    callers: HashMap<VFuncId, Vec<NodeId>>,
    flow_ins: u64,
    flow_outs: u64,
    dedup_hits: u64,
    delta_batches: u64,
}

impl<'g> Weihl<'g> {
    fn collect_store_consumers(&mut self) {
        for (id, n) in self.g.nodes() {
            if matches!(n.kind, NodeKind::Lookup { .. } | NodeKind::CopyMem) {
                self.store_consumers.push(id);
            }
        }
    }

    fn seed(&mut self) {
        let mut seeds = Vec::new();
        for (id, n) in self.g.nodes() {
            let base = match n.kind {
                NodeKind::Base(b) | NodeKind::Alloc(b) | NodeKind::FuncConst(b) => b,
                _ => continue,
            };
            let root = self.paths.base_root(base);
            seeds.push((
                self.g.node(id).outputs[0],
                Pair::new(PathTable::EMPTY, root),
            ));
        }
        for (o, p) in seeds {
            self.emit_value(o, p);
        }
    }

    fn emit_value(&mut self, out: OutputId, pair: Pair) {
        // Store-typed outputs all denote the global store.
        if matches!(self.g.output(out).kind, vdg::graph::ValueKind::Store) {
            self.emit_store(pair);
            return;
        }
        let id = self.interner.intern(pair);
        let o = out.0 as usize;
        if self.values[o].insert(id) {
            self.flow_outs += 1;
            match self.propagation {
                Propagation::Naive => {
                    self.values[o].take_delta();
                    for &i in self.g.consumers(out) {
                        self.naive_wl.push_back(Item::Value(i, id));
                    }
                }
                Propagation::Delta => {
                    if !self.queued[o] && !self.g.consumers(out).is_empty() {
                        self.queued[o] = true;
                        self.out_wl.push_back(out.0);
                    }
                }
            }
        } else {
            self.dedup_hits += 1;
        }
    }

    fn emit_store(&mut self, pair: Pair) {
        let id = self.interner.intern(pair);
        if self.store.insert(id) {
            self.flow_outs += 1;
            match self.propagation {
                Propagation::Naive => {
                    self.store.take_delta();
                    self.naive_wl.push_back(Item::Store(id));
                }
                Propagation::Delta => {
                    if !self.store_queued {
                        self.store_queued = true;
                        self.out_wl.push_back(STORE_SLOT);
                    }
                }
            }
        } else {
            self.dedup_hits += 1;
        }
    }

    fn run(&mut self) {
        match self.propagation {
            Propagation::Naive => self.run_naive(),
            Propagation::Delta => self.run_delta(),
        }
    }

    fn run_naive(&mut self) {
        while let Some(item) = self.naive_wl.pop_front() {
            self.flow_ins += 1;
            match item {
                Item::Value(input, id) => {
                    let pair = self.interner.resolve(id);
                    let info = self.g.input(input);
                    self.transfer_value(info.node, info.port as usize, pair);
                }
                Item::Store(id) => {
                    let pair = self.interner.resolve(id);
                    // Every lookup/copymem in the program may observe it.
                    for i in 0..self.store_consumers.len() {
                        self.flow_ins += 1;
                        self.transfer_store(self.store_consumers[i], pair);
                    }
                }
            }
        }
    }

    fn run_delta(&mut self) {
        while let Some(slot) = self.out_wl.pop_front() {
            if slot == STORE_SLOT {
                self.store_queued = false;
                let batch = self.store.take_delta();
                // One flow-in per pair pop, as in the naive discipline...
                self.flow_ins += batch.len() as u64;
                for i in 0..self.store_consumers.len() {
                    // ...plus one per (pair, store consumer) re-examination.
                    self.delta_batches += 1;
                    for &id in &batch {
                        self.flow_ins += 1;
                        let pair = self.interner.resolve(PairId(id));
                        self.transfer_store(self.store_consumers[i], pair);
                    }
                }
                self.store.recycle(batch);
            } else {
                let o = slot as usize;
                self.queued[o] = false;
                let batch = self.values[o].take_delta();
                let g = self.g;
                for &input in g.consumers(OutputId(slot)) {
                    self.delta_batches += 1;
                    let info = g.input(input);
                    let (node, port) = (info.node, info.port as usize);
                    for &id in &batch {
                        self.flow_ins += 1;
                        let pair = self.interner.resolve(PairId(id));
                        self.transfer_value(node, port, pair);
                    }
                }
                self.values[o].recycle(batch);
            }
        }
    }

    fn values_at(&self, node: NodeId, port: usize) -> Vec<Pair> {
        let src = self.g.input_src(node, port);
        self.values[src.0 as usize]
            .iter()
            .map(|id| self.interner.resolve(id))
            .collect()
    }

    fn store_snapshot(&self) -> Vec<Pair> {
        self.store
            .iter()
            .map(|id| self.interner.resolve(id))
            .collect()
    }

    fn transfer_value(&mut self, node: NodeId, port: usize, pair: Pair) {
        let g = self.g;
        let n = g.node(node);
        let outs = &n.outputs;
        let mut em: Vec<(OutputId, Pair)> = Vec::new();
        let mut st: Vec<Pair> = Vec::new();
        match &n.kind {
            NodeKind::Member(f) => {
                let r = self.paths.child(pair.referent, AccessOp::Field(*f));
                em.push((outs[0], Pair::new(pair.path, r)));
            }
            NodeKind::IndexElem => {
                let r = self.paths.child(pair.referent, AccessOp::Index);
                em.push((outs[0], Pair::new(pair.path, r)));
            }
            NodeKind::ExtractField(f) => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Field(*f)) {
                    em.push((outs[0], Pair::new(p, pair.referent)));
                }
            }
            NodeKind::ExtractElem => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Index) {
                    em.push((outs[0], Pair::new(p, pair.referent)));
                }
            }
            NodeKind::PassThrough if port == 0 => {
                em.push((outs[0], pair));
            }
            NodeKind::Gamma => em.push((outs[0], pair)),
            NodeKind::Lookup { .. } if port == 0 => {
                // New location: read the global store.
                let store = self.store_snapshot();
                for sp in store {
                    if self.paths.dom(pair.referent, sp.path) {
                        let off = self.paths.subtract(sp.path, pair.referent);
                        let p = self.paths.append(pair.path, off);
                        em.push((outs[0], Pair::new(p, sp.referent)));
                    }
                }
            }
            // Store arrivals are handled by `transfer_store`.
            NodeKind::Update { .. } => match port {
                0 => {
                    for vp in self.values_at(node, 2) {
                        let path = self.paths.append(pair.referent, vp.path);
                        st.push(Pair::new(path, vp.referent));
                    }
                }
                2 => {
                    for lp in self.values_at(node, 0) {
                        let path = self.paths.append(lp.referent, pair.path);
                        st.push(Pair::new(path, pair.referent));
                    }
                }
                _ => {}
            },
            NodeKind::CopyMem if (port == 1 || port == 2) => {
                let dsts = self.values_at(node, 1);
                let srcs = self.values_at(node, 2);
                let store = self.store_snapshot();
                for sp in store {
                    for s in &srcs {
                        if self.paths.dom(s.referent, sp.path) {
                            let off = self.paths.subtract(sp.path, s.referent);
                            for d in &dsts {
                                let path = self.paths.append(d.referent, off);
                                st.push(Pair::new(path, sp.referent));
                            }
                        }
                    }
                }
            }
            NodeKind::Call => {
                if port == 0 {
                    if let Some(f) = self.paths.func_of(pair.referent) {
                        self.register_callee(node, f, &mut em);
                    }
                } else if port >= 2 {
                    if let Some(callees) = self.callees.get(&node) {
                        for &f in callees {
                            forward_to_formal(g, port, pair, f, &mut em);
                        }
                    }
                }
            }
            NodeKind::Return { func } if port == 1 => {
                if let Some(callers) = self.callers.get(func) {
                    for &call in callers {
                        let outs = &g.node(call).outputs;
                        if outs.len() > 1 {
                            em.push((outs[1], pair));
                        }
                    }
                }
            }
            _ => {}
        }
        for (o, p) in em {
            self.emit_value(o, p);
        }
        for p in st {
            self.emit_store(p);
        }
    }

    /// A new pair entered the global store: rerun the store side of every
    /// lookup/copymem. (The caller counts the flow-in.)
    fn transfer_store(&mut self, node: NodeId, pair: Pair) {
        let n = self.g.node(node);
        let outs = &n.outputs;
        let mut em: Vec<(OutputId, Pair)> = Vec::new();
        let mut st: Vec<Pair> = Vec::new();
        match &n.kind {
            NodeKind::Lookup { .. } => {
                for lp in self.values_at(node, 0) {
                    if self.paths.dom(lp.referent, pair.path) {
                        let off = self.paths.subtract(pair.path, lp.referent);
                        let p = self.paths.append(lp.path, off);
                        em.push((outs[0], Pair::new(p, pair.referent)));
                    }
                }
            }
            NodeKind::CopyMem => {
                let dsts = self.values_at(node, 1);
                for s in self.values_at(node, 2) {
                    if self.paths.dom(s.referent, pair.path) {
                        let off = self.paths.subtract(pair.path, s.referent);
                        for d in &dsts {
                            let path = self.paths.append(d.referent, off);
                            st.push(Pair::new(path, pair.referent));
                        }
                    }
                }
            }
            _ => {}
        }
        for (o, p) in em {
            self.emit_value(o, p);
        }
        for p in st {
            self.emit_store(p);
        }
    }

    fn register_callee(&mut self, call: NodeId, f: VFuncId, em: &mut Vec<(OutputId, Pair)>) {
        let list = self.callees.entry(call).or_default();
        if list.contains(&f) {
            return;
        }
        list.push(f);
        self.callers.entry(f).or_default().push(call);
        let g = self.g;
        let n_inputs = g.node(call).inputs.len();
        for port in 2..n_inputs {
            for pair in self.values_at(call, port) {
                forward_to_formal(g, port, pair, f, em);
            }
        }
        for &ret in &g.func(f).returns {
            if g.has_input(ret, 1) {
                for pair in self.values_at(ret, 1) {
                    let outs = &g.node(call).outputs;
                    if outs.len() > 1 {
                        em.push((outs[1], pair));
                    }
                }
            }
        }
    }

    /// Resume boundary delivery: re-runs the transfer function of
    /// `node`'s `port` for every committed (seeded) pair at the feeding
    /// output, skipping in-cone sources (their pairs arrive through the
    /// live worklist when recomputed).
    fn deliver_committed(&mut self, node: NodeId, port: usize, in_cone: &[bool]) {
        if port >= self.g.node(node).inputs.len() {
            return;
        }
        let src = self.g.input_src(node, port);
        if in_cone[src.0 as usize] {
            return;
        }
        let pairs: Vec<Pair> = self.values[src.0 as usize]
            .iter()
            .map(|id| self.interner.resolve(id))
            .collect();
        for p in pairs {
            self.flow_ins += 1;
            self.transfer_value(node, port, p);
        }
    }

    fn finish(self) -> WeihlResult {
        let store_outputs = self
            .g
            .output_ids()
            .filter(|o| matches!(self.g.output(*o).kind, vdg::graph::ValueKind::Store))
            .map(|o| o.0)
            .collect();
        let it = &self.interner;
        let values = self
            .values
            .iter()
            .map(|s| {
                let mut v: Vec<Pair> = s.iter().map(|id| it.resolve(id)).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut store: Vec<Pair> = self.store.iter().map(|id| it.resolve(id)).collect();
        store.sort_unstable();
        let mut callees = self.callees;
        for v in callees.values_mut() {
            v.sort_unstable_by_key(|f| f.0);
        }
        WeihlResult {
            paths: self.paths,
            values,
            store,
            store_outputs,
            callees,
            flow_ins: self.flow_ins,
            flow_outs: self.flow_outs,
            dedup_hits: self.dedup_hits,
            delta_batches: match self.propagation {
                Propagation::Naive => None,
                Propagation::Delta => Some(self.delta_batches),
            },
        }
    }
}

/// Pairs arriving at a call's actual-argument port flow to the matching
/// formal of callee `f`.
fn forward_to_formal(
    g: &Graph,
    port: usize,
    pair: Pair,
    f: VFuncId,
    em: &mut Vec<(OutputId, Pair)>,
) {
    let entry = g.func(f).entry;
    let formals = &g.node(entry).outputs;
    let idx = port - 1;
    if idx < formals.len() {
        em.push((formals[idx], pair));
    }
}

impl crate::stats::PointsToSolution for WeihlResult {
    fn pairs_at(&self, o: OutputId) -> &[Pair] {
        if self.store_kind_probe(o) {
            &self.store
        } else {
            self.value_pairs(o)
        }
    }
    fn path_table(&self) -> &PathTable {
        &self.paths
    }
}

impl WeihlResult {
    /// Whether `o` was treated as a store output (its per-output value
    /// set stayed empty and pairs were routed to the global store).
    /// Recorded at solve time to keep the trait impl graph-free.
    fn store_kind_probe(&self, o: OutputId) -> bool {
        self.store_outputs.contains(&o.0)
    }
}

/// Checks per-output containment: the program-point-specific CI solution
/// must be within the program-wide one (on value outputs; the global
/// store must contain every CI store pair).
pub fn ci_subset_of_weihl(graph: &Graph, ci: &crate::ci::CiResult, w: &WeihlResult) -> bool {
    let store: HashSet<Pair> = w.store_pairs().iter().copied().collect();
    for o in graph.output_ids() {
        if matches!(graph.output(o).kind, vdg::graph::ValueKind::Store) {
            for p in ci.pairs(o) {
                if !store.contains(p) {
                    return false;
                }
            }
        } else {
            let ws: HashSet<Pair> = w.value_pairs(o).iter().copied().collect();
            for p in ci.pairs(o) {
                if !ws.contains(p) {
                    return false;
                }
            }
        }
    }
    true
}

/// Extracts function `f`'s Weihl summary: committed value pairs per
/// output offset (store-typed outputs get an empty row — their facts
/// live in the program-wide store relation on the container) plus the
/// discovered call edges.
pub(crate) fn extract_func(
    w: &WeihlResult,
    graph: &Graph,
    index: &GraphIndex,
    f: VFuncId,
) -> Option<FunctionSummary> {
    let fi = f.0 as usize;
    let (os, oe) = (index.out_start[fi], index.out_end[fi]);
    let mut outputs = Vec::with_capacity((oe - os) as usize);
    for o in os..oe {
        let o = OutputId(o);
        if matches!(graph.output(o).kind, ValueKind::Store) {
            outputs.push(Vec::new());
            continue;
        }
        let mut pairs = Vec::new();
        for &pr in w.value_pairs(o) {
            pairs.push(crate::fingerprint::stable_pair(&w.paths, graph, index, pr)?);
        }
        outputs.push(pairs);
    }
    Some(FunctionSummary {
        fingerprint: index.func_fps[fi],
        calls: crate::fingerprint::stable_calls(graph, index, f, &w.callees),
        facts: FuncFacts::Weihl(outputs),
    })
}

/// Renders the program-wide store relation in stable vocabulary.
pub(crate) fn extract_store(
    w: &WeihlResult,
    graph: &Graph,
    index: &GraphIndex,
) -> Option<Vec<crate::fingerprint::StablePair>> {
    w.store_pairs()
        .iter()
        .map(|&pr| crate::fingerprint::stable_pair(&w.paths, graph, index, pr))
        .collect()
}

/// Seeded resume of the program-wide analysis.
///
/// Two regimes. When every function replays clean and none was deleted,
/// the store relation is provably unchanged: install every value set,
/// the store, and all call edges as silent seeds — the worklist starts
/// and stays empty (pure replay). Otherwise the single global store is
/// *dirty* — flow-insensitivity means any edit can grow or shrink it —
/// so it is rebuilt from scratch: every `Lookup` result joins the dirty
/// cone as a root (its value reads the store), value facts outside the
/// cone are seeded, and boundary deliveries re-fire the transfer
/// functions that feed the store (`Update` contributions cross seeded
/// location and value sets; `Lookup`/`CopyMem` re-derive through the
/// store-consumer rule as every store pair re-enters). Iterating from
/// this subset of the previous fixpoint converges to exactly the fresh
/// fixpoint: Weihl's per-node emissions are monotone in the committed
/// sets and a subset of the CI closure's, so the value-space cone
/// computed under the CI rules over-approximates every path a change
/// can take.
pub(crate) fn analyze_weihl_resume(
    graph: &Graph,
    index: &GraphIndex,
    prev: &SolverSummaries,
    paths: PathTable,
    propagation: Propagation,
) -> Option<(WeihlResult, ResumeStats)> {
    use crate::fingerprint::{compute_cone_for, intern_stable, plan_base, ConeVocab, PlanBase};
    if prev.vocab != SolverKind::Weihl {
        return None;
    }
    let mut paths = paths;
    let base = plan_base(graph, index, prev, |f, summary| {
        let fi = f.0 as usize;
        let want = (index.out_end[fi] - index.out_start[fi]) as usize;
        let FuncFacts::Weihl(rows) = &summary.facts else {
            return None;
        };
        if rows.len() != want {
            return None;
        }
        let mut outs = Vec::with_capacity(want);
        for pairs in rows {
            let mut v = Vec::with_capacity(pairs.len());
            for sp in pairs {
                let a = intern_stable(graph, index, &mut paths, &sp.path)?;
                let b = intern_stable(graph, index, &mut paths, &sp.referent)?;
                v.push(Pair::new(a, b));
            }
            outs.push(v);
        }
        Some(outs)
    })?;
    let PlanBase {
        translated,
        dirty,
        prev_edges,
        lost_callees,
    } = base;

    let deleted = prev
        .funcs
        .keys()
        .any(|n| !index.func_by_name.contains_key(n));
    let mut store_dirty = !dirty.is_empty() || deleted;
    let mut store_seed: Vec<Pair> = Vec::new();
    if !store_dirty {
        for sp in &prev.store {
            match (
                intern_stable(graph, index, &mut paths, &sp.path),
                intern_stable(graph, index, &mut paths, &sp.referent),
            ) {
                (Some(a), Some(b)) => store_seed.push(Pair::new(a, b)),
                _ => {
                    store_dirty = true;
                    store_seed.clear();
                    break;
                }
            }
        }
    }

    // Value-space cone; a dirty store additionally invalidates every
    // Lookup result, which reads the store.
    let mut extra: Vec<OutputId> = Vec::new();
    if store_dirty {
        for (_, n) in graph.nodes() {
            if matches!(n.kind, NodeKind::Lookup { .. }) {
                extra.push(n.outputs[0]);
            }
        }
    }
    let in_cone = compute_cone_for(
        graph,
        index,
        &dirty,
        &prev_edges,
        &lost_callees,
        ConeVocab::Ci,
        &extra,
    );

    let mut s = Weihl {
        g: graph,
        paths,
        propagation,
        interner: PairInterner::new(),
        values: vec![PairSet::new(); graph.output_count()],
        store: PairSet::new(),
        naive_wl: VecDeque::new(),
        out_wl: VecDeque::new(),
        queued: vec![false; graph.output_count()],
        store_queued: false,
        store_consumers: Vec::new(),
        callees: HashMap::default(),
        callers: HashMap::default(),
        flow_ins: 0,
        flow_outs: 0,
        dedup_hits: 0,
        delta_batches: 0,
    };
    s.collect_store_consumers();

    // 1. Install out-of-cone value facts as silent seeds.
    let mut seeded_outputs = 0;
    for (&f, outs) in &translated {
        let os = index.out_start[f.0 as usize];
        for (i, pairs) in outs.iter().enumerate() {
            let o = (os + i as u32) as usize;
            if in_cone[o] {
                continue;
            }
            for &p in pairs {
                let id = s.interner.intern(p);
                s.values[o].insert(id);
            }
            let d = s.values[o].take_delta();
            s.values[o].recycle(d);
            seeded_outputs += 1;
        }
    }
    if !store_dirty {
        for p in store_seed {
            let id = s.interner.intern(p);
            s.store.insert(id);
        }
        let d = s.store.take_delta();
        s.store.recycle(d);
    }

    // 2. Install call edges whose function input is out-of-cone.
    let mut call_edges: HashMap<NodeId, Vec<VFuncId>> = HashMap::default();
    for (n, callees) in &prev_edges {
        let src = graph.input_src(*n, 0);
        if !in_cone[src.0 as usize] {
            call_edges.insert(*n, callees.clone());
        }
    }
    for (&call, callees) in &call_edges {
        for &f in callees {
            s.callees.entry(call).or_default().push(f);
            s.callers.entry(f).or_default().push(call);
        }
    }

    // 3. Constants dedup against the seeds; in-cone ones queue.
    s.seed();

    // 4. Boundary deliveries (only the dirty-store regime has a
    //    non-empty cone to feed).
    if store_dirty {
        for (id, n) in graph.nodes() {
            match &n.kind {
                NodeKind::Member(_)
                | NodeKind::IndexElem
                | NodeKind::ExtractField(_)
                | NodeKind::ExtractElem
                | NodeKind::Gamma
                    if n.outputs.iter().any(|o| in_cone[o.0 as usize]) =>
                {
                    for port in 0..n.inputs.len() {
                        s.deliver_committed(id, port, &in_cone);
                    }
                }
                NodeKind::PassThrough if n.outputs.iter().any(|o| in_cone[o.0 as usize]) => {
                    s.deliver_committed(id, 0, &in_cone);
                }
                // The store is rebuilt from scratch: every Update
                // re-derives its contribution from the committed
                // location and value sets. Lookup and CopyMem need no
                // value-side deliveries — each store pair re-enters the
                // empty store and re-fires the store-consumer rule
                // against the committed sets.
                NodeKind::Update { .. } => {
                    s.deliver_committed(id, 0, &in_cone);
                    s.deliver_committed(id, 2, &in_cone);
                }
                _ => {}
            }
        }
        let mut ret_needed: HashSet<VFuncId> = HashSet::default();
        for (&call, callees) in &call_edges {
            let n = graph.node(call);
            let formals_in_cone = callees.iter().any(|&f| {
                graph
                    .node(graph.func(f).entry)
                    .outputs
                    .iter()
                    .any(|o| in_cone[o.0 as usize])
            });
            if formals_in_cone {
                for port in 2..n.inputs.len() {
                    s.deliver_committed(call, port, &in_cone);
                }
            }
            if n.outputs.len() > 1 && in_cone[n.outputs[1].0 as usize] {
                for &f in callees {
                    ret_needed.insert(f);
                }
            }
        }
        for f in ret_needed {
            for &ret in &graph.func(f).returns {
                if graph.has_input(ret, 1) {
                    s.deliver_committed(ret, 1, &in_cone);
                }
            }
        }
    }

    s.run();
    let mut dirty_names: Vec<String> = dirty.iter().map(|f| graph.func(*f).name.clone()).collect();
    dirty_names.sort_unstable();
    let stats = ResumeStats {
        clean: graph.func_count() - dirty.len(),
        dirty: dirty_names,
        cone_outputs: in_cone.iter().filter(|&&b| b).count(),
        seeded_outputs,
        total_outputs: graph.output_count(),
    };
    Some((s.finish(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig};
    use vdg::build::{lower, BuildOptions};

    fn pipeline(src: &str) -> (Graph, crate::ci::CiResult, WeihlResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        // Share the CI path table so pairs are id-comparable.
        let w = analyze_weihl_from(&g, ci.paths.clone());
        (g, ci, w)
    }

    #[test]
    fn simple_pointer_resolves() {
        let (g, _, w) = pipeline("int g; int main(void) { int *p; p = &g; return *p; }");
        let (node, _) = g.indirect_mem_ops()[0];
        let refs = w.loc_referents(&g, node);
        assert_eq!(refs.len(), 1);
        assert_eq!(w.paths.display(refs[0], &g), "g");
    }

    #[test]
    fn ci_is_contained_in_weihl() {
        let (g, ci, w) = pipeline(
            "int a; int b; int *p;\n\
             int main(void) { int **q; q = &p; p = &a; *q = &b; return *p; }",
        );
        assert!(ci_subset_of_weihl(&g, &ci, &w));
    }

    #[test]
    fn program_wide_store_loses_point_specificity() {
        // Two phases through a strongly-updateable global: CI separates
        // them; the program-wide store cannot.
        let (g, ci, w) = pipeline(
            "int a; int b; int *p;\n\
             int main(void) { int x; p = &a; x = *p; p = &b; return *p + x; }",
        );
        let reads: Vec<_> = g
            .indirect_mem_ops()
            .into_iter()
            .filter(|&(_, wr)| !wr)
            .collect();
        assert_eq!(reads.len(), 2);
        for (node, _) in reads {
            assert_eq!(ci.loc_referents(&g, node).len(), 1, "CI separates phases");
            assert_eq!(w.loc_referents(&g, node).len(), 2, "Weihl merges phases");
        }
    }

    #[test]
    fn interprocedural_flow_works() {
        let (g, _, w) = pipeline(
            "int g;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *q; q = id(&g); return *q; }",
        );
        let (node, _) = g.indirect_mem_ops()[0];
        assert_eq!(w.loc_referents(&g, node).len(), 1);
    }

    #[test]
    fn heap_and_fields_still_distinct() {
        // Program-wideness removes point-specificity, not path precision.
        let (g, _, w) = pipeline(
            "struct s { int *x; int *y; };\n\
             int a; int b;\n\
             int main(void) { struct s v; int *r; v.x = &a; v.y = &b; \
             r = v.x; return *r; }",
        );
        let reads: Vec<_> = g
            .indirect_mem_ops()
            .into_iter()
            .filter(|&(_, wr)| !wr)
            .collect();
        let refs = w.loc_referents(&g, reads[0].0);
        assert_eq!(refs.len(), 1);
        assert_eq!(w.paths.display(refs[0], &g), "a");
    }

    #[test]
    fn counters_and_totals_populate() {
        // `gp` is a global, so the assignment is a real store write.
        let (g, _, w) = pipeline("int g; int *gp; int main(void) { gp = &g; return *gp; }");
        assert!(w.flow_ins > 0);
        assert!(w.total_pairs() > 0);
        assert_eq!(w.store_pairs().len(), 1);
        let pair = w.store_pairs()[0];
        assert_eq!(w.paths.display(pair.path, &g), "gp");
        assert_eq!(w.paths.display(pair.referent, &g), "g");
    }
}
