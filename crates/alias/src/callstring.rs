//! A k=1 *call-string* context-sensitive baseline.
//!
//! The paper (§4.1) contrasts two ways to make an analysis
//! context-sensitive: tagging dataflow facts with an abstraction of the
//! call stack (Cooper; Choi, Burke & Carini) versus the assumption sets
//! it adopts. This module implements the call-stack flavor at depth
//! k = 1: every points-to fact is qualified by the immediate call site
//! of the procedure it lives in, return values flow only to their
//! originating site, and deeper context is merged — the "k-limiting"
//! Deutsch's PLDI 1994 title pushes beyond.
//!
//! Precision relative to the paper's two analyses:
//!
//! ```text
//! CI (Fig. 1) ⊒ k=1 call-strings
//! ```
//!
//! and at *call results* the assumption-set analysis is at least as
//! precise as k=1 (it tracks arbitrarily deep context; see the
//! two-level wrapper test below, where k=1 merges and assumption sets
//! do not). The full stripped per-output solutions of the two
//! context-sensitive analyses are, however, formally incomparable: the
//! assumption-set analysis chains pairs that arrived from *different*
//! contexts through a procedure's lookups and updates — qualifying the
//! result with an assumption set no single call site satisfies — while
//! the call-string partition never combines them in the first place.
//! Such unsatisfiably-qualified pairs survive stripping inside the
//! procedure even though they are filtered at every return.

use crate::fingerprint::{intern_pairs, GraphIndex};
use crate::fxhash::{HashMap, HashSet};
use crate::pairset::{PairId, PairInterner, PairSet, Propagation};
use crate::path::{AccessOp, Pair, PathId, PathTable};
use crate::resume::{plan_base, ConeVocab};
use crate::summary::{FuncFacts, FunctionSummary, ResumeStats, SolverSummaries, StableCtx};
use std::collections::VecDeque;
use vdg::graph::{Graph, InputId, NodeId, NodeKind, OutputId, VFuncId};

/// A length-1 call string: the immediate call site, or the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ctx(u32);

impl Ctx {
    const ROOT: Ctx = Ctx(0);

    fn of_call(call: NodeId) -> Ctx {
        Ctx(call.0 + 1)
    }
}

/// Per-output `context -> pairs` map. An output sees only the k=1
/// contexts of its owner's call sites — a handful — so a linear-scan
/// vector beats a hash map on the `flow_out` fast path.
#[derive(Debug, Clone, Default)]
struct CtxSlots(Vec<(Ctx, PairSet)>);

impl CtxSlots {
    fn get(&self, ctx: Ctx) -> Option<&PairSet> {
        self.0.iter().find(|(c, _)| *c == ctx).map(|(_, s)| s)
    }

    fn get_mut(&mut self, ctx: Ctx) -> Option<&mut PairSet> {
        self.0.iter_mut().find(|(c, _)| *c == ctx).map(|(_, s)| s)
    }

    /// Find-or-insert the set for `ctx`.
    fn slot(&mut self, ctx: Ctx) -> &mut PairSet {
        match self.0.iter().position(|(c, _)| *c == ctx) {
            Some(i) => &mut self.0[i].1,
            None => {
                self.0.push((ctx, PairSet::default()));
                &mut self.0.last_mut().expect("just pushed").1
            }
        }
    }

    fn iter(&self) -> std::slice::Iter<'_, (Ctx, PairSet)> {
        self.0.iter()
    }
}

/// Configuration (the step budget mirrors the CS solver's).
#[derive(Debug, Clone)]
pub struct CallStringConfig {
    /// Perform strong updates (as the paper's solvers do).
    pub strong_updates: bool,
    /// Abort after this many transfer applications.
    pub max_steps: u64,
    /// Propagation discipline (results are discipline-independent).
    pub propagation: Propagation,
}

impl Default for CallStringConfig {
    fn default() -> Self {
        CallStringConfig {
            strong_updates: true,
            max_steps: 200_000_000,
            propagation: Propagation::Delta,
        }
    }
}

/// Result of the k=1 analysis, stripped of contexts.
#[derive(Debug, Clone)]
pub struct CallStringResult {
    /// The interned path universe.
    pub paths: PathTable,
    stripped: Vec<Vec<Pair>>,
    /// Per output: each context's committed pairs, pairs sorted within a
    /// context. Kept because the stripped view loses exactly what the
    /// summary vocabulary has to preserve.
    per_ctx: Vec<Vec<(Ctx, Vec<Pair>)>>,
    /// Discovered call edges, sorted per call site (for summaries).
    pub(crate) callees: HashMap<NodeId, Vec<VFuncId>>,
    /// Transfer-function applications.
    pub flow_ins: u64,
    /// Successful meets; redundant emission attempts are counted in
    /// [`CallStringResult::dedup_hits`].
    pub flow_outs: u64,
    /// Emission attempts deduplicated by the committed sets.
    pub dedup_hits: u64,
    /// Batched delta deliveries (`None` under [`Propagation::Naive`]).
    pub delta_batches: Option<u64>,
    /// Number of (function, context) pairs analyzed.
    pub contexts: usize,
}

impl CallStringResult {
    /// The context-stripped pairs on an output, sorted.
    pub fn pairs(&self, o: OutputId) -> &[Pair] {
        &self.stripped[o.0 as usize]
    }

    /// Total stripped pairs.
    pub fn total_pairs(&self) -> usize {
        self.stripped.iter().map(|p| p.len()).sum()
    }

    /// Distinct referents at a memory operation's location input.
    pub fn loc_referents(&self, graph: &Graph, node: NodeId) -> Vec<PathId> {
        let loc_out = graph.input_src(node, 0);
        let mut refs: Vec<PathId> = self.pairs(loc_out).iter().map(|p| p.referent).collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }
}

impl crate::stats::PointsToSolution for CallStringResult {
    fn pairs_at(&self, o: OutputId) -> &[Pair] {
        self.pairs(o)
    }
    fn path_table(&self) -> &PathTable {
        &self.paths
    }
}

/// Runs the k=1 call-string analysis.
///
/// # Errors
///
/// Returns [`crate::cs::StepLimitExceeded`] when the step budget runs
/// out.
pub fn analyze_callstring(
    graph: &Graph,
    config: &CallStringConfig,
) -> Result<CallStringResult, crate::cs::StepLimitExceeded> {
    analyze_callstring_from(graph, PathTable::for_graph(graph), config)
}

/// Like [`analyze_callstring`], but starting from an existing path table
/// so the resulting [`Pair`]s are id-comparable with another solver's.
pub fn analyze_callstring_from(
    graph: &Graph,
    paths: PathTable,
    config: &CallStringConfig,
) -> Result<CallStringResult, crate::cs::StepLimitExceeded> {
    let mut s = K1::new(graph, paths, config);
    // Analyze every procedure, not only those reachable from `<root>`:
    // an uncalled procedure is analyzed under the root context (with ⊥
    // formals), matching the other four solvers' whole-graph behavior.
    // For called procedures this adds nothing — root-context facts are a
    // subset of any call-context's facts, and stripping unions them.
    s.activate(graph.root(), Ctx::ROOT);
    for f in graph.func_ids() {
        s.activate(f, Ctx::ROOT);
    }
    s.run()?;
    Ok(s.finish())
}

struct K1<'g> {
    g: &'g Graph,
    cfg: CallStringConfig,
    paths: PathTable,
    interner: PairInterner,
    /// Per output: context -> pairs.
    p: Vec<CtxSlots>,
    /// Naive-mode worklist: single-pair deliveries.
    naive_wl: VecDeque<(InputId, Ctx, PairId)>,
    /// Delta-mode worklist: (output, context) slots with a delta.
    out_wl: VecDeque<(u32, Ctx)>,
    queued: HashSet<(u32, Ctx)>,
    /// Reusable emission buffer (one delivery at a time).
    em: Vec<(OutputId, Ctx, Pair)>,
    /// Reusable cross-product buffers for the memory-op transfers.
    scratch_a: Vec<Pair>,
    scratch_b: Vec<Pair>,
    scratch_c: Vec<Pair>,
    owner: Vec<VFuncId>,
    /// Contexts under which each function has been activated.
    active: HashMap<VFuncId, HashSet<Ctx>>,
    /// Caller contexts observed at each call node (for k=1 returns).
    call_ctxs: HashMap<NodeId, HashSet<Ctx>>,
    callees: HashMap<NodeId, Vec<VFuncId>>,
    callers: HashMap<VFuncId, Vec<NodeId>>,
    flow_ins: u64,
    flow_outs: u64,
    dedup_hits: u64,
    delta_batches: u64,
}

impl<'g> K1<'g> {
    /// An idle solver over `graph` starting from `paths`.
    fn new(graph: &'g Graph, paths: PathTable, config: &CallStringConfig) -> Self {
        K1 {
            g: graph,
            cfg: config.clone(),
            paths,
            interner: PairInterner::new(),
            p: vec![CtxSlots::default(); graph.output_count()],
            naive_wl: VecDeque::new(),
            out_wl: VecDeque::new(),
            queued: HashSet::default(),
            em: Vec::new(),
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
            scratch_c: Vec::new(),
            owner: crate::modref::node_owner_map(graph),
            active: HashMap::default(),
            call_ctxs: HashMap::default(),
            callees: HashMap::default(),
            callers: HashMap::default(),
            flow_ins: 0,
            flow_outs: 0,
            dedup_hits: 0,
            delta_batches: 0,
        }
    }

    /// First entry of `f` under `ctx`: seed its constant nodes there and
    /// mark every call site it owns as reachable under `ctx` (so callee
    /// returns flow back even when no actual ever carries a pair — e.g.
    /// a call made while the store is still empty).
    fn activate(&mut self, f: VFuncId, ctx: Ctx) {
        if !self.active.entry(f).or_default().insert(ctx) {
            return;
        }
        let mut seeds = Vec::new();
        let mut owned_calls = Vec::new();
        for (id, n) in self.g.nodes() {
            if self.owner[id.0 as usize] != f {
                continue;
            }
            if matches!(n.kind, NodeKind::Call) {
                owned_calls.push(id);
            }
            let base = match n.kind {
                NodeKind::Base(b) | NodeKind::Alloc(b) | NodeKind::FuncConst(b) => b,
                _ => continue,
            };
            let root = self.paths.base_root(base);
            seeds.push((n.outputs[0], Pair::new(PathTable::EMPTY, root)));
        }
        for (o, p) in seeds {
            self.flow_out(o, ctx, p);
        }
        for call in owned_calls {
            self.call_ctxs.entry(call).or_default().insert(ctx);
            let callees = self.callees.get(&call).cloned().unwrap_or_default();
            let mut em = Vec::new();
            for cf in callees {
                self.pull_returns(call, cf, ctx, &mut em);
            }
            for (o, c, p) in em {
                self.flow_out(o, c, p);
            }
        }
    }

    fn flow_out(&mut self, out: OutputId, ctx: Ctx, pair: Pair) {
        let g = self.g;
        let id = self.interner.intern(pair);
        let o = out.0 as usize;
        let slot = self.p[o].slot(ctx);
        if slot.insert(id) {
            self.flow_outs += 1;
            match self.cfg.propagation {
                Propagation::Naive => {
                    slot.take_delta();
                    for &input in g.consumers(out) {
                        self.naive_wl.push_back((input, ctx, id));
                    }
                }
                Propagation::Delta => {
                    if !g.consumers(out).is_empty() && self.queued.insert((out.0, ctx)) {
                        self.out_wl.push_back((out.0, ctx));
                    }
                }
            }
        } else {
            self.dedup_hits += 1;
        }
    }

    fn run(&mut self) -> Result<(), crate::cs::StepLimitExceeded> {
        match self.cfg.propagation {
            Propagation::Naive => self.run_naive(),
            Propagation::Delta => self.run_delta(),
        }
    }

    fn run_naive(&mut self) -> Result<(), crate::cs::StepLimitExceeded> {
        while let Some((input, ctx, id)) = self.naive_wl.pop_front() {
            self.flow_ins += 1;
            if self.flow_ins > self.cfg.max_steps {
                return Err(crate::cs::StepLimitExceeded {
                    steps: self.cfg.max_steps,
                });
            }
            let pair = self.interner.resolve(id);
            let info = self.g.input(input);
            self.deliver(info.node, info.port as usize, ctx, pair);
        }
        Ok(())
    }

    fn run_delta(&mut self) -> Result<(), crate::cs::StepLimitExceeded> {
        while let Some((o, ctx)) = self.out_wl.pop_front() {
            self.queued.remove(&(o, ctx));
            let batch = self.p[o as usize]
                .get_mut(ctx)
                .expect("queued slot has a set")
                .take_delta();
            let g = self.g;
            for &input in g.consumers(OutputId(o)) {
                self.delta_batches += 1;
                let info = g.input(input);
                for &raw in &batch {
                    self.flow_ins += 1;
                    if self.flow_ins > self.cfg.max_steps {
                        return Err(crate::cs::StepLimitExceeded {
                            steps: self.cfg.max_steps,
                        });
                    }
                    let pair = self.interner.resolve(PairId(raw));
                    self.deliver(info.node, info.port as usize, ctx, pair);
                }
            }
            if let Some(set) = self.p[o as usize].get_mut(ctx) {
                set.recycle(batch);
            }
        }
        Ok(())
    }

    /// Applies the transfer function for one delivered pair and flows
    /// the emissions out, reusing the solver's emission buffer.
    fn deliver(&mut self, node: NodeId, port: usize, ctx: Ctx, pair: Pair) {
        let mut em = std::mem::take(&mut self.em);
        self.transfer(node, port, ctx, pair, &mut em);
        for &(out, c, p) in &em {
            self.flow_out(out, c, p);
        }
        em.clear();
        self.em = em;
    }

    /// Pushes `src`'s committed pairs — in every context — through
    /// `(node, port)` without queueing `src` itself: the resume boundary
    /// delivery. Redundant emissions dedup against the committed slots.
    fn deliver_committed(&mut self, node: NodeId, port: usize, src: OutputId) {
        let it = &self.interner;
        let items: Vec<(Ctx, Vec<Pair>)> = self.p[src.0 as usize]
            .iter()
            .map(|(c, s)| (*c, s.iter().map(|id| it.resolve(id)).collect()))
            .collect();
        for (ctx, pairs) in items {
            for pair in pairs {
                self.flow_ins += 1;
                self.deliver(node, port, ctx, pair);
            }
        }
    }

    fn finish(self) -> CallStringResult {
        let contexts = self.active.values().map(|c| c.len()).sum();
        let it = &self.interner;
        let stripped = self
            .p
            .iter()
            .map(|m| {
                let mut v: Vec<Pair> = m
                    .iter()
                    .flat_map(|(_, s)| s.iter().map(|id| it.resolve(id)))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let per_ctx = self
            .p
            .iter()
            .map(|m| {
                let mut rows: Vec<(Ctx, Vec<Pair>)> = m
                    .iter()
                    .map(|(c, s)| {
                        let mut v: Vec<Pair> = s.iter().map(|id| it.resolve(id)).collect();
                        v.sort_unstable();
                        (*c, v)
                    })
                    .filter(|(_, v)| !v.is_empty())
                    .collect();
                rows.sort_unstable_by_key(|(c, _)| *c);
                rows
            })
            .collect();
        let mut callees = self.callees;
        for v in callees.values_mut() {
            v.sort_unstable_by_key(|f| f.0);
        }
        CallStringResult {
            paths: self.paths,
            stripped,
            per_ctx,
            callees,
            flow_ins: self.flow_ins,
            flow_outs: self.flow_outs,
            dedup_hits: self.dedup_hits,
            delta_batches: match self.cfg.propagation {
                Propagation::Naive => None,
                Propagation::Delta => Some(self.delta_batches),
            },
            contexts,
        }
    }

    /// Collects the committed pairs at `(node, port)` under `ctx` into
    /// `buf` (cleared first).
    fn collect_pairs(&self, node: NodeId, port: usize, ctx: Ctx, buf: &mut Vec<Pair>) {
        buf.clear();
        let src = self.g.input_src(node, port);
        if let Some(s) = self.p[src.0 as usize].get(ctx) {
            buf.extend(s.iter().map(|id| self.interner.resolve(id)));
        }
    }

    fn transfer(
        &mut self,
        node: NodeId,
        port: usize,
        ctx: Ctx,
        pair: Pair,
        em: &mut Vec<(OutputId, Ctx, Pair)>,
    ) {
        let g = self.g;
        let n = g.node(node);
        let outs = &n.outputs;
        let mut sa = std::mem::take(&mut self.scratch_a);
        let mut sb = std::mem::take(&mut self.scratch_b);
        let mut sc = std::mem::take(&mut self.scratch_c);
        match &n.kind {
            NodeKind::Member(f) => {
                let r = self.paths.child(pair.referent, AccessOp::Field(*f));
                em.push((outs[0], ctx, Pair::new(pair.path, r)));
            }
            NodeKind::IndexElem => {
                let r = self.paths.child(pair.referent, AccessOp::Index);
                em.push((outs[0], ctx, Pair::new(pair.path, r)));
            }
            NodeKind::ExtractField(f) => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Field(*f)) {
                    em.push((outs[0], ctx, Pair::new(p, pair.referent)));
                }
            }
            NodeKind::ExtractElem => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Index) {
                    em.push((outs[0], ctx, Pair::new(p, pair.referent)));
                }
            }
            NodeKind::PassThrough if port == 0 => {
                em.push((outs[0], ctx, pair));
            }
            NodeKind::Gamma => em.push((outs[0], ctx, pair)),
            // Store identity; pointer-input pairs (the checker-facing
            // kill-set) are not propagated.
            NodeKind::Free if port == 1 => {
                em.push((outs[0], ctx, pair));
            }
            NodeKind::Free => {}
            NodeKind::Primop => {}
            NodeKind::Lookup { .. } => match port {
                0 => {
                    self.collect_pairs(node, 1, ctx, &mut sa);
                    for &sp in &sa {
                        if self.paths.dom(pair.referent, sp.path) {
                            let off = self.paths.subtract(sp.path, pair.referent);
                            let p = self.paths.append(pair.path, off);
                            em.push((outs[0], ctx, Pair::new(p, sp.referent)));
                        }
                    }
                }
                _ => {
                    self.collect_pairs(node, 0, ctx, &mut sa);
                    for &lp in &sa {
                        if self.paths.dom(lp.referent, pair.path) {
                            let off = self.paths.subtract(pair.path, lp.referent);
                            let p = self.paths.append(lp.path, off);
                            em.push((outs[0], ctx, Pair::new(p, pair.referent)));
                        }
                    }
                }
            },
            NodeKind::Update { .. } => match port {
                0 => {
                    self.collect_pairs(node, 2, ctx, &mut sa);
                    for &vp in &sa {
                        let path = self.paths.append(pair.referent, vp.path);
                        em.push((outs[0], ctx, Pair::new(path, vp.referent)));
                    }
                    self.collect_pairs(node, 1, ctx, &mut sa);
                    for &sp in &sa {
                        if !(self.cfg.strong_updates
                            && self.paths.strong_dom(pair.referent, sp.path))
                        {
                            em.push((outs[0], ctx, sp));
                        }
                    }
                }
                1 => {
                    self.collect_pairs(node, 0, ctx, &mut sa);
                    let passes = sa.iter().any(|lp| {
                        !(self.cfg.strong_updates && self.paths.strong_dom(lp.referent, pair.path))
                    });
                    if passes {
                        em.push((outs[0], ctx, pair));
                    }
                }
                _ => {
                    self.collect_pairs(node, 0, ctx, &mut sa);
                    for &lp in &sa {
                        let path = self.paths.append(lp.referent, pair.path);
                        em.push((outs[0], ctx, Pair::new(path, pair.referent)));
                    }
                }
            },
            NodeKind::CopyMem => match port {
                0 => {
                    em.push((outs[0], ctx, pair));
                    self.collect_pairs(node, 1, ctx, &mut sb);
                    self.collect_pairs(node, 2, ctx, &mut sa);
                    for &srcp in &sa {
                        if self.paths.dom(srcp.referent, pair.path) {
                            let off = self.paths.subtract(pair.path, srcp.referent);
                            for dp in &sb {
                                let path = self.paths.append(dp.referent, off);
                                em.push((outs[0], ctx, Pair::new(path, pair.referent)));
                            }
                        }
                    }
                }
                _ => {
                    self.collect_pairs(node, 0, ctx, &mut sa);
                    self.collect_pairs(node, 1, ctx, &mut sb);
                    self.collect_pairs(node, 2, ctx, &mut sc);
                    for &srcp in &sc {
                        for &sp in &sa {
                            if self.paths.dom(srcp.referent, sp.path) {
                                let off = self.paths.subtract(sp.path, srcp.referent);
                                for dp in &sb {
                                    let path = self.paths.append(dp.referent, off);
                                    em.push((outs[0], ctx, Pair::new(path, sp.referent)));
                                }
                            }
                        }
                    }
                }
            },
            NodeKind::Call => {
                if port == 0 {
                    if let Some(f) = self.paths.func_of(pair.referent) {
                        self.register_callee(node, f, em);
                    }
                } else {
                    // Remember the caller context, then forward under the
                    // k=1 context of this call site.
                    self.call_ctxs.entry(node).or_default().insert(ctx);
                    let n_callees = self.callees.get(&node).map_or(0, |v| v.len());
                    for i in 0..n_callees {
                        let f = self.callees[&node][i];
                        self.forward_to_formal(node, port, pair, f, em);
                        // Returns already computed under this call's
                        // context flow back out under the newly seen
                        // caller context.
                        self.pull_returns(node, f, ctx, em);
                    }
                }
            }
            NodeKind::Return { func } => {
                // A pair at a return under context (call c) flows only to
                // call c, under every caller context seen there.
                let Ctx(raw) = ctx;
                // The root never returns anywhere; a pair under a call
                // context flows only if that call really targets `func`.
                if raw != 0 {
                    let call = NodeId(raw - 1);
                    let targets = self
                        .callers
                        .get(func)
                        .map(|cs| cs.contains(&call))
                        .unwrap_or(false);
                    if targets {
                        if let Some(caller_ctxs) = self.call_ctxs.get(&call) {
                            let outs = &g.node(call).outputs;
                            if port < outs.len() {
                                for &cctx in caller_ctxs {
                                    em.push((outs[port], cctx, pair));
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        self.scratch_a = sa;
        self.scratch_b = sb;
        self.scratch_c = sc;
    }

    fn register_callee(&mut self, call: NodeId, f: VFuncId, em: &mut Vec<(OutputId, Ctx, Pair)>) {
        let list = self.callees.entry(call).or_default();
        if list.contains(&f) {
            return;
        }
        list.push(f);
        self.callers.entry(f).or_default().push(call);
        self.activate(f, Ctx::of_call(call));
        // Push existing actual pairs (in every caller context seen so far).
        let n_inputs = self.g.node(call).inputs.len();
        let it = &self.interner;
        let src_ctxs: Vec<(usize, Ctx, Pair)> = (1..n_inputs)
            .flat_map(|port| {
                let src = self.g.input_src(call, port);
                self.p[src.0 as usize]
                    .iter()
                    .flat_map(move |(ctx, pairs)| {
                        pairs.iter().map(move |id| (port, *ctx, it.resolve(id)))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        for (port, ctx, pair) in src_ctxs {
            self.call_ctxs.entry(call).or_default().insert(ctx);
            self.forward_to_formal(call, port, pair, f, em);
        }
        // Pull any returns already computed.
        let ctxs: Vec<Ctx> = self
            .call_ctxs
            .get(&call)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for ctx in ctxs {
            self.pull_returns(call, f, ctx, em);
        }
    }

    fn forward_to_formal(
        &mut self,
        call: NodeId,
        port: usize,
        pair: Pair,
        f: VFuncId,
        em: &mut Vec<(OutputId, Ctx, Pair)>,
    ) {
        let entry = self.g.func(f).entry;
        let formals = &self.g.node(entry).outputs;
        let idx = port - 1;
        if idx >= formals.len() {
            return;
        }
        let callee_ctx = Ctx::of_call(call);
        self.activate(f, callee_ctx);
        em.push((formals[idx], callee_ctx, pair));
    }

    /// Flows pairs already present on `f`'s returns (under this call's
    /// context) back to the call outputs under `caller_ctx`.
    fn pull_returns(
        &mut self,
        call: NodeId,
        f: VFuncId,
        caller_ctx: Ctx,
        em: &mut Vec<(OutputId, Ctx, Pair)>,
    ) {
        let callee_ctx = Ctx::of_call(call);
        let g = self.g;
        let outs = &g.node(call).outputs;
        let returns = &g.func(f).returns;
        for &ret in returns {
            let n_ports = g.node(ret).inputs.len().min(outs.len());
            #[allow(clippy::needless_range_loop)] // indexes two parallel structures
            for port in 0..n_ports {
                let src = g.input_src(ret, port);
                if let Some(set) = self.p[src.0 as usize].get(callee_ctx) {
                    let it = &self.interner;
                    em.extend(
                        set.iter()
                            .map(|id| (outs[port], caller_ctx, it.resolve(id))),
                    );
                }
            }
        }
    }
}

/// Extracts function `f`'s k=1 summary: per output, each context's
/// committed pairs, with contexts rewritten into stable vocabulary —
/// the root, or `(owning function name, call-node offset)`.
pub(crate) fn extract_func(
    k1: &CallStringResult,
    graph: &Graph,
    index: &GraphIndex,
    f: VFuncId,
) -> Option<FunctionSummary> {
    let fi = f.0 as usize;
    let (os, oe) = (index.out_start[fi], index.out_end[fi]);
    let mut outputs = Vec::with_capacity((oe - os) as usize);
    for o in os..oe {
        let mut row = Vec::new();
        for (ctx, pairs) in &k1.per_ctx[o as usize] {
            let sc = if *ctx == Ctx::ROOT {
                StableCtx::Root
            } else {
                let call = NodeId(ctx.0 - 1);
                let owner = index.node_owner[call.0 as usize];
                StableCtx::Call {
                    func: graph.func(owner).name.clone(),
                    offset: call.0 - index.node_start[owner.0 as usize],
                }
            };
            let mut sp = Vec::with_capacity(pairs.len());
            for &p in pairs {
                sp.push(crate::fingerprint::stable_pair(&k1.paths, graph, index, p)?);
            }
            sp.sort_unstable();
            row.push((sc, sp));
        }
        row.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        outputs.push(row);
    }
    Some(FunctionSummary {
        fingerprint: index.func_fps[fi],
        calls: crate::fingerprint::stable_calls(graph, index, f, &k1.callees),
        facts: FuncFacts::K1(outputs),
    })
}

/// Translated k=1 facts of one clean function: per output offset, each
/// context's committed pairs over next-graph ids.
type K1Row = Vec<(Ctx, Vec<Pair>)>;

/// Seeded resume of the k=1 call-string analysis, through the shared
/// resume skeleton (`crate::resume`).
///
/// The per-context partition adds one wrinkle to the subset-seeding
/// argument: a context is an *activation*, created outside the output
/// edge relation the dirty cone tracks (a call site's owner activates
/// its callees). Two rules close that channel. First, the cone
/// computation marks a dirty call's callees across their *full* output
/// range (not just their entries), so any function whose context set
/// can have changed is recomputed wholesale. Second, a summarized
/// context owned by a dirty or deleted function is dropped during
/// translation rather than failing the plan — sound precisely because
/// of the first rule: that owner's callees are in the cone, so the
/// dropped rows would never be installed as seeds anyway.
///
/// Activations are replayed before the boundary deliveries (root plus
/// every function under the root context, plus each seeded call edge's
/// callee under that call's context); `activate` then performs the
/// return-boundary deliveries itself via `pull_returns` against the
/// already-committed seeds, so the shared boundary skips its returns
/// rule.
///
/// `Err` when the re-solve exhausts the step budget.
pub(crate) fn analyze_callstring_resume(
    graph: &Graph,
    index: &GraphIndex,
    prev: &SolverSummaries,
    paths: PathTable,
    config: &CallStringConfig,
) -> Result<(CallStringResult, ResumeStats), crate::cs::StepLimitExceeded> {
    let mut paths = paths;
    let plan = plan_base(
        graph,
        index,
        prev,
        |facts| match facts {
            FuncFacts::K1(outputs) => Some(outputs.as_slice()),
            _ => None,
        },
        |_, row| {
            let mut r: K1Row = Vec::new();
            for (sc, pairs) in row {
                let ctx = match sc {
                    StableCtx::Root => Ctx::ROOT,
                    StableCtx::Call { func, offset } => {
                        // Contexts owned by dirty or deleted functions
                        // are dropped, not failures (see above).
                        let Some(&owner) = index.func_by_name.get(func) else {
                            continue;
                        };
                        let oi = owner.0 as usize;
                        if prev.funcs.get(func).map(|s| s.fingerprint) != Some(index.func_fps[oi]) {
                            continue;
                        }
                        Ctx::of_call(NodeId(index.node_start[oi] + offset))
                    }
                };
                r.push((ctx, intern_pairs(graph, index, &mut paths, pairs)?));
            }
            Some(r)
        },
    )
    .cone(graph, index, ConeVocab::K1, &[]);

    let mut s = K1::new(graph, paths, config);
    for (o, row) in plan.seeds() {
        for (ctx, pairs) in row {
            s.p[o].slot(*ctx).install(&mut s.interner, pairs);
        }
    }
    plan.install_edges(&mut s.callees, &mut s.callers);

    // Replay the activations: constants dedup against the seeds, and
    // `pull_returns` inside `activate` performs the return-boundary
    // deliveries against the committed seeds.
    s.activate(graph.root(), Ctx::ROOT);
    for f in graph.func_ids() {
        s.activate(f, Ctx::ROOT);
    }
    for (&call, fs) in &plan.call_edges {
        for &f in fs {
            s.activate(f, Ctx::of_call(call));
        }
    }
    plan.deliver_boundary(graph, false, |node, port, src| {
        s.deliver_committed(node, port, src)
    });
    s.run()?;
    Ok((s.finish(), plan.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig};
    use crate::cs::{analyze_cs, CsConfig};
    use vdg::build::{lower, BuildOptions};

    fn pipeline(src: &str) -> (Graph, crate::ci::CiResult, CallStringResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        // Share the CI path table so pairs are id-comparable.
        let k1 = analyze_callstring_from(&g, ci.paths.clone(), &CallStringConfig::default())
            .expect("budget");
        (g, ci, k1)
    }

    fn names(paths: &PathTable, g: &Graph, refs: &[PathId]) -> Vec<String> {
        let mut v: Vec<String> = refs.iter().map(|&p| paths.display(p, g)).collect();
        v.sort();
        v
    }

    #[test]
    fn k1_separates_one_level_of_context() {
        let (g, ci, k1) = pipeline(
            "int a; int b;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *x; int *y; x = id(&a); y = id(&b); \
             return *x + *y; }",
        );
        let ops = g.indirect_mem_ops();
        let (rx, _) = ops[0];
        assert_eq!(
            names(&ci.paths, &g, &ci.loc_referents(&g, rx)),
            vec!["a", "b"]
        );
        assert_eq!(names(&k1.paths, &g, &k1.loc_referents(&g, rx)), vec!["a"]);
    }

    #[test]
    fn k1_merges_two_levels_where_assumption_sets_do_not() {
        // `outer` wraps `inner`; the single outer->inner call site
        // exhausts the k=1 budget, so the two main-level contexts merge.
        let src = "int a; int b;\n\
             int *inner(int *p) { return p; }\n\
             int *outer(int *q) { return inner(q); }\n\
             int main(void) { int *x; int *y; x = outer(&a); y = outer(&b); \
             return *x + *y; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let ci = analyze_ci(&g, &CiConfig::default());
        let k1 =
            analyze_callstring_from(&g, ci.paths.clone(), &CallStringConfig::default()).unwrap();
        let cs = analyze_cs(&g, &ci, &CsConfig::default()).unwrap();
        let (rx, _) = g.indirect_mem_ops()[0];
        assert_eq!(
            names(&k1.paths, &g, &k1.loc_referents(&g, rx)),
            vec!["a", "b"],
            "k=1 merges the wrapper's callers"
        );
        assert_eq!(
            names(&cs.paths, &g, &cs.loc_referents(&g, rx)),
            vec!["a"],
            "assumption sets track through the wrapper"
        );
    }

    #[test]
    fn k1_is_contained_in_ci() {
        let (g, ci, k1) = pipeline(
            "int buf;\n\
             void put(int **slot) { *slot = &buf; }\n\
             int use_a(void) { int *a; put(&a); return *a; }\n\
             int use_b(void) { int *b; put(&b); return *b; }\n\
             int main(void) { return use_a() + use_b(); }",
        );
        for o in g.output_ids() {
            let ci_set: HashSet<Pair> = ci.pairs(o).iter().copied().collect();
            for p in k1.pairs(o) {
                assert!(ci_set.contains(p), "k=1 produced a pair CI lacks");
            }
        }
        assert!(k1.total_pairs() < ci.total_pairs());
    }

    #[test]
    fn assumption_sets_beat_k1_at_call_results() {
        // On the two-level wrapper, assumption sets keep the call results
        // exact while k=1 merges them (tested above); at those outputs
        // the CS answer is strictly contained in the k=1 answer.
        let src = "int a; int b;\n\
             int *inner(int *p) { return p; }\n\
             int *outer(int *q) { return inner(q); }\n\
             int main(void) { int *x; int *y; x = outer(&a); y = outer(&b); \
             return *x + *y; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let ci = analyze_ci(&g, &CiConfig::default());
        let k1 =
            analyze_callstring_from(&g, ci.paths.clone(), &CallStringConfig::default()).unwrap();
        let cs = analyze_cs(
            &g,
            &ci,
            &CsConfig {
                ci_pruning: false,
                ..CsConfig::default()
            },
        )
        .unwrap();
        for (node, _) in g.indirect_mem_ops() {
            let loc = g.input_src(node, 0);
            let k1_set: HashSet<Pair> = k1.pairs(loc).iter().copied().collect();
            for pr in cs.pairs(loc) {
                assert!(k1_set.contains(pr), "CS exceeded k=1 at a deref input");
            }
        }
    }

    #[test]
    fn recursion_terminates() {
        let (g, ci, k1) = pipeline(
            "int g;\n\
             int *walk(int n, int *p) { if (n == 0) return p; \
             return walk(n - 1, p); }\n\
             int main(void) { int *q; q = walk(5, &g); return *q; }",
        );
        let (read, _) = *g.indirect_mem_ops().iter().find(|&&(_, w)| !w).unwrap();
        assert_eq!(names(&k1.paths, &g, &k1.loc_referents(&g, read)), vec!["g"]);
        assert_eq!(names(&ci.paths, &g, &ci.loc_referents(&g, read)), vec!["g"]);
        assert!(k1.contexts >= 2);
    }

    #[test]
    fn context_count_reported() {
        let (_, _, k1) = pipeline(
            "int g;\n\
             void touch(void) { g = 1; }\n\
             int main(void) { touch(); touch(); return g; }",
        );
        // touch is called from two sites: two contexts plus main's plus
        // the root's.
        assert!(k1.contexts >= 4, "contexts = {}", k1.contexts);
    }
}
