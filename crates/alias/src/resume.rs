//! The seeded-resume skeleton: one plan → cone → boundary-delivery path
//! shared by every worklist solver.
//!
//! CI, Weihl, k=1 and assumption-set CS resume an edited program the
//! same way (`DESIGN.md` §12); only the vocabulary of the facts and the
//! way a solver installs them differ:
//!
//! 1. **Plan** ([`plan_base`]): classify the next graph's functions
//!    against the previous summaries by name and fingerprint, translate
//!    each clean function's per-output rows into next-graph vocabulary
//!    (a row that fails to translate demotes its function to dirty),
//!    and record the clean functions' call edges plus the callees that
//!    lost an in-flow.
//! 2. **Cone** ([`PlanBase::cone`]): close the dirty functions' outputs
//!    forward over the solver's transfer system ([`compute_cone`]).
//!    Outside the cone the translated rows are final seeds, and so are
//!    the call edges whose function input is final. The
//!    [`ResumeStats`] are counted here, once.
//! 3. **Install**: the solver installs the seeds silently (its own
//!    representation) and the edges through
//!    [`ResumePlan::install_edges`].
//! 4. **Boundary** ([`deliver_boundary`]): every consumer that can emit
//!    into the cone gets each final input's committed set delivered by
//!    hand, exactly once. The demand solver grows its solved region
//!    through the same function.
//! 5. **Solve** the cone to its fixpoint.
//!
//! Because every transfer system is monotone in the committed sets and
//! the seeds are a subset of the least fixpoint, step 5 converges to
//! exactly the fresh fixpoint. The callers gate everything that would
//! make the plan unsound (unstable naming, call-string heap naming,
//! fault injection, a foreign vocabulary) before planning; see
//! `SolverSpec::resume`.

use crate::fingerprint::{call_targets, GraphIndex};
use crate::fxhash::{HashMap, HashSet};
use crate::summary::{FuncFacts, FunctionSummary, ResumeStats, SolverSummaries};
use vdg::graph::{Graph, InputId, NodeId, NodeKind, OutputId, VFuncId};

/// The vocabulary-independent classification of a resume: which
/// functions are clean (with their rows translated into next-graph
/// vocabulary), which are dirty, the clean functions' previous call
/// edges, and the callees that lost an in-flow.
pub(crate) struct PlanBase<R> {
    /// Translated rows per clean function, one per output offset.
    pub(crate) translated: HashMap<VFuncId, Vec<R>>,
    /// Dirty functions: changed fingerprint, deleted-from-summary, or
    /// demoted on translation failure.
    pub(crate) dirty: HashSet<VFuncId>,
    /// Previous call edges of clean functions, in next-graph node ids.
    prev_edges: HashMap<NodeId, Vec<VFuncId>>,
    /// Functions that lost an in-flow: callees of a dirty or deleted
    /// function.
    lost_callees: HashSet<VFuncId>,
}

/// Classifies `next`'s functions against `prev` and translates each
/// clean function's per-output rows. `rows_of` picks the rows out of
/// one function's facts (`None` for facts of another vocabulary);
/// `translate` maps one row into next-graph vocabulary. A function
/// whose rows are missing, of the wrong count, or fail to translate is
/// demoted to dirty, exactly like one whose call edges fail to
/// translate.
pub(crate) fn plan_base<S, R>(
    next: &Graph,
    index: &GraphIndex,
    prev: &SolverSummaries,
    rows_of: impl Fn(&FuncFacts) -> Option<&[S]>,
    mut translate: impl FnMut(VFuncId, &S) -> Option<R>,
) -> PlanBase<R> {
    let clean: HashMap<VFuncId, &FunctionSummary> = next
        .func_ids()
        .filter_map(|f| {
            prev.funcs
                .get(&next.func(f).name)
                .filter(|s| s.fingerprint == index.func_fps[f.0 as usize])
                .map(|s| (f, s))
        })
        .collect();
    let mut dirty: HashSet<VFuncId> = (0..next.func_count() as u32)
        .map(VFuncId)
        .filter(|f| !clean.contains_key(f))
        .collect();
    let mut translated: HashMap<VFuncId, Vec<R>> = HashMap::default();
    let mut edges: HashMap<VFuncId, Vec<(NodeId, Vec<VFuncId>)>> = HashMap::default();
    'funcs: for (&f, summary) in &clean {
        let fi = f.0 as usize;
        let mut fe = Vec::with_capacity(summary.calls.len());
        for (off, names) in &summary.calls {
            let node = NodeId(index.node_start[fi] + off);
            let mut callees = Vec::with_capacity(names.len());
            for name in names {
                let Some(&c) = index.func_by_name.get(name) else {
                    dirty.insert(f);
                    continue 'funcs;
                };
                callees.push(c);
            }
            fe.push((node, callees));
        }
        // Fingerprint equality makes a row-count mismatch impossible
        // short of a stale summary; treat it as one.
        let want = (index.out_end[fi] - index.out_start[fi]) as usize;
        let rows = rows_of(&summary.facts)
            .filter(|rows| rows.len() == want)
            .and_then(|rows| rows.iter().map(|row| translate(f, row)).collect());
        let Some(rows) = rows else {
            dirty.insert(f);
            continue;
        };
        translated.insert(f, rows);
        edges.insert(f, fe);
    }
    translated.retain(|f, _| !dirty.contains(f));
    edges.retain(|f, _| !dirty.contains(f));

    // Prev call edges of clean functions, for the cone's return rule.
    let mut prev_edges: HashMap<NodeId, Vec<VFuncId>> = HashMap::default();
    for fe in edges.values() {
        for (n, callees) in fe {
            prev_edges.insert(*n, callees.clone());
        }
    }

    // A dirty or deleted function's previous call edges are gone from
    // the next-graph closure, but the callees they used to feed lost an
    // in-flow: their committed sets may shrink, so their entries must
    // join the cone. Without this, a callee whose only call site was
    // deleted would be seeded with stale facts.
    let mut lost_callees: HashSet<VFuncId> = HashSet::default();
    for (name, summary) in &prev.funcs {
        let gone = match index.func_by_name.get(name) {
            Some(&f) => dirty.contains(&f),
            None => true,
        };
        if !gone {
            continue;
        }
        for (_, callee_names) in &summary.calls {
            for c in callee_names {
                if let Some(&t) = index.func_by_name.get(c) {
                    lost_callees.insert(t);
                }
            }
        }
    }
    PlanBase {
        translated,
        dirty,
        prev_edges,
        lost_callees,
    }
}

impl<R> PlanBase<R> {
    /// Closes the dirty cone under `vocab`'s rules plus `extra_roots`
    /// and splits the plan at it: translated rows outside the cone
    /// become seeds, rows inside are dropped (re-solved), and only the
    /// call edges whose function input is outside the cone survive.
    pub(crate) fn cone(
        self,
        g: &Graph,
        index: &GraphIndex,
        vocab: ConeVocab,
        extra_roots: &[OutputId],
    ) -> ResumePlan<R> {
        let in_cone = compute_cone(
            g,
            index,
            &self.dirty,
            &self.prev_edges,
            &self.lost_callees,
            vocab,
            extra_roots,
        );
        let mut seeds: Vec<Option<R>> = std::iter::repeat_with(|| None)
            .take(g.output_count())
            .collect();
        let mut seeded_outputs = 0;
        for (f, rows) in self.translated {
            let os = index.out_start[f.0 as usize] as usize;
            for (i, row) in rows.into_iter().enumerate() {
                if !in_cone[os + i] {
                    seeds[os + i] = Some(row);
                    seeded_outputs += 1;
                }
            }
        }
        // Seed call edges only where the function input is out-of-cone:
        // those callee sets are provably final. In-cone function inputs
        // re-discover their edges through normal propagation.
        let call_edges = self
            .prev_edges
            .into_iter()
            .filter(|(n, _)| !in_cone[g.input_src(*n, 0).0 as usize])
            .collect();
        let mut dirty: Vec<String> = self.dirty.iter().map(|f| g.func(*f).name.clone()).collect();
        dirty.sort_unstable();
        let stats = ResumeStats {
            dirty,
            clean: g.func_count() - self.dirty.len(),
            cone_outputs: in_cone.iter().filter(|&&b| b).count(),
            seeded_outputs,
            total_outputs: g.output_count(),
        };
        ResumePlan {
            seeds,
            in_cone,
            call_edges,
            stats,
        }
    }
}

/// One seeded resume, in next-graph vocabulary, ready to install.
pub(crate) struct ResumePlan<R> {
    /// Per output: `Some(row)` outside the dirty cone (the committed
    /// facts are final and install verbatim), `None` inside.
    seeds: Vec<Option<R>>,
    /// Per output: inside the dirty cone (re-solved) or not.
    pub(crate) in_cone: Vec<bool>,
    /// Previous call edges whose function input is outside the cone
    /// (their callee sets are provably final).
    pub(crate) call_edges: HashMap<NodeId, Vec<VFuncId>>,
    /// The reuse numbers the engine reports.
    pub(crate) stats: ResumeStats,
}

impl<R> ResumePlan<R> {
    /// The seeds in output order: each output outside the cone with its
    /// final row.
    pub(crate) fn seeds(&self) -> impl Iterator<Item = (usize, &R)> {
        self.seeds
            .iter()
            .enumerate()
            .filter_map(|(o, row)| Some((o, row.as_ref()?)))
    }

    /// Registers the final call edges in a solver's call-graph maps, so
    /// its `register_callee` treats them as already known and skips the
    /// push/pull replay.
    pub(crate) fn install_edges(
        &self,
        callees: &mut HashMap<NodeId, Vec<VFuncId>>,
        callers: &mut HashMap<VFuncId, Vec<NodeId>>,
    ) {
        for (&call, fs) in &self.call_edges {
            for &f in fs {
                callees.entry(call).or_default().push(f);
                callers.entry(f).or_default().push(call);
            }
        }
    }

    /// [`deliver_boundary`] across this plan's cone: outputs outside it
    /// are final, outputs inside are fresh.
    pub(crate) fn deliver_boundary(
        &self,
        g: &Graph,
        returns: bool,
        deliver: impl FnMut(NodeId, usize, OutputId),
    ) {
        let in_cone = &self.in_cone;
        deliver_boundary(
            g,
            |o| !in_cone[o.0 as usize],
            |o| in_cone[o.0 as usize],
            &self.call_edges,
            returns,
            deliver,
        );
    }
}

/// Hand-delivers final committed sets into fresh outputs, exactly once.
///
/// A *final* output's committed set was installed silently (a resume
/// seed, or a region the demand solver finished earlier) and will never
/// deliver on its own; a *fresh* output is about to be solved. Call
/// this after every seed is in place, so sibling-set reads in the
/// Lookup/Update/CopyMem transfers see complete final sets. `deliver`
/// pushes `src`'s committed set through `(node, port)`. Three rules:
///
/// - **Plain nodes**: the final inputs of any node with a fresh output.
///   Calls and returns route emissions across function boundaries and
///   follow below; `Primop` emits nothing; `PassThrough` forwards only
///   port 0.
/// - **Actuals**: for each known edge in `edges` whose callee has a
///   fresh formal, the call's final actuals. Calls without a known
///   edge re-discover it during the run, and `register_callee` pushes
///   the committed actual sets itself.
/// - **Returns** (when `returns`): for each known edge with a fresh
///   call output, the callees' final return inputs (emissions to other
///   callers of the same function dedup). k=1 passes `false`: its
///   `activate`/`pull_returns` performs these deliveries.
pub(crate) fn deliver_boundary(
    g: &Graph,
    is_final: impl Fn(OutputId) -> bool,
    is_fresh: impl Fn(OutputId) -> bool,
    edges: &HashMap<NodeId, Vec<VFuncId>>,
    returns: bool,
    mut deliver: impl FnMut(NodeId, usize, OutputId),
) {
    for (id, n) in g.nodes() {
        let ports = match n.kind {
            NodeKind::Call | NodeKind::Return { .. } | NodeKind::Primop => continue,
            NodeKind::PassThrough => n.inputs.len().min(1),
            _ => n.inputs.len(),
        };
        if !n.outputs.iter().any(|&o| is_fresh(o)) {
            continue;
        }
        for port in 0..ports {
            let src = g.input_src(id, port);
            if is_final(src) {
                deliver(id, port, src);
            }
        }
    }
    for (&call, callees) in edges {
        let needed = callees
            .iter()
            .any(|&f| g.node(g.func(f).entry).outputs.iter().any(|&o| is_fresh(o)));
        if !needed {
            continue;
        }
        for port in 1..g.node(call).inputs.len() {
            let src = g.input_src(call, port);
            if is_final(src) {
                deliver(call, port, src);
            }
        }
    }
    if !returns {
        return;
    }
    let mut ret_needed: HashSet<VFuncId> = HashSet::default();
    for (&call, callees) in edges {
        if g.node(call).outputs.iter().any(|&o| is_fresh(o)) {
            ret_needed.extend(callees.iter().copied());
        }
    }
    for &f in &ret_needed {
        for &ret in &g.func(f).returns {
            for port in 0..g.node(ret).inputs.len() {
                let src = g.input_src(ret, port);
                if is_final(src) {
                    deliver(ret, port, src);
                }
            }
        }
    }
}

/// Which solver's transfer system a dirty-cone closure must mirror.
/// The CI rules are the base; CS and k=1 add paths a change can take
/// that CI does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConeVocab {
    /// CI rules (also sound for Weihl's value space: Weihl's per-node
    /// emissions are a subset of CI's, and store-relation invalidation
    /// is handled by the caller through `extra_roots`).
    Ci,
    /// CI rules plus: an in-cone actual re-derives the call's own
    /// outputs (`repropagate_new_actual` re-emits return products at
    /// the call), and the caller roots memory operations whose CI
    /// pruning drifted via `extra_roots`.
    Cs,
    /// CI rules plus: an in-cone actual re-derives the call's own
    /// outputs (`pull_returns` re-emits under the arriving context);
    /// an in-cone function input and a lost caller re-derive *all*
    /// outputs of the affected callee, not just its entries (a changed
    /// activation set reaches every context-indexed slot, constants
    /// included).
    K1,
}

/// Computes the dirty cone: the outputs whose final committed sets may
/// differ from the previous run. Everything outside provably receives
/// exactly the deliveries of the previous run.
///
/// Closure rules, mirroring the CI transfer functions:
/// - every output owned by a dirty function is in the cone;
/// - the entry outputs of every `lost_callees` function (a callee of a
///   dirty or deleted function, whose in-flows may have vanished) are
///   in the cone;
/// - every `extra_roots` output is in the cone (CS memop pruning drift;
///   Weihl `Lookup` reads under a dirty store);
/// - an in-cone output feeding a node puts that node's affected
///   outputs in the cone (`PassThrough` only forwards port 0;
///   `Primop` emits nothing);
/// - an in-cone function input of a call puts the call's outputs and
///   the entries of every possible target in the cone (the callee set
///   may change);
/// - an in-cone actual puts the entries of the call's previously
///   recorded callees in the cone;
/// - an in-cone input of `Return{f}` puts the outputs of `f`'s
///   previously recorded callers in the cone.
///
/// See [`ConeVocab`] for the CS and k=1 extensions.
pub(crate) fn compute_cone(
    g: &Graph,
    index: &GraphIndex,
    dirty: &HashSet<VFuncId>,
    prev_edges: &HashMap<NodeId, Vec<VFuncId>>,
    lost_callees: &HashSet<VFuncId>,
    vocab: ConeVocab,
    extra_roots: &[OutputId],
) -> Vec<bool> {
    let mut prev_callers: HashMap<VFuncId, Vec<NodeId>> = HashMap::default();
    for (&n, callees) in prev_edges {
        for &f in callees {
            prev_callers.entry(f).or_default().push(n);
        }
    }
    let mut in_cone = vec![false; g.output_count()];
    let mut wl: Vec<u32> = Vec::new();
    let mark = |o: OutputId, in_cone: &mut Vec<bool>, wl: &mut Vec<u32>| {
        if !in_cone[o.0 as usize] {
            in_cone[o.0 as usize] = true;
            wl.push(o.0);
        }
    };
    // A changed callee set (or lost caller) invalidates the callee's
    // entries under CI/CS/Weihl; under k=1 it changes the callee's
    // *activation set*, which indexes every context-keyed slot the
    // callee owns — constants included — so the whole function joins.
    let mark_target = |t: VFuncId, in_cone: &mut Vec<bool>, wl: &mut Vec<u32>| {
        if vocab == ConeVocab::K1 {
            let fi = t.0 as usize;
            for o in index.out_start[fi]..index.out_end[fi] {
                mark(OutputId(o), in_cone, wl);
            }
        } else {
            for &out in &g.node(g.func(t).entry).outputs {
                mark(out, in_cone, wl);
            }
        }
    };
    for &f in dirty {
        let fi = f.0 as usize;
        for o in index.out_start[fi]..index.out_end[fi] {
            mark(OutputId(o), &mut in_cone, &mut wl);
        }
    }
    // Entries that lost a caller (see `plan_base`): their committed
    // sets may shrink, and shrinkage propagates forward like any other
    // change.
    for &f in lost_callees {
        mark_target(f, &mut in_cone, &mut wl);
    }
    for &o in extra_roots {
        mark(o, &mut in_cone, &mut wl);
    }
    while let Some(o) = wl.pop() {
        // Each consumer of an in-cone output re-derives some outputs.
        let consumers: Vec<InputId> = g.consumers(OutputId(o)).to_vec();
        for inp in consumers {
            let info = g.input(inp);
            let n = g.node(info.node);
            match &n.kind {
                NodeKind::Call => {
                    if info.port == 0 {
                        for &out in &n.outputs {
                            mark(out, &mut in_cone, &mut wl);
                        }
                        for t in call_targets(g, info.node) {
                            mark_target(t, &mut in_cone, &mut wl);
                        }
                    } else {
                        if let Some(callees) = prev_edges.get(&info.node) {
                            for &t in callees {
                                mark_target(t, &mut in_cone, &mut wl);
                            }
                        }
                        // Under CS a new actual re-derives the call's
                        // own outputs (`repropagate_new_actual` pins
                        // return products to the newly committed
                        // assumption set); under k=1, `pull_returns`
                        // re-emits at the call under the arriving
                        // caller context.
                        if matches!(vocab, ConeVocab::Cs | ConeVocab::K1) {
                            for &out in &n.outputs {
                                mark(out, &mut in_cone, &mut wl);
                            }
                        }
                    }
                    // A call owned by a dirty function has no recorded
                    // edges, but its function input is dirty-owned and
                    // therefore in-cone, so the port-0 rule covers its
                    // targets.
                }
                NodeKind::Return { func } => {
                    if let Some(callers) = prev_callers.get(func) {
                        for &c in callers {
                            for &out in &g.node(c).outputs {
                                mark(out, &mut in_cone, &mut wl);
                            }
                        }
                    }
                    // Callers whose function input is in-cone have
                    // their outputs marked by the port-0 rule.
                }
                NodeKind::PassThrough => {
                    if info.port == 0 {
                        for &out in &n.outputs {
                            mark(out, &mut in_cone, &mut wl);
                        }
                    }
                }
                NodeKind::Primop => {}
                _ => {
                    for &out in &n.outputs {
                        mark(out, &mut in_cone, &mut wl);
                    }
                }
            }
        }
    }
    in_cone
}
