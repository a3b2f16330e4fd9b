//! A uniform driver-facing API over the five analyses.
//!
//! The solver set is closed — Weihl, Steensgaard, CI, k=1 call-strings
//! and assumption-set CS — so one value describes any of them: a
//! [`SolverSpec`] names the analysis ([`SolverKind`]) plus every knob,
//! and its [`SolverSpec::solve`] / [`SolverSpec::resume`] match on the
//! kind exhaustively. What comes back is open only on the read side:
//!
//! ```text
//!                    ┌───────────────┐
//!  Graph ──────────▶ │  SolverSpec   │ ──▶ SolutionBox (dyn Solution)
//!  Option<&CiResult> │ solve/resume  │       ├─ pairs(), flow counts
//!       (shared      │ match kind {  │       ├─ loc_referent_bases()
//!        vocabulary) │  five arms }  │       ├─ as_points_to()
//!                    └───────────────┘       └─ downcast_ref::<T>() (Any)
//! ```
//!
//! Passing the CI result is optional but meaningful twice over: the CS
//! solver *requires* CI facts for its §4.2 pruning (it computes its own
//! when given `None`), and the pair-based baselines seed their
//! [`PathTable`] from the CI one so that [`Pair`](crate::path::Pair)
//! ids remain comparable across solutions of the same graph.
//!
//! The concrete result types stay reachable through `Any`:
//! `sol.downcast_ref::<CiResult>()` borrows, `sol.downcast::<CsResult>()`
//! takes the box apart. New code should prefer the uniform queries
//! ([`Solution::referents_at`], [`Solution::covers`]).

use crate::callstring::{analyze_callstring_from, CallStringConfig, CallStringResult};
use crate::ci::{
    analyze_ci, analyze_ci_resume, CiConfig, CiResult, Fault, HeapNaming, WorklistOrder,
};
use crate::cs::{analyze_cs, CsConfig, CsResult};
use crate::fingerprint::{GraphIndex, StablePair};
use crate::pairset::Propagation;
use crate::path::{PathId, PathTable};
use crate::stats::PointsToSolution;
use crate::steensgaard::{analyze_steensgaard, SteensResult};
use crate::summary::{FunctionSummary, ResumeStats, SolverSummaries};
use crate::weihl::{analyze_weihl_with, WeihlResult};
use crate::AnalysisError;
use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use vdg::graph::{BaseId, Graph, NodeId, VFuncId};

/// A per-function summary extractor over one solution: `Sync` so the
/// engine's bottom-up composition driver can summarize independent
/// call-graph subtrees in parallel with no shared worklist.
pub type FuncExtractor<'a> = Box<dyn Fn(VFuncId) -> Option<FunctionSummary> + Sync + 'a>;

/// The product of a successful seeded resume: the re-solved solution
/// plus the reuse statistics the engine surfaces in `SolveMode` and
/// `ruf95 stats`.
pub struct ResumeOutcome {
    /// The resumed solution, fixpoint-identical to a fresh solve.
    pub solution: SolutionBox,
    /// Which functions re-summarized, and how much was seeded.
    pub stats: ResumeStats,
}

/// Why [`SolverSpec::resume`] declined to resume: the caller solves
/// fresh and reports the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeRefusal {
    /// Call-string heap naming keys heap paths to call sites, which the
    /// stable summary vocabulary does not carry.
    HeapNaming,
    /// Fault injection is active: the seeded and fresh runs would
    /// observe different transfer functions, and planted bugs must not
    /// be masked by cached facts.
    FaultInjection,
    /// The graph's naming is unstable (the recorded reason), so function
    /// fingerprints cannot be trusted across edits.
    UnstableNaming(String),
    /// There are no summaries in this solver's vocabulary to resume
    /// from.
    NoSummaries,
    /// The summaries cannot seed this solver: another vocabulary, or
    /// facts outside the stable vocabulary.
    PlanRejected,
    /// No function's fingerprint survived the edit; seeding would win
    /// nothing.
    EveryFunctionChanged,
    /// The resume itself exhausted the solver's step budget.
    StepBudget,
}

impl fmt::Display for ResumeRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeRefusal::HeapNaming => {
                f.write_str("call-string heap naming defeats stable summaries")
            }
            ResumeRefusal::FaultInjection => f.write_str("fault injection active"),
            ResumeRefusal::UnstableNaming(r) => write!(f, "unstable naming: {r}"),
            ResumeRefusal::NoSummaries => f.write_str("no summaries for this solver"),
            ResumeRefusal::PlanRejected => f.write_str("resume plan rejected"),
            ResumeRefusal::EveryFunctionChanged => f.write_str("every function changed"),
            ResumeRefusal::StepBudget => f.write_str("resume exhausted its step budget"),
        }
    }
}

/// A solved analysis, boxed behind the uniform [`Solution`] view.
pub type SolutionBox = Box<dyn Solution>;

/// Serial whole-program summary extraction via
/// [`Solution::func_extractor`]: the oracle the engine's parallel
/// composition driver cross-checks against. `None` when the solution
/// cannot be summarized: unstable naming, a missing companion, or facts
/// rooted at synthetic bases.
pub fn summarize_serial(
    graph: &Graph,
    index: &GraphIndex,
    sol: &dyn Solution,
    ci: Option<&CiResult>,
) -> Option<SolverSummaries> {
    if index.unsafe_reason.is_some() {
        return None;
    }
    let extract = sol.func_extractor(graph, index, ci)?;
    let mut out = SolverSummaries::new(sol.kind());
    for f in graph.func_ids() {
        out.funcs.insert(graph.func(f).name.clone(), extract(f)?);
    }
    out.store = sol.summary_store(graph, index)?;
    Some(out)
}

/// Uniform read-side view of any solver's result.
///
/// Everything a generic consumer (metrics, spectrum tables, the
/// parallel engine) needs, implementable even by the unification-based
/// solver that has no per-program-point pair sets. `Any` is a
/// supertrait, so the concrete result is one `downcast_ref` (an
/// inherent method of `dyn Solution`) away.
pub trait Solution: Any + Send {
    /// The analysis that produced this solution; also the vocabulary
    /// its summaries are expressed in.
    fn kind(&self) -> SolverKind;

    /// The producing analysis' [`SolverKind::name`].
    fn analysis(&self) -> &'static str {
        self.kind().name()
    }

    /// Total points-to pairs, for solvers with a pair representation.
    /// `None` for Steensgaard, whose solution is an ECR partition.
    fn pairs(&self) -> Option<usize>;

    /// Transfer-function applications (§4.2 `flow-in`s), if counted.
    fn flow_ins(&self) -> Option<u64>;

    /// Meet operations (§4.2 `flow-out`s), if counted.
    fn flow_outs(&self) -> Option<u64>;

    /// Emission attempts deduplicated by the committed sets (a
    /// representation statistic; scheduling-dependent). `None` when the
    /// solver does not track it.
    fn dedup_hits(&self) -> Option<u64> {
        None
    }

    /// Batched delta deliveries consumed under difference propagation.
    /// `None` for naive propagation or solvers without a delta mode.
    fn delta_batches(&self) -> Option<u64> {
        None
    }

    /// Worklist deliveries saved by batching: `flow_ins − delta_batches`,
    /// when both are known.
    fn deliveries_saved(&self) -> Option<u64> {
        match (self.flow_ins(), self.delta_batches()) {
            (Some(fi), Some(db)) => Some(fi.saturating_sub(db)),
            _ => None,
        }
    }

    /// Distinct base-locations the location input of memory-op `node`
    /// may reference — the coarsest granularity every solver supports,
    /// hence the common precision currency of the spectrum table.
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId>;

    /// Distinct base-locations the pointer value carried on `out` may
    /// reference, sorted and deduplicated. The output-level counterpart
    /// of [`Solution::loc_referent_bases`], needed by clients (the
    /// memory-safety checkers) that inspect values which are not the
    /// location input of a memory op — a `free`'s pointer argument, a
    /// `return`'s operand, an update's stored value.
    fn output_referent_bases(&self, graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId>;

    /// Path-granular referents of the location input of memory-op
    /// `node`, for solvers with a per-program-point pair
    /// representation. `None` for the unification baseline, whose
    /// solution has no per-point sets; callers (the interpreter oracle,
    /// the fuzz lattice checker) fall back to
    /// [`Solution::loc_referent_bases`].
    fn referents_at(&self, _graph: &Graph, _node: NodeId) -> Option<Vec<PathId>> {
        None
    }

    /// The interned path universe the referents are expressed in, when
    /// the representation has one. Paired with
    /// [`Solution::referents_at`]; both are `Some` or both `None`.
    fn path_universe(&self) -> Option<&PathTable> {
        None
    }

    /// Whether this (coarser) solution covers `finer` at every indirect
    /// memory reference: at each node of `graph.indirect_mem_ops()`,
    /// `finer`'s referent bases must be a subset of ours. This is the
    /// precision-lattice check (CS ⊆ k=1 ⊆ CI ⊆ Weihl) at the base
    /// granularity every solver supports. Returns `None` when the two
    /// solutions cannot be compared (reserved for future
    /// representations; the five built-in solvers always compare).
    fn covers(&self, graph: &Graph, finer: &dyn Solution) -> Option<bool> {
        for (node, _) in graph.indirect_mem_ops() {
            let coarse = self.loc_referent_bases(graph, node);
            let fine = finer.loc_referent_bases(graph, node);
            // Both sides are sorted and deduplicated by contract.
            if !fine.iter().all(|b| coarse.binary_search(b).is_ok()) {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Pair-level view, when the representation has one.
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        None
    }

    /// A `Sync` per-function summary extractor over this solution, or
    /// `None` when a required companion is missing (the CS extractor
    /// needs the CI solution it was pruned by). Drives both the serial
    /// [`summarize_serial`] and the engine's parallel bottom-up
    /// composition.
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>>;

    /// The program-wide store relation in stable vocabulary (Weihl
    /// only; everyone else returns an empty vec). `None` when a store
    /// fact cannot be expressed stably.
    fn summary_store(&self, _graph: &Graph, _index: &GraphIndex) -> Option<Vec<StablePair>> {
        Some(Vec::new())
    }

    /// A deep copy of the boxed solution. The incremental engine uses
    /// this to replay a cached solution without consuming the cache
    /// entry.
    fn clone_box(&self) -> SolutionBox;
}

impl dyn Solution {
    /// Borrows the concrete result when this solution is a `T`
    /// (`CiResult`, `CsResult`, `WeihlResult`, `CallStringResult` or
    /// [`SteensSolution`]).
    pub fn downcast_ref<T: Solution>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }

    /// Takes the box apart into the concrete result when this solution
    /// is a `T`; `None` (dropping the box) otherwise.
    pub fn downcast<T: Solution>(self: Box<Self>) -> Option<T> {
        (self as Box<dyn Any>).downcast().ok().map(|b| *b)
    }
}

/// Canonical rendered dump of a solution, for equivalence checks and
/// golden snapshots.
///
/// Everything is rendered to strings against `graph` and sorted, so the
/// dump is independent of solver schedule, path-id numbering, and of
/// *how* the solution was obtained (fresh, seeded resume, or cache
/// replay) — but changes whenever any answer the solution gives
/// changes. Flow counters are deliberately excluded: they describe the
/// work done, not the solution. For the CI solver the dump additionally
/// includes every per-output pair set and the discovered call graph.
pub fn solution_dump(sol: &dyn Solution, graph: &Graph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "analysis: {}", sol.analysis());
    if let Some(n) = sol.pairs() {
        let _ = writeln!(out, "pairs: {n}");
    }
    for (node, _) in graph.indirect_mem_ops() {
        let mut names: Vec<String> = match (sol.referents_at(graph, node), sol.path_universe()) {
            (Some(refs), Some(paths)) => refs.iter().map(|&p| paths.display(p, graph)).collect(),
            _ => sol
                .loc_referent_bases(graph, node)
                .iter()
                .map(|&b| crate::fingerprint::stable_base_key(graph, b))
                .collect(),
        };
        names.sort();
        names.dedup();
        let _ = writeln!(out, "op {}: [{}]", node.0, names.join(", "));
    }
    if let Some(ci) = sol.downcast_ref::<CiResult>() {
        for o in graph.output_ids() {
            let prs = ci.pairs(o);
            if prs.is_empty() {
                continue;
            }
            let mut rendered: Vec<String> = prs
                .iter()
                .map(|p| {
                    format!(
                        "{} -> {}",
                        ci.paths.display(p.path, graph),
                        ci.paths.display(p.referent, graph)
                    )
                })
                .collect();
            rendered.sort();
            let _ = writeln!(out, "out {}: [{}]", o.0, rendered.join(", "));
        }
        let mut calls: Vec<String> = ci
            .callees
            .iter()
            .map(|(n, fs)| {
                let names: Vec<&str> = fs.iter().map(|&f| graph.func(f).name.as_str()).collect();
                format!("call {}: [{}]", n.0, names.join(", "))
            })
            .collect();
        calls.sort();
        for c in calls {
            let _ = writeln!(out, "{c}");
        }
    }
    out
}

/// FNV-1a digest of [`solution_dump`] — the byte-identity currency of
/// the edit-replay equivalence harness.
pub fn solution_fingerprint(sol: &dyn Solution, graph: &Graph) -> u64 {
    crate::fingerprint::fnv64(solution_dump(sol, graph).as_bytes())
}

/// Collapses path-granular referents to distinct bases.
fn bases_of(paths: &PathTable, refs: &[PathId]) -> Vec<BaseId> {
    let mut b: Vec<BaseId> = refs.iter().filter_map(|&p| paths.base_of(p)).collect();
    b.sort_unstable();
    b.dedup();
    b
}

impl Solution for CiResult {
    fn kind(&self) -> SolverKind {
        SolverKind::Ci
    }
    fn pairs(&self) -> Option<usize> {
        Some(self.total_pairs())
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.flow_ins)
    }
    fn flow_outs(&self) -> Option<u64> {
        Some(self.flow_outs)
    }
    fn dedup_hits(&self) -> Option<u64> {
        Some(self.dedup_hits)
    }
    fn delta_batches(&self) -> Option<u64> {
        self.delta_batches
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        bases_of(&self.paths, &self.loc_referents(graph, node))
    }
    fn output_referent_bases(&self, _graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let refs: Vec<PathId> = self.pairs(out).iter().map(|p| p.referent).collect();
        bases_of(&self.paths, &refs)
    }
    fn referents_at(&self, graph: &Graph, node: NodeId) -> Option<Vec<PathId>> {
        Some(self.loc_referents(graph, node))
    }
    fn path_universe(&self) -> Option<&PathTable> {
        Some(&self.paths)
    }
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        Some(self)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        Some(Box::new(move |f| {
            crate::fingerprint::extract_ci_func(graph, index, self, f)
        }))
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(self.clone())
    }
}

impl Solution for CsResult {
    fn kind(&self) -> SolverKind {
        SolverKind::Cs
    }
    fn pairs(&self) -> Option<usize> {
        Some(self.total_pairs())
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.flow_ins)
    }
    fn flow_outs(&self) -> Option<u64> {
        Some(self.flow_outs)
    }
    fn dedup_hits(&self) -> Option<u64> {
        Some(self.dedup_hits)
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        bases_of(&self.paths, &self.loc_referents(graph, node))
    }
    fn output_referent_bases(&self, _graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let refs: Vec<PathId> = self.pairs_at(out).iter().map(|p| p.referent).collect();
        bases_of(&self.paths, &refs)
    }
    fn referents_at(&self, graph: &Graph, node: NodeId) -> Option<Vec<PathId>> {
        Some(self.loc_referents(graph, node))
    }
    fn path_universe(&self) -> Option<&PathTable> {
        Some(&self.paths)
    }
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        Some(self)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        // The extractor records the CI pruning facts each memory
        // operation was solved under, so the CI companion is required.
        let ci = ci?;
        Some(Box::new(move |f| {
            crate::cs::extract_func(self, graph, index, ci, f)
        }))
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(self.clone())
    }
}

impl Solution for WeihlResult {
    fn kind(&self) -> SolverKind {
        SolverKind::Weihl
    }
    fn pairs(&self) -> Option<usize> {
        Some(self.total_pairs())
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.flow_ins)
    }
    fn flow_outs(&self) -> Option<u64> {
        Some(self.flow_outs)
    }
    fn dedup_hits(&self) -> Option<u64> {
        Some(self.dedup_hits)
    }
    fn delta_batches(&self) -> Option<u64> {
        self.delta_batches
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        bases_of(&self.paths, &self.loc_referents(graph, node))
    }
    fn output_referent_bases(&self, _graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let refs: Vec<PathId> = self.value_pairs(out).iter().map(|p| p.referent).collect();
        bases_of(&self.paths, &refs)
    }
    fn referents_at(&self, graph: &Graph, node: NodeId) -> Option<Vec<PathId>> {
        Some(self.loc_referents(graph, node))
    }
    fn path_universe(&self) -> Option<&PathTable> {
        Some(&self.paths)
    }
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        Some(self)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        Some(Box::new(move |f| {
            crate::weihl::extract_func(self, graph, index, f)
        }))
    }
    fn summary_store(&self, graph: &Graph, index: &GraphIndex) -> Option<Vec<StablePair>> {
        crate::weihl::extract_store(self, graph, index)
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(self.clone())
    }
}

/// [`SteensResult`] behind the uniform view. Union-find queries compress
/// paths, so the interior is mutable; the `RefCell` keeps the shared
/// `&self` query API of the other solutions.
pub struct SteensSolution {
    inner: RefCell<SteensResult>,
}

impl SteensSolution {
    /// The wrapped union-find result, for callers that need the
    /// concrete (`&mut`) query API.
    pub fn into_inner(self) -> SteensResult {
        self.inner.into_inner()
    }
}

impl Solution for SteensSolution {
    fn kind(&self) -> SolverKind {
        SolverKind::Steensgaard
    }
    fn pairs(&self) -> Option<usize> {
        None
    }
    fn flow_ins(&self) -> Option<u64> {
        None
    }
    fn flow_outs(&self) -> Option<u64> {
        None
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        let mut bases = self.inner.borrow_mut().loc_bases(graph, node);
        bases.sort_unstable();
        bases.dedup();
        bases
    }
    fn output_referent_bases(&self, graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let mut bases = self.inner.borrow_mut().points_to_bases(out, graph);
        bases.sort_unstable();
        bases.dedup();
        bases
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        // Purely syntactic: the atoms come from the graph alone, so the
        // closure captures no union-find state and is trivially `Sync`.
        Some(Box::new(move |f| {
            Some(crate::steensgaard::extract_func(graph, index, f))
        }))
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(SteensSolution {
            inner: RefCell::new(self.inner.borrow().clone()),
        })
    }
}

impl Solution for CallStringResult {
    fn kind(&self) -> SolverKind {
        SolverKind::CallString1
    }
    fn pairs(&self) -> Option<usize> {
        Some(self.total_pairs())
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.flow_ins)
    }
    fn flow_outs(&self) -> Option<u64> {
        Some(self.flow_outs)
    }
    fn dedup_hits(&self) -> Option<u64> {
        Some(self.dedup_hits)
    }
    fn delta_batches(&self) -> Option<u64> {
        self.delta_batches
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        bases_of(&self.paths, &self.loc_referents(graph, node))
    }
    fn output_referent_bases(&self, _graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let refs: Vec<PathId> = self.pairs(out).iter().map(|p| p.referent).collect();
        bases_of(&self.paths, &refs)
    }
    fn referents_at(&self, graph: &Graph, node: NodeId) -> Option<Vec<PathId>> {
        Some(self.loc_referents(graph, node))
    }
    fn path_universe(&self) -> Option<&PathTable> {
        Some(&self.paths)
    }
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        Some(self)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        Some(Box::new(move |f| {
            crate::callstring::extract_func(self, graph, index, f)
        }))
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(self.clone())
    }
}

/// Which of the five analyses a [`SolverSpec`] describes, and which
/// vocabulary a [`SolverSummaries`] is expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Weihl's program-wide flow-insensitive baseline.
    Weihl,
    /// Steensgaard's unification baseline.
    Steensgaard,
    /// The context-insensitive analysis (§3).
    Ci,
    /// The k=1 call-string analysis.
    CallString1,
    /// The assumption-set context-sensitive analysis (§4).
    Cs,
}

impl SolverKind {
    /// All five analyses in spectrum order — coarsest (Weihl) to finest
    /// (assumption-set CS).
    pub const ALL: [SolverKind; 5] = [
        SolverKind::Weihl,
        SolverKind::Steensgaard,
        SolverKind::Ci,
        SolverKind::CallString1,
        SolverKind::Cs,
    ];

    /// Stable machine-readable name, used in reports, the protocol and
    /// the persistent store's versioned `SummaryPayload`.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Weihl => "weihl",
            SolverKind::Steensgaard => "steensgaard",
            SolverKind::Ci => "ci",
            SolverKind::CallString1 => "k1",
            SolverKind::Cs => "cs",
        }
    }

    /// Inverse of [`SolverKind::name`].
    pub fn by_name(name: &str) -> Option<SolverKind> {
        SolverKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One builder-style description of any solver configuration, and the
/// solver itself.
///
/// Collapses the per-solver config scatter (`CiConfig`, `CsConfig`,
/// `CallStringConfig`, the `Propagation` knob, step budgets) into a
/// single value that every harness — the engine, the CLI `spectrum`,
/// the figure bins, the fuzzer — solves with, so no caller hard-codes
/// five call sites again. Knobs a given analysis does not have are
/// simply ignored by [`SolverSpec::solve`]:
///
/// ```
/// use alias::SolverSpec;
/// let spec = SolverSpec::cs().subsumption(false).max_steps(1_000_000);
/// assert_eq!(spec.name(), "cs");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverSpec {
    kind: SolverKind,
    strong_updates: bool,
    order: WorklistOrder,
    heap_naming: HeapNaming,
    propagation: Propagation,
    subsumption: bool,
    ci_pruning: bool,
    max_steps: u64,
    fault: Fault,
}

impl SolverSpec {
    /// A spec for `kind` with the paper-default knobs.
    pub fn new(kind: SolverKind) -> SolverSpec {
        let cs = CsConfig::default();
        SolverSpec {
            kind,
            strong_updates: true,
            order: WorklistOrder::default(),
            heap_naming: HeapNaming::default(),
            propagation: Propagation::default(),
            subsumption: cs.subsumption,
            ci_pruning: cs.ci_pruning,
            max_steps: cs.max_steps,
            fault: Fault::None,
        }
    }

    /// The context-insensitive analysis (§3), default knobs.
    pub fn ci() -> SolverSpec {
        SolverSpec::new(SolverKind::Ci)
    }

    /// The assumption-set CS analysis (§4), default knobs.
    pub fn cs() -> SolverSpec {
        SolverSpec::new(SolverKind::Cs)
    }

    /// Weihl's flow-insensitive baseline, default knobs.
    pub fn weihl() -> SolverSpec {
        SolverSpec::new(SolverKind::Weihl)
    }

    /// Steensgaard's unification baseline (no knobs).
    pub fn steensgaard() -> SolverSpec {
        SolverSpec::new(SolverKind::Steensgaard)
    }

    /// The k=1 call-string analysis, default knobs.
    pub fn k1() -> SolverSpec {
        SolverSpec::new(SolverKind::CallString1)
    }

    /// Looks up a default spec by [`SolverKind::name`].
    pub fn by_name(name: &str) -> Option<SolverSpec> {
        SolverKind::by_name(name).map(SolverSpec::new)
    }

    /// All five analyses with default knobs, in spectrum order —
    /// coarsest (Weihl) to finest (assumption-set CS).
    pub fn all() -> Vec<SolverSpec> {
        SolverKind::ALL.into_iter().map(SolverSpec::new).collect()
    }

    /// All five analyses with difference propagation disabled wherever
    /// a solver has that knob (CI, Weihl, k=1). Steensgaard and the
    /// assumption-set CS analysis have no naive/delta distinction.
    pub fn all_naive() -> Vec<SolverSpec> {
        SolverSpec::all()
            .into_iter()
            .map(|s| s.propagation(Propagation::Naive))
            .collect()
    }

    /// Which analysis this spec describes.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// The spec's [`SolverKind::name`].
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// A stable textual key over every knob, for cache maps keyed by
    /// solver configuration. Two specs share a key iff they are equal.
    pub fn key(&self) -> String {
        format!("{self:?}")
    }

    /// Perform strong updates (CI, CS, k=1).
    pub fn strong_updates(mut self, on: bool) -> SolverSpec {
        self.strong_updates = on;
        self
    }

    /// Worklist discipline (CI; results are order-independent).
    pub fn order(mut self, order: WorklistOrder) -> SolverSpec {
        self.order = order;
        self
    }

    /// Heap allocation-site naming (CI, CS).
    pub fn heap_naming(mut self, naming: HeapNaming) -> SolverSpec {
        self.heap_naming = naming;
        self
    }

    /// Propagation discipline (CI, Weihl, k=1; results are
    /// discipline-independent).
    pub fn propagation(mut self, propagation: Propagation) -> SolverSpec {
        self.propagation = propagation;
        self
    }

    /// Assumption-set subsumption (CS, §4.2).
    pub fn subsumption(mut self, on: bool) -> SolverSpec {
        self.subsumption = on;
        self
    }

    /// CI-backed assumption pruning (CS, §4.2).
    pub fn ci_pruning(mut self, on: bool) -> SolverSpec {
        self.ci_pruning = on;
        self
    }

    /// Step budget for the potentially exponential solvers (CS, k=1).
    pub fn max_steps(mut self, steps: u64) -> SolverSpec {
        self.max_steps = steps;
        self
    }

    /// Fault injection (CI only), for the fuzzer's planted-bug
    /// self-test. Keep [`Fault::None`] everywhere else.
    pub fn fault(mut self, fault: Fault) -> SolverSpec {
        self.fault = fault;
        self
    }

    /// The spec's knobs projected onto a [`CiConfig`].
    pub fn ci_config(&self) -> CiConfig {
        CiConfig {
            strong_updates: self.strong_updates,
            order: self.order,
            heap_naming: self.heap_naming,
            propagation: self.propagation,
            fault: self.fault,
        }
    }

    /// The spec's knobs projected onto a [`CsConfig`].
    pub fn cs_config(&self) -> CsConfig {
        CsConfig {
            heap_naming: self.heap_naming,
            subsumption: self.subsumption,
            ci_pruning: self.ci_pruning,
            strong_updates: self.strong_updates,
            max_steps: self.max_steps,
        }
    }

    /// The spec's knobs projected onto a [`CallStringConfig`].
    pub fn callstring_config(&self) -> CallStringConfig {
        CallStringConfig {
            strong_updates: self.strong_updates,
            max_steps: self.max_steps,
            propagation: self.propagation,
        }
    }

    /// Runs the described analysis over `graph`. Knobs the analysis
    /// does not have are ignored.
    ///
    /// `ci` is an optional previously computed context-insensitive
    /// solution *for the same graph*: the CS solver uses it for the
    /// §4.2 pruning optimizations (and computes its own if absent), and
    /// the pair-based baselines adopt its path table so pair ids stay
    /// comparable across solvers. Passing a CI result from a different
    /// graph is a logic error.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::StepLimit`] when a budgeted solver (CS, k=1)
    /// exhausts [`SolverSpec::max_steps`]; the always-terminating
    /// solvers never fail.
    pub fn solve(
        &self,
        graph: &Graph,
        ci: Option<&CiResult>,
    ) -> Result<SolutionBox, AnalysisError> {
        Ok(match self.kind {
            SolverKind::Weihl => Box::new(analyze_weihl_with(
                graph,
                shared_paths(graph, ci),
                self.propagation,
            )),
            SolverKind::Steensgaard => Box::new(SteensSolution {
                inner: RefCell::new(analyze_steensgaard(graph)),
            }),
            SolverKind::Ci => Box::new(analyze_ci(graph, &self.ci_config())),
            SolverKind::CallString1 => Box::new(analyze_callstring_from(
                graph,
                shared_paths(graph, ci),
                &self.callstring_config(),
            )?),
            SolverKind::Cs => match ci {
                Some(ci) => Box::new(analyze_cs(graph, ci, &self.cs_config())?),
                None => Box::new(analyze_cs(
                    graph,
                    &self.cs_companion(graph),
                    &self.cs_config(),
                )?),
            },
        })
    }

    /// Re-solves `graph` seeded from a previous run's summaries: clean
    /// functions' facts replay as silent seeds, only the dirty cone
    /// iterates, and the result is fixpoint-identical to a fresh solve
    /// (the subset-seeding argument, per vocabulary — see `DESIGN.md`
    /// §12). `ci` is the same optional companion as for
    /// [`SolverSpec::solve`].
    ///
    /// # Errors
    ///
    /// A [`ResumeRefusal`] saying why the caller must solve fresh
    /// instead. The gates run in a fixed order: call-string heap naming
    /// (CI, CS), fault injection (CI), unstable naming, no summaries
    /// (`prev` is `None`), summaries in another vocabulary, no function
    /// left clean; then the resume itself may exhaust a step budget.
    pub fn resume(
        &self,
        graph: &Graph,
        index: &GraphIndex,
        prev: Option<&SolverSummaries>,
        ci: Option<&CiResult>,
    ) -> Result<ResumeOutcome, ResumeRefusal> {
        let uses_heap_naming = matches!(self.kind, SolverKind::Ci | SolverKind::Cs);
        if uses_heap_naming && self.heap_naming != HeapNaming::Site {
            return Err(ResumeRefusal::HeapNaming);
        }
        if self.kind == SolverKind::Ci && self.fault != Fault::None {
            return Err(ResumeRefusal::FaultInjection);
        }
        if let Some(r) = &index.unsafe_reason {
            return Err(ResumeRefusal::UnstableNaming(r.clone()));
        }
        let prev = prev.ok_or(ResumeRefusal::NoSummaries)?;
        if prev.vocab != self.kind {
            return Err(ResumeRefusal::PlanRejected);
        }
        let any_clean = graph.func_ids().any(|f| {
            prev.funcs
                .get(&graph.func(f).name)
                .is_some_and(|s| s.fingerprint == index.func_fps[f.0 as usize])
        });
        if !any_clean {
            return Err(ResumeRefusal::EveryFunctionChanged);
        }
        let (solution, stats): (SolutionBox, ResumeStats) = match self.kind {
            SolverKind::Ci => {
                let (result, stats) = analyze_ci_resume(graph, index, prev, &self.ci_config());
                (Box::new(result), stats)
            }
            SolverKind::Cs => {
                // The seeded CS needs the *current* CI companion both
                // for pruning and for the pruning-drift check; compute
                // one with matching knobs if the caller has none,
                // exactly as `solve`.
                let owned;
                let ci = match ci {
                    Some(ci) => ci,
                    None => {
                        owned = self.cs_companion(graph);
                        &owned
                    }
                };
                let (result, stats) =
                    crate::cs::analyze_cs_resume(graph, index, ci, prev, &self.cs_config())
                        .map_err(|_| ResumeRefusal::StepBudget)?;
                (Box::new(result), stats)
            }
            SolverKind::Weihl => {
                let (result, stats) = crate::weihl::analyze_weihl_resume(
                    graph,
                    index,
                    prev,
                    shared_paths(graph, ci),
                    self.propagation,
                );
                (Box::new(result), stats)
            }
            SolverKind::Steensgaard => {
                let (result, stats) = crate::steensgaard::replay_steensgaard(graph, index, prev)
                    .ok_or(ResumeRefusal::PlanRejected)?;
                let solution = SteensSolution {
                    inner: RefCell::new(result),
                };
                (Box::new(solution), stats)
            }
            SolverKind::CallString1 => {
                let (result, stats) = crate::callstring::analyze_callstring_resume(
                    graph,
                    index,
                    prev,
                    shared_paths(graph, ci),
                    &self.callstring_config(),
                )
                .map_err(|_| ResumeRefusal::StepBudget)?;
                (Box::new(result), stats)
            }
        };
        Ok(ResumeOutcome { solution, stats })
    }

    /// Runs the CI analysis with this spec's knobs and hands back the
    /// concrete result — the one typed entry point harnesses use to
    /// compute the shared vocabulary they then pass to
    /// [`SolverSpec::solve`]. The spec's [`SolverSpec::kind`] is
    /// ignored: whatever analysis it names, the CI projection of its
    /// knobs is what runs.
    pub fn solve_ci(&self, graph: &Graph) -> CiResult {
        analyze_ci(graph, &self.ci_config())
    }

    /// The CI companion a CS solve computes when the caller has none:
    /// pruning requires heap naming and strong updates to agree.
    fn cs_companion(&self, graph: &Graph) -> CiResult {
        analyze_ci(
            graph,
            &CiConfig {
                strong_updates: self.strong_updates,
                heap_naming: self.heap_naming,
                ..CiConfig::default()
            },
        )
    }
}

/// The path table a pair-based baseline starts from: the shared CI
/// one when given, so pair ids stay comparable across solutions.
fn shared_paths(graph: &Graph, ci: Option<&CiResult>) -> PathTable {
    match ci {
        Some(ci) => ci.paths.clone(),
        None => PathTable::for_graph(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> Graph {
        let p = cfront::compile(src).unwrap();
        vdg::lower(&p, &vdg::BuildOptions::default()).unwrap()
    }

    const SRC: &str = "int g; int h; int *gp;
        int pick(int c, int *a, int *b) { if (c) { gp = a; } else { gp = b; } return *gp; }
        int main(void) { int x; x = pick(1, &g, &h); return x; }";

    #[test]
    fn registry_has_five_distinct_solvers() {
        let names: Vec<&str> = SolverSpec::all().iter().map(SolverSpec::name).collect();
        assert_eq!(names, ["weihl", "steensgaard", "ci", "k1", "cs"]);
        assert!(SolverSpec::by_name("cs").is_some());
        assert!(SolverSpec::by_name("andersen").is_none());
        assert!(SolverSpec::by_name("demand").is_none());
    }

    #[test]
    fn every_solver_produces_a_queryable_solution() {
        let graph = graph_of(SRC);
        let ci = analyze_ci(&graph, &CiConfig::default());
        for s in SolverSpec::all() {
            let sol = s.solve(&graph, Some(&ci)).unwrap();
            assert_eq!(sol.kind(), s.kind());
            assert_eq!(sol.analysis(), s.name());
            for (node, _) in graph.indirect_mem_ops() {
                assert!(
                    !sol.loc_referent_bases(&graph, node).is_empty(),
                    "{}: no referents",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn cs_without_shared_ci_computes_its_own() {
        let graph = graph_of(SRC);
        let ci = analyze_ci(&graph, &CiConfig::default());
        let with = SolverSpec::cs().solve(&graph, Some(&ci)).unwrap();
        let without = SolverSpec::cs().solve(&graph, None).unwrap();
        assert_eq!(with.pairs(), without.pairs());
    }
}
