//! Content-addressed function fingerprints, cross-graph fact
//! translation, and dirty-cone computation for incremental re-analysis.
//!
//! The incremental layer (`engine::incremental`) re-analyzes an edited
//! program by reusing the committed pair sets of functions whose VDG
//! content did not change. Three pieces make that sound:
//!
//! 1. **Fingerprints** ([`GraphIndex`]): a 64-bit content hash per
//!    function over the contiguous node slice the function owns — node
//!    kinds (with graph-local ids replaced by stable names), output
//!    value kinds, and intra-function edge offsets. Two functions with
//!    equal fingerprints lower to isomorphic subgraphs, so their
//!    outputs correspond by offset.
//! 2. **Stable facts** ([`crate::summary::FunctionSummary`]): committed
//!    pairs re-expressed with graph-independent vocabulary —
//!    base-locations by stable key (global name, `func:local` name,
//!    heap site label, …) and access paths as operator strings — so a
//!    summary extracted from one graph can be re-interned into the
//!    [`PathTable`] of another. Each solver has its own fact shape
//!    ([`crate::summary::FuncFacts`]); this module owns the CI shape
//!    and the shared classification/cone machinery the other solvers'
//!    planners build on ([`plan_base`], [`compute_cone_for`]).
//! 3. **The dirty cone** ([`compute_cone`]): the forward closure, over
//!    static consumer edges plus call/return boundaries, of every
//!    output owned by a changed function. Outputs *outside* the cone
//!    provably receive exactly the deliveries they received in the
//!    previous run, so their final committed sets are unchanged and can
//!    be installed as seeds; outputs inside are recomputed from those
//!    seeds (see [`crate::ci::analyze_ci_resume`]). Because the CI
//!    transfer system is monotone in the committed sets (including the
//!    strong-update rule, whose pass condition "∃ a non-killing
//!    location pair" only grows as location sets grow), iterating from
//!    a subset of the least fixpoint converges to exactly the least
//!    fixpoint — the seeded resume is bit-identical to from-scratch.

use crate::ci::CiResult;
use crate::fxhash::{HashMap, HashSet};
use crate::path::{AccessOp, Pair, PathId, PathTable};
use crate::solver::SolverKind;
use crate::summary::{FuncFacts, FunctionSummary, SolverSummaries};
use vdg::graph::{BaseKind, Graph, NodeId, NodeKind, OutputId, VFuncId, ValueKind};

/// FNV-1a, 64-bit — the workspace-standard dependency-free hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds one `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string (self-delimiting).
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Convenience one-shot digest of a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One-shot digest of several parts, each length-prefixed so the
/// concatenation is unambiguous: `["ab", "c"]` and `["a", "bc"]` hash
/// differently. The campaign runner keys its deduplication maps with
/// this (check kind + source line, property + solver + repro).
pub fn fnv64_parts(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv64::new();
    for p in parts {
        h.write_u32(p.len() as u32);
        h.write(p);
    }
    h.finish()
}

/// Per-graph stable naming plus content fingerprints.
///
/// Built once per lowered graph; everything the incremental planner
/// needs to match functions, bases, and outputs across two graphs.
pub struct GraphIndex {
    /// Stable key per base-location (`BaseId`-indexed). Keys are unique
    /// when [`GraphIndex::unsafe_reason`] is `None`.
    pub base_keys: Vec<String>,
    /// Inverse of [`GraphIndex::base_keys`].
    pub base_by_key: HashMap<String, u32>,
    /// Owning function per node.
    pub node_owner: Vec<VFuncId>,
    /// Function lookup by name.
    pub func_by_name: HashMap<String, VFuncId>,
    /// First owned node id per function (functions own contiguous node
    /// ranges by construction of the lowering).
    pub node_start: Vec<u32>,
    /// One past the last owned node id per function.
    pub node_end: Vec<u32>,
    /// Smallest owned output id per function.
    pub out_start: Vec<u32>,
    /// One past the largest owned output id per function.
    pub out_end: Vec<u32>,
    /// Content fingerprint per function.
    pub func_fps: Vec<u64>,
    /// Whole-graph fingerprint: equal fingerprints mean the two graphs
    /// are isomorphic id-for-id, so a cached solution replays verbatim.
    pub graph_fp: u64,
    /// When `Some`, stable naming is ambiguous (duplicate keys, Cooper
    /// companion bases) and incremental seeding must fall back to a
    /// fresh solve with this logged reason.
    pub unsafe_reason: Option<String>,
}

/// The stable key of one base-location. Kind-prefixed so keys cannot
/// collide across kinds.
///
/// String literals are keyed here by their program-wide sequence
/// number, which shifts whenever a literal is added or removed earlier
/// in the program. [`GraphIndex::build`] re-keys them as
/// `s:<owner>:<k>` (the k-th literal referenced by function `owner`),
/// so that an edit inside one function cannot invalidate another
/// function's literal facts.
pub fn stable_base_key(g: &Graph, b: vdg::graph::BaseId) -> String {
    match &g.base(b).kind {
        BaseKind::Global { name } => format!("g:{name}"),
        BaseKind::Local { func, name } => format!("l:{}:{name}", g.func(*func).name),
        BaseKind::Heap { site } => format!("h:{site}"),
        BaseKind::StrLit { index } => format!("s:{index}"),
        BaseKind::Func { func } => format!("f:{}", g.func(*func).name),
    }
}

impl GraphIndex {
    /// Builds the index for `graph`.
    pub fn build(graph: &Graph) -> GraphIndex {
        let node_owner = crate::modref::node_owner_map(graph);
        let nf = graph.func_count();
        let mut unsafe_reason = None;

        // A string-literal base's program-wide sequence number shifts
        // whenever a literal appears or disappears earlier in the
        // program, which would let an edit in one function invalidate
        // every later function's facts. Re-key each literal by the
        // function whose node references it plus a per-function
        // counter: edits then only perturb the edited function's own
        // literal keys.
        let mut lit_owner: HashMap<u32, VFuncId> = HashMap::default();
        for id in 0..graph.node_count() as u32 {
            if let NodeKind::Base(b) = graph.node(NodeId(id)).kind {
                if matches!(graph.base(b).kind, BaseKind::StrLit { .. }) {
                    lit_owner.entry(b.0).or_insert(node_owner[id as usize]);
                }
            }
        }
        let mut lit_count: HashMap<u32, u32> = HashMap::default();
        let mut base_keys = Vec::with_capacity(graph.base_count());
        let mut base_by_key = HashMap::default();
        for b in graph.base_ids() {
            if graph.base(b).cooper_older.is_some() {
                unsafe_reason
                    .get_or_insert_with(|| "graph uses Cooper companion bases".to_string());
            }
            let key = match (&graph.base(b).kind, lit_owner.get(&b.0)) {
                (BaseKind::StrLit { .. }, Some(&f)) => {
                    let c = lit_count.entry(f.0).or_insert(0);
                    let k = *c;
                    *c += 1;
                    format!("s:{}:{k}", graph.func(f).name)
                }
                _ => stable_base_key(graph, b),
            };
            if base_by_key.insert(key.clone(), b.0).is_some() {
                unsafe_reason.get_or_insert_with(|| format!("duplicate base key `{key}`"));
            }
            base_keys.push(key);
        }

        let mut func_by_name = HashMap::default();
        for f in graph.func_ids() {
            let name = graph.func(f).name.clone();
            if func_by_name.insert(name.clone(), f).is_some() {
                unsafe_reason.get_or_insert_with(|| format!("duplicate function name `{name}`"));
            }
        }

        // Node and output ranges per function. Both are contiguous by
        // construction; verify rather than trust.
        let mut node_start = vec![u32::MAX; nf];
        let mut node_end = vec![0u32; nf];
        let mut node_count = vec![0u32; nf];
        for (i, &f) in node_owner.iter().enumerate() {
            let i = i as u32;
            let fi = f.0 as usize;
            node_start[fi] = node_start[fi].min(i);
            node_end[fi] = node_end[fi].max(i + 1);
            node_count[fi] += 1;
        }
        let mut out_start = vec![u32::MAX; nf];
        let mut out_end = vec![0u32; nf];
        let mut out_count = vec![0u32; nf];
        for o in graph.output_ids() {
            let f = node_owner[graph.output(o).node.0 as usize];
            let fi = f.0 as usize;
            out_start[fi] = out_start[fi].min(o.0);
            out_end[fi] = out_end[fi].max(o.0 + 1);
            out_count[fi] += 1;
        }
        for fi in 0..nf {
            if node_start[fi] == u32::MAX {
                node_start[fi] = node_end[fi];
            }
            if out_start[fi] == u32::MAX {
                out_start[fi] = out_end[fi];
            }
            if node_end[fi] - node_start[fi] != node_count[fi]
                || out_end[fi] - out_start[fi] != out_count[fi]
            {
                unsafe_reason.get_or_insert_with(|| {
                    format!(
                        "non-contiguous id range for `{}`",
                        graph.func(VFuncId(fi as u32)).name
                    )
                });
            }
        }

        let mut idx = GraphIndex {
            base_keys,
            base_by_key,
            node_owner,
            func_by_name,
            node_start,
            node_end,
            out_start,
            out_end,
            func_fps: Vec::new(),
            graph_fp: 0,
            unsafe_reason,
        };
        idx.func_fps = (0..nf)
            .map(|fi| idx.func_fingerprint(graph, VFuncId(fi as u32)))
            .collect();
        idx.graph_fp = idx.graph_fingerprint(graph);
        idx
    }

    /// The output at `offset` within function `f`'s contiguous range.
    pub fn output_at(&self, f: VFuncId, offset: u32) -> OutputId {
        OutputId(self.out_start[f.0 as usize] + offset)
    }

    /// The offset of output `o` within its owner's range.
    pub fn output_offset(&self, g: &Graph, o: OutputId) -> u32 {
        let f = self.node_owner[g.output(o).node.0 as usize];
        o.0 - self.out_start[f.0 as usize]
    }

    /// Content fingerprint of `f`: the function's node slice with every
    /// graph-local id replaced by a stable name or an intra-function
    /// offset. Equal fingerprints ⇒ isomorphic function subgraphs.
    fn func_fingerprint(&self, g: &Graph, f: VFuncId) -> u64 {
        let fi = f.0 as usize;
        let info = g.func(f);
        let mut h = Fnv64::new();
        h.write_str(&info.name);
        h.write_u32(info.address_taken as u32);
        h.write_u32(info.returns.len() as u32);
        h.write_u32((info.entry.0).wrapping_sub(self.node_start[fi]));
        let (ns, ne) = (self.node_start[fi], self.node_end[fi]);
        h.write_u32(ne - ns);
        for id in ns..ne {
            let n = g.node(NodeId(id));
            self.hash_kind(g, &n.kind, &mut h);
            h.write_u32(n.outputs.len() as u32);
            for &o in &n.outputs {
                h.write_u32(match g.output(o).kind {
                    ValueKind::Store => 0,
                    ValueKind::Ptr => 1,
                    ValueKind::Func => 2,
                    ValueKind::Agg { has_ptr: false } => 3,
                    ValueKind::Agg { has_ptr: true } => 4,
                    ValueKind::Scalar => 5,
                });
            }
            h.write_u32(n.inputs.len() as u32);
            for &inp in &n.inputs {
                let src = g.input(inp).src;
                let src_node = g.output(src).node;
                // Intra-function by construction: offset of the source
                // node, plus the port index of the source output.
                h.write_u32((src_node.0).wrapping_sub(ns));
                let port = g
                    .node(src_node)
                    .outputs
                    .iter()
                    .position(|&x| x == src)
                    .unwrap_or(usize::MAX) as u32;
                h.write_u32(port);
            }
        }
        h.finish()
    }

    fn hash_base(&self, g: &Graph, b: vdg::graph::BaseId, h: &mut Fnv64) {
        h.write_str(&self.base_keys[b.0 as usize]);
        h.write_u32(g.base(b).single_instance as u32);
    }

    fn hash_kind(&self, g: &Graph, kind: &NodeKind, h: &mut Fnv64) {
        match kind {
            NodeKind::Base(b) => {
                h.write_u32(0);
                self.hash_base(g, *b, h);
            }
            NodeKind::Alloc(b) => {
                h.write_u32(1);
                self.hash_base(g, *b, h);
            }
            NodeKind::FuncConst(b) => {
                h.write_u32(2);
                self.hash_base(g, *b, h);
            }
            NodeKind::InitStore => h.write_u32(3),
            NodeKind::ScalarConst => h.write_u32(4),
            NodeKind::NullConst => h.write_u32(5),
            NodeKind::Member(fid) => {
                h.write_u32(6);
                h.write_str(g.field_name(*fid));
            }
            NodeKind::IndexElem => h.write_u32(7),
            NodeKind::PassThrough => h.write_u32(8),
            NodeKind::ExtractField(fid) => {
                h.write_u32(9);
                h.write_str(g.field_name(*fid));
            }
            NodeKind::ExtractElem => h.write_u32(10),
            NodeKind::Primop => h.write_u32(11),
            NodeKind::Gamma => h.write_u32(12),
            NodeKind::Lookup { indirect } => {
                h.write_u32(13);
                h.write_u32(*indirect as u32);
            }
            NodeKind::Update { indirect } => {
                h.write_u32(14);
                h.write_u32(*indirect as u32);
            }
            NodeKind::Call => h.write_u32(15),
            NodeKind::Return { func } => {
                h.write_u32(16);
                h.write_str(&g.func(*func).name);
            }
            NodeKind::Entry { func } => {
                h.write_u32(17);
                h.write_str(&g.func(*func).name);
            }
            NodeKind::CopyMem => h.write_u32(18),
            NodeKind::Free => h.write_u32(19),
        }
    }

    /// Whole-graph fingerprint: per-function fingerprints in id order
    /// plus everything that pins the id layout (node/output ranges,
    /// base table, field table, root, call-graph reachability). Equal
    /// graph fingerprints ⇒ graphs identical id-for-id, so a cached
    /// solution for one renders correctly against the other.
    fn graph_fingerprint(&self, g: &Graph) -> u64 {
        let mut h = Fnv64::new();
        h.write_u32(g.func_count() as u32);
        for f in g.func_ids() {
            let fi = f.0 as usize;
            h.write_str(&g.func(f).name);
            h.write_u64(self.func_fps[fi]);
            h.write_u32(self.node_start[fi]);
            h.write_u32(self.out_start[fi]);
        }
        h.write_u32(g.base_count() as u32);
        for b in g.base_ids() {
            h.write_str(&self.base_keys[b.0 as usize]);
            h.write_u32(g.base(b).single_instance as u32);
        }
        h.write_str(&g.func(g.root()).name);
        for a in g.func_ids() {
            for b in g.func_ids() {
                h.write_u32(g.can_reach(a, b) as u32);
            }
        }
        h.finish()
    }
}

/// One access operator with a stable (graph-independent) field name.
/// `Ord` so vocabulary comparisons (memop-pruning drift, set-valued
/// facts) can sort into a canonical order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StableOp {
    /// Struct/union field access, by field name.
    Field(String),
    /// Array element access.
    Index,
}

/// An access path with graph-independent vocabulary: an optional base
/// key (offset paths have none) plus operator spine.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StablePath {
    /// Stable key of the base-location, `None` for offset paths.
    pub base: Option<String>,
    /// Access operators, outermost first.
    pub ops: Vec<StableOp>,
}

/// A points-to pair in stable vocabulary.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StablePair {
    /// Where the value lives.
    pub path: StablePath,
    /// What it points to.
    pub referent: StablePath,
}

/// Renders one interned path of `paths` in stable vocabulary. `None`
/// when the path roots at a synthetic base (call-string heap naming),
/// which has no graph-independent name.
pub(crate) fn stable_path(
    paths: &PathTable,
    graph: &Graph,
    index: &GraphIndex,
    p: PathId,
) -> Option<StablePath> {
    let base = match paths.base_of(p) {
        Some(b) => {
            if paths.is_synthetic(b) {
                return None;
            }
            Some(index.base_keys[b.0 as usize].clone())
        }
        None => None,
    };
    let ops = paths
        .ops_of(p)
        .into_iter()
        .map(|op| match op {
            AccessOp::Field(f) => StableOp::Field(graph.field_name(f).to_string()),
            AccessOp::Index => StableOp::Index,
        })
        .collect();
    Some(StablePath { base, ops })
}

/// Renders one pair of `paths` in stable vocabulary.
pub(crate) fn stable_pair(
    paths: &PathTable,
    graph: &Graph,
    index: &GraphIndex,
    pr: Pair,
) -> Option<StablePair> {
    Some(StablePair {
        path: stable_path(paths, graph, index, pr.path)?,
        referent: stable_path(paths, graph, index, pr.referent)?,
    })
}

/// Call-edge facts of function `f` from a solve's recorded callee map:
/// `(call-node offset, sorted callee names)`, sorted by offset.
pub(crate) fn stable_calls(
    graph: &Graph,
    index: &GraphIndex,
    f: VFuncId,
    callees: &HashMap<NodeId, Vec<VFuncId>>,
) -> Vec<(u32, Vec<String>)> {
    let fi = f.0 as usize;
    let mut calls: Vec<(u32, Vec<String>)> = callees
        .iter()
        .filter(|(n, _)| index.node_owner[n.0 as usize] == f)
        .map(|(n, fs)| {
            let mut names: Vec<String> = fs.iter().map(|&c| graph.func(c).name.clone()).collect();
            names.sort_unstable();
            (n.0 - index.node_start[fi], names)
        })
        .collect();
    calls.sort_unstable();
    calls
}

/// Extracts the CI summary of one function: committed pairs per output
/// offset plus call edges. `None` when a fact roots at a synthetic base
/// (call-string heap naming).
pub(crate) fn extract_ci_func(
    graph: &Graph,
    index: &GraphIndex,
    ci: &CiResult,
    f: VFuncId,
) -> Option<FunctionSummary> {
    let fi = f.0 as usize;
    let (os, oe) = (index.out_start[fi], index.out_end[fi]);
    let mut outputs = Vec::with_capacity((oe - os) as usize);
    for o in os..oe {
        let mut pairs = Vec::new();
        for pr in ci.pairs(OutputId(o)) {
            pairs.push(stable_pair(&ci.paths, graph, index, *pr)?);
        }
        outputs.push(pairs);
    }
    Some(FunctionSummary {
        fingerprint: index.func_fps[fi],
        calls: stable_calls(graph, index, f, &ci.callees),
        facts: FuncFacts::Ci(outputs),
    })
}

/// The vocabulary-independent skeleton of a resume plan: which
/// functions are clean (with their facts translated into next-graph
/// vocabulary by the caller's closure), which are dirty, the clean
/// functions' previous call edges, and the callees that lost an
/// in-flow.
pub(crate) struct PlanBase<T> {
    /// Translated facts per clean function.
    pub(crate) translated: HashMap<VFuncId, T>,
    /// Dirty functions: changed fingerprint, deleted-from-summary, or
    /// demoted on translation failure.
    pub(crate) dirty: HashSet<VFuncId>,
    /// Previous call edges of clean functions, in next-graph node ids.
    pub(crate) prev_edges: HashMap<NodeId, Vec<VFuncId>>,
    /// Functions that lost an in-flow: callees of a dirty or deleted
    /// function.
    pub(crate) lost_callees: HashSet<VFuncId>,
}

/// Classifies `next`'s functions against `prev` and translates each
/// clean function's facts via `translate` (returning `None` demotes the
/// function to dirty, exactly like a failed call-edge translation).
/// Shared by every vocabulary's resume planner. Returns `None` when the
/// index reports stable naming as unsafe.
pub(crate) fn plan_base<T>(
    next: &Graph,
    index: &GraphIndex,
    prev: &SolverSummaries,
    mut translate: impl FnMut(VFuncId, &FunctionSummary) -> Option<T>,
) -> Option<PlanBase<T>> {
    if index.unsafe_reason.is_some() {
        return None;
    }
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
    let mut translated: HashMap<VFuncId, T> = HashMap::default();
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
        let Some(t) = translate(f, summary) else {
            dirty.insert(f);
            continue;
        };
        translated.insert(f, t);
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
    Some(PlanBase {
        translated,
        dirty,
        prev_edges,
        lost_callees,
    })
}

/// The plan for one seeded CI resume, in next-graph vocabulary.
pub struct CiResumePlan {
    /// Pre-interned path table over the next graph, holding every
    /// seeded path.
    pub paths: PathTable,
    /// Per-output seeds: `Some(pairs)` outside the dirty cone (the
    /// committed set is final and installed verbatim), `None` inside.
    pub seeds: Vec<Option<Vec<Pair>>>,
    /// Seeded call edges, for calls whose function input is outside the
    /// cone (their callee sets are provably final).
    pub call_edges: HashMap<NodeId, Vec<VFuncId>>,
    /// Functions whose fingerprints (or fact translation) changed.
    pub dirty: Vec<VFuncId>,
    /// Number of outputs inside the dirty cone.
    pub cone_outputs: usize,
    /// Number of outputs seeded from cache.
    pub seeded_outputs: usize,
}

/// Plans a seeded CI resume of `next` given the previous run's
/// summaries (`prev`, including functions that no longer exist). A
/// next-graph function is *clean* when a same-named summary exists and
/// its fingerprint matches; everything else is dirty. A clean function
/// whose summary fails to translate (a base, field, or callee no
/// longer exists) is demoted to dirty. Returns `None` when the index
/// reports stable naming as unsafe or `prev` speaks another
/// vocabulary.
pub fn plan_ci_resume(
    next: &Graph,
    index: &GraphIndex,
    prev: &SolverSummaries,
) -> Option<CiResumePlan> {
    if prev.vocab != SolverKind::Ci {
        return None;
    }
    let mut paths = PathTable::for_graph(next);
    let base = plan_base(next, index, prev, |f, summary| {
        let fi = f.0 as usize;
        let want = (index.out_end[fi] - index.out_start[fi]) as usize;
        let FuncFacts::Ci(rows) = &summary.facts else {
            return None;
        };
        if rows.len() != want {
            // Fingerprint equality should make this impossible; treat a
            // mismatch as a stale summary.
            return None;
        }
        let mut outs = Vec::with_capacity(want);
        for pairs in rows {
            let mut v = Vec::with_capacity(pairs.len());
            for sp in pairs {
                let a = intern_stable(next, index, &mut paths, &sp.path)?;
                let b = intern_stable(next, index, &mut paths, &sp.referent)?;
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

    let in_cone = compute_cone(next, index, &dirty, &prev_edges, &lost_callees);
    let cone_outputs = in_cone.iter().filter(|&&b| b).count();

    let mut seeds: Vec<Option<Vec<Pair>>> = vec![None; next.output_count()];
    let mut seeded_outputs = 0;
    for (&f, outs) in &translated {
        let os = index.out_start[f.0 as usize];
        for (i, pairs) in outs.iter().enumerate() {
            let o = os + i as u32;
            if !in_cone[o as usize] {
                seeds[o as usize] = Some(pairs.clone());
                seeded_outputs += 1;
            }
        }
    }
    // Seed call edges only where the function input is out-of-cone:
    // those callee sets are provably final. In-cone function inputs
    // re-discover their edges through normal propagation.
    let mut call_edges = HashMap::default();
    for (n, callees) in prev_edges {
        let src = next.input_src(n, 0);
        if !in_cone[src.0 as usize] {
            call_edges.insert(n, callees);
        }
    }

    let mut dirty: Vec<VFuncId> = dirty.into_iter().collect();
    dirty.sort_unstable_by_key(|f| f.0);
    Some(CiResumePlan {
        paths,
        seeds,
        call_edges,
        dirty,
        cone_outputs,
        seeded_outputs,
    })
}

/// Re-interns a stable path into `paths` over `next`. `None` when the
/// base key or a field name no longer exists.
pub(crate) fn intern_stable(
    next: &Graph,
    index: &GraphIndex,
    paths: &mut PathTable,
    sp: &StablePath,
) -> Option<crate::path::PathId> {
    let mut p = match &sp.base {
        Some(key) => paths.base_root(vdg::graph::BaseId(*index.base_by_key.get(key)?)),
        None => PathTable::EMPTY,
    };
    for op in &sp.ops {
        let op = match op {
            StableOp::Field(name) => AccessOp::Field(next.field_id(name)?),
            StableOp::Index => AccessOp::Index,
        };
        p = paths.child(p, op);
    }
    Some(p)
}

/// The set of call targets the cone must assume for a call whose
/// function input is (or becomes) dirty: a structural backward walk
/// from the call's function input through the value-preserving nodes —
/// `PassThrough` forwards input 0, `Gamma` unions every input —
/// collecting the `FuncConst` feeds, so a function value copied through
/// scalar locals and merged over branches still resolves to the union
/// of named targets instead of every function. Nodes that cannot carry
/// a function value (scalar/null constants, primops) contribute
/// nothing; any other producer (a load from memory, a call result)
/// makes the feed opaque and the answer falls back to every function,
/// as does a walk that finds no target at all.
pub(crate) fn call_targets(g: &Graph, call: NodeId) -> Vec<VFuncId> {
    let mut funcs: Vec<VFuncId> = Vec::new();
    let mut seen: HashSet<OutputId> = HashSet::default();
    let mut wl = vec![g.input_src(call, 0)];
    while let Some(o) = wl.pop() {
        if !seen.insert(o) {
            continue;
        }
        let id = g.output(o).node;
        match &g.node(id).kind {
            NodeKind::FuncConst(b) => match g.base(*b).kind {
                BaseKind::Func { func } => funcs.push(func),
                _ => return g.func_ids().collect(),
            },
            NodeKind::ScalarConst | NodeKind::NullConst | NodeKind::Primop => {}
            NodeKind::PassThrough => wl.push(g.input_src(id, 0)),
            NodeKind::Gamma => {
                for port in 0..g.node(id).inputs.len() {
                    wl.push(g.input_src(id, port));
                }
            }
            _ => return g.func_ids().collect(),
        }
    }
    if funcs.is_empty() {
        return g.func_ids().collect();
    }
    funcs.sort_unstable();
    funcs.dedup();
    funcs
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
/// - an in-cone output feeding a node puts that node's affected
///   outputs in the cone (`PassThrough` only forwards port 0; `Primop`
///   emits nothing);
/// - an in-cone function input of a call puts the call's outputs and
///   the entries of every possible target in the cone (the callee set
///   may change);
/// - an in-cone actual puts the entries of the call's previously
///   recorded callees in the cone;
/// - an in-cone input of `Return{f}` puts the outputs of `f`'s
///   previously recorded callers in the cone.
///
/// See [`ConeVocab`] for the CS and k=1 extensions.
pub fn compute_cone(
    g: &Graph,
    index: &GraphIndex,
    dirty: &HashSet<VFuncId>,
    prev_edges: &HashMap<NodeId, Vec<VFuncId>>,
    lost_callees: &HashSet<VFuncId>,
) -> Vec<bool> {
    compute_cone_for(
        g,
        index,
        dirty,
        prev_edges,
        lost_callees,
        ConeVocab::Ci,
        &[],
    )
}

/// [`compute_cone`] parameterized by solver vocabulary plus extra cone
/// roots (CS memop pruning drift; Weihl `Lookup` reads under a dirty
/// store).
pub(crate) fn compute_cone_for(
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
    // Entries that lost a caller (see `plan_ci_resume`): their
    // committed sets may shrink, and shrinkage propagates forward like
    // any other change.
    for &f in lost_callees {
        mark_target(f, &mut in_cone, &mut wl);
    }
    for &o in extra_roots {
        mark(o, &mut in_cone, &mut wl);
    }
    while let Some(o) = wl.pop() {
        // Each consumer of an in-cone output re-derives some outputs.
        let consumers: Vec<vdg::graph::InputId> = g.consumers(OutputId(o)).to_vec();
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

#[cfg(test)]
mod tests {
    use super::*;
    use vdg::build::{lower, BuildOptions};

    fn graph_of(src: &str) -> Graph {
        let p = cfront::compile(src).expect("compiles");
        lower(&p, &BuildOptions::default()).expect("lowers")
    }

    fn only_call(g: &Graph) -> NodeId {
        // The synthetic root's call to `main` is not under test.
        let owner = crate::modref::node_owner_map(g);
        let main = g.func_ids().find(|&f| g.func(f).name == "main").unwrap();
        let calls: Vec<NodeId> = g
            .nodes()
            .filter(|(id, n)| matches!(n.kind, NodeKind::Call) && owner[id.0 as usize] == main)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(
            calls.len(),
            1,
            "fixture should have exactly one call in main"
        );
        calls[0]
    }

    fn target_names(g: &Graph, call: NodeId) -> Vec<String> {
        let mut v: Vec<String> = call_targets(g, call)
            .into_iter()
            .map(|f| g.func(f).name.clone())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn copied_func_const_call_resolves_to_the_union_of_targets() {
        // `p` is set to `f` then conditionally to `g`: the call's
        // function input is a Gamma over two FuncConst feeds, and the
        // walk must answer {f, g} — not every function (`h` and `main`
        // would previously leak in).
        let g = graph_of(
            "int c;\n\
             int f(int x) { return x + 1; }\n\
             int g(int x) { return x + 2; }\n\
             int h(int x) { return x + 3; }\n\
             int main(void) { int (*p)(int); p = f; if (c) { p = g; } return p(1); }",
        );
        assert_eq!(target_names(&g, only_call(&g)), ["f", "g"]);
    }

    #[test]
    fn direct_func_const_call_still_resolves_to_one_target() {
        let g = graph_of(
            "int f(int x) { return x; }\n\
             int h(int x) { return x + 1; }\n\
             int main(void) { return f(2); }",
        );
        assert_eq!(target_names(&g, only_call(&g)), ["f"]);
    }

    #[test]
    fn memory_fed_call_falls_back_to_every_function() {
        // The callee comes out of a global slot (a Lookup): the
        // structural walk cannot see through the store and must keep
        // the conservative every-function answer.
        let g = graph_of(
            "int (*gp)(int);\n\
             int f(int x) { return x; }\n\
             int main(void) { gp = f; return gp(3); }",
        );
        let call = only_call(&g);
        assert_eq!(
            call_targets(&g, call).len(),
            g.func_count(),
            "a load-fed callee stays opaque"
        );
    }
}
