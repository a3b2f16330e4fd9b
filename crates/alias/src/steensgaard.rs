//! A Steensgaard-style *unification-based* baseline.
//!
//! Bjarne Steensgaard's almost-linear points-to analysis (POPL 1996) was
//! developed in the same MSR group as this paper (he is acknowledged in
//! it); it trades precision for near-linear time by *unifying* the
//! targets of every assignment instead of accumulating subset
//! constraints. Implementing it over the same VDG closes the precision
//! spectrum this repository measures:
//!
//! ```text
//! Weihl (program-wide) ⊒ Steensgaard (unification) ⊒ CI (Fig. 1) ⊒ CS (Fig. 5)
//! ```
//!
//! This implementation is field- and flow-insensitive, as the original:
//! all of an object's fields and elements share one equivalence-class
//! representative (ECR), and every value move unifies the pointees of
//! its endpoints.

use crate::fingerprint::GraphIndex;
use crate::fxhash::HashMap;
use crate::solver::SolverKind;
use crate::summary::{FuncFacts, FunctionSummary, ResumeStats, SolverSummaries, SteensConstraint};
use vdg::graph::{BaseId, Graph, NodeId, NodeKind, OutputId, VFuncId, ValueKind};

/// An equivalence-class representative id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EcrId(pub u32);

/// Union-find over ECRs, each class carrying an optional pointee class.
#[derive(Debug, Clone)]
struct Ecrs {
    parent: Vec<u32>,
    rank: Vec<u8>,
    pts: Vec<Option<u32>>,
}

impl Ecrs {
    fn new() -> Self {
        Ecrs {
            parent: Vec::new(),
            rank: Vec::new(),
            pts: Vec::new(),
        }
    }

    fn fresh(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        self.pts.push(None);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// The pointee class of `x`, created on demand.
    fn pts_of(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        if let Some(p) = self.pts[r as usize] {
            return self.find(p);
        }
        let p = self.fresh();
        let r = self.find(r);
        self.pts[r as usize] = Some(p);
        p
    }

    /// Steensgaard's join: merges two classes and recursively their
    /// pointees.
    fn unify(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (winner, loser) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        if self.rank[winner as usize] == self.rank[loser as usize] {
            self.rank[winner as usize] += 1;
        }
        self.parent[loser as usize] = winner;
        let pw = self.pts[winner as usize];
        let pl = self.pts[loser as usize];
        match (pw, pl) {
            (Some(x), Some(y)) => self.unify(x, y),
            (None, Some(y)) => {
                let w = self.find(winner);
                self.pts[w as usize] = Some(y);
            }
            _ => {}
        }
    }
}

/// Result of the unification analysis.
#[derive(Debug, Clone)]
pub struct SteensResult {
    ecrs: Ecrs,
    /// ECR of each base-location's object.
    base_ecr: Vec<u32>,
    /// ECR of each alias-related output's value.
    out_ecr: HashMap<u32, u32>,
}

impl SteensResult {
    fn class_bases(&mut self, class: u32, graph: &Graph) -> Vec<BaseId> {
        let root = self.ecrs.find(class);
        let mut out = Vec::new();
        for b in graph.base_ids() {
            if self.ecrs.find(self.base_ecr[b.0 as usize]) == root {
                out.push(b);
            }
        }
        out
    }

    /// The base-locations an output's value may point to.
    pub fn points_to_bases(&mut self, out: OutputId, graph: &Graph) -> Vec<BaseId> {
        let Some(&e) = self.out_ecr.get(&out.0) else {
            return Vec::new();
        };
        let p = self.ecrs.pts_of(e);
        self.class_bases(p, graph)
    }

    /// The base-locations a memory operation's location input may
    /// reference — comparable (after collapsing paths to bases) with
    /// [`crate::ci::CiResult::loc_referents`].
    pub fn loc_bases(&mut self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        let loc_out = graph.input_src(node, 0);
        self.points_to_bases(loc_out, graph)
    }

    /// Number of live equivalence classes over base-locations (a size
    /// metric: fewer classes = more merging = less precision).
    pub fn base_class_count(&mut self, graph: &Graph) -> usize {
        let mut roots: Vec<u32> = graph
            .base_ids()
            .map(|b| self.ecrs.find(self.base_ecr[b.0 as usize]))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }
}

/// Runs the unification analysis over a VDG.
///
/// Calls are resolved syntactically: a call whose function input is a
/// direct function constant binds to that function; anything else binds
/// conservatively to every address-taken function.
pub fn analyze_steensgaard(graph: &Graph) -> SteensResult {
    let mut ecrs = Ecrs::new();
    let base_ecr: Vec<u32> = graph.base_ids().map(|_| ecrs.fresh()).collect();
    let mut out_ecr: HashMap<u32, u32> = HashMap::default();
    let ecr_of = |ecrs: &mut Ecrs, out_ecr: &mut HashMap<u32, u32>, o: OutputId| -> u32 {
        *out_ecr.entry(o.0).or_insert_with(|| ecrs.fresh())
    };

    let addr_taken: Vec<vdg::graph::VFuncId> = graph
        .func_ids()
        .filter(|f| graph.func(*f).address_taken)
        .collect();

    for (id, n) in graph.nodes() {
        match &n.kind {
            NodeKind::Base(b) | NodeKind::Alloc(b) | NodeKind::FuncConst(b) => {
                let out = ecr_of(&mut ecrs, &mut out_ecr, n.outputs[0]);
                let p = ecrs.pts_of(out);
                ecrs.unify(p, base_ecr[b.0 as usize]);
            }
            // Field-insensitive: address computations and extractions
            // are plain moves.
            NodeKind::Member(_)
            | NodeKind::IndexElem
            | NodeKind::ExtractField(_)
            | NodeKind::ExtractElem
            | NodeKind::PassThrough => {
                let src = graph.input_src(id, 0);
                if !matches!(graph.output(src).kind, ValueKind::Store) {
                    let a = ecr_of(&mut ecrs, &mut out_ecr, src);
                    let b = ecr_of(&mut ecrs, &mut out_ecr, n.outputs[0]);
                    let (pa, pb) = (ecrs.pts_of(a), ecrs.pts_of(b));
                    ecrs.unify(pa, pb);
                }
            }
            NodeKind::Gamma => {
                if matches!(graph.output(n.outputs[0]).kind, ValueKind::Store) {
                    continue;
                }
                let out = ecr_of(&mut ecrs, &mut out_ecr, n.outputs[0]);
                for port in 0..n.inputs.len() {
                    let src = graph.input_src(id, port);
                    let i = ecr_of(&mut ecrs, &mut out_ecr, src);
                    let (pi, po) = (ecrs.pts_of(i), ecrs.pts_of(out));
                    ecrs.unify(pi, po);
                }
            }
            NodeKind::Lookup { .. } => {
                // out = *loc
                let loc = ecr_of(&mut ecrs, &mut out_ecr, graph.input_src(id, 0));
                let out = ecr_of(&mut ecrs, &mut out_ecr, n.outputs[0]);
                let obj = ecrs.pts_of(loc);
                let contents = ecrs.pts_of(obj);
                let po = ecrs.pts_of(out);
                ecrs.unify(contents, po);
            }
            NodeKind::Update { .. } => {
                // *loc = value
                let loc = ecr_of(&mut ecrs, &mut out_ecr, graph.input_src(id, 0));
                let val = ecr_of(&mut ecrs, &mut out_ecr, graph.input_src(id, 2));
                let obj = ecrs.pts_of(loc);
                let contents = ecrs.pts_of(obj);
                let pv = ecrs.pts_of(val);
                ecrs.unify(contents, pv);
            }
            NodeKind::CopyMem => {
                // *dst = *src
                let dst = ecr_of(&mut ecrs, &mut out_ecr, graph.input_src(id, 1));
                let src = ecr_of(&mut ecrs, &mut out_ecr, graph.input_src(id, 2));
                let od = ecrs.pts_of(dst);
                let os = ecrs.pts_of(src);
                let (cd, cs) = (ecrs.pts_of(od), ecrs.pts_of(os));
                ecrs.unify(cd, cs);
            }
            NodeKind::Call => {
                // Resolve targets syntactically.
                let fsrc = graph.input_src(id, 0);
                let fnode = graph.output(fsrc).node;
                let targets: Vec<vdg::graph::VFuncId> = match &graph.node(fnode).kind {
                    NodeKind::FuncConst(b) => match &graph.base(*b).kind {
                        vdg::graph::BaseKind::Func { func } => vec![*func],
                        _ => addr_taken.clone(),
                    },
                    _ => addr_taken.clone(),
                };
                for f in targets {
                    let entry = graph.func(f).entry;
                    let formals = graph.node(entry).outputs.clone();
                    // Value parameters (skip port 1 = store / formal 0).
                    for port in 2..n.inputs.len() {
                        let idx = port - 1;
                        if idx >= formals.len() {
                            break;
                        }
                        let a = ecr_of(&mut ecrs, &mut out_ecr, graph.input_src(id, port));
                        let p = ecr_of(&mut ecrs, &mut out_ecr, formals[idx]);
                        let (pa, pp) = (ecrs.pts_of(a), ecrs.pts_of(p));
                        ecrs.unify(pa, pp);
                    }
                    // Result.
                    if n.outputs.len() > 1 {
                        let res = ecr_of(&mut ecrs, &mut out_ecr, n.outputs[1]);
                        for &ret in &graph.func(f).returns {
                            if graph.has_input(ret, 1) {
                                let v = ecr_of(&mut ecrs, &mut out_ecr, graph.input_src(ret, 1));
                                let (pv, pr) = (ecrs.pts_of(v), ecrs.pts_of(res));
                                ecrs.unify(pv, pr);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    SteensResult {
        ecrs,
        base_ecr,
        out_ecr,
    }
}

/// Extracts function `f`'s unification constraint atoms — a purely
/// *syntactic* summary over the function's own output offsets, so it
/// needs only the graph, never a solved result. Atoms are sorted and
/// deduplicated: unification is idempotent and order-independent, so
/// the deduplicated replay reaches the identical partition while doing
/// strictly less union-find work than a fresh node walk.
pub(crate) fn extract_func(graph: &Graph, index: &GraphIndex, f: VFuncId) -> FunctionSummary {
    let fi = f.0 as usize;
    let off = |o: OutputId| o.0 - index.out_start[fi];
    let src_off = |n: NodeId, port: usize| off(graph.input_src(n, port));
    let mut atoms: Vec<SteensConstraint> = Vec::new();
    for id in index.node_start[fi]..index.node_end[fi] {
        let id = NodeId(id);
        let n = graph.node(id);
        match &n.kind {
            NodeKind::Base(b) | NodeKind::Alloc(b) | NodeKind::FuncConst(b) => {
                atoms.push(SteensConstraint::Base {
                    out: off(n.outputs[0]),
                    base: index.base_keys[b.0 as usize].clone(),
                });
            }
            NodeKind::Member(_)
            | NodeKind::IndexElem
            | NodeKind::ExtractField(_)
            | NodeKind::ExtractElem
            | NodeKind::PassThrough => {
                let src = graph.input_src(id, 0);
                if !matches!(graph.output(src).kind, ValueKind::Store) {
                    atoms.push(SteensConstraint::Move {
                        dst: off(n.outputs[0]),
                        src: off(src),
                    });
                }
            }
            NodeKind::Gamma => {
                if matches!(graph.output(n.outputs[0]).kind, ValueKind::Store) {
                    continue;
                }
                for port in 0..n.inputs.len() {
                    atoms.push(SteensConstraint::Move {
                        dst: off(n.outputs[0]),
                        src: src_off(id, port),
                    });
                }
            }
            NodeKind::Lookup { .. } => atoms.push(SteensConstraint::Load {
                out: off(n.outputs[0]),
                loc: src_off(id, 0),
            }),
            NodeKind::Update { .. } => atoms.push(SteensConstraint::Store {
                loc: src_off(id, 0),
                val: src_off(id, 2),
            }),
            NodeKind::CopyMem => atoms.push(SteensConstraint::Copy {
                dst: src_off(id, 1),
                src: src_off(id, 2),
            }),
            NodeKind::Call => {
                let args: Vec<u32> = (2..n.inputs.len()).map(|p| src_off(id, p)).collect();
                let result = (n.outputs.len() > 1).then(|| off(n.outputs[1]));
                let fnode = graph.output(graph.input_src(id, 0)).node;
                match &graph.node(fnode).kind {
                    NodeKind::FuncConst(b) => match &graph.base(*b).kind {
                        vdg::graph::BaseKind::Func { func } => {
                            atoms.push(SteensConstraint::CallTo {
                                callee: graph.func(*func).name.clone(),
                                args,
                                result,
                            });
                        }
                        _ => atoms.push(SteensConstraint::CallIndirect { args, result }),
                    },
                    _ => atoms.push(SteensConstraint::CallIndirect { args, result }),
                }
            }
            _ => {}
        }
    }
    atoms.sort_unstable();
    atoms.dedup();
    FunctionSummary {
        fingerprint: index.func_fps[fi],
        // Unification has no dynamic call discovery; targets are bound
        // syntactically inside the atoms, so no call edges to record.
        calls: Vec::new(),
        facts: FuncFacts::Steens(atoms),
    }
}

/// Replays a program's constraint atoms onto a fresh union-find:
/// stored atoms for clean functions, freshly extracted atoms for dirty
/// ones, indirect calls bound to the *current* address-taken set —
/// exactly the unifications of a fresh solve, modulo idempotent
/// duplicates, so the final partition is identical. Returns `None`
/// when stable naming is unsafe or `prev` speaks another vocabulary.
pub(crate) fn replay_steensgaard(
    graph: &Graph,
    index: &GraphIndex,
    prev: &SolverSummaries,
) -> Option<(SteensResult, ResumeStats)> {
    if index.unsafe_reason.is_some() || prev.vocab != SolverKind::Steensgaard {
        return None;
    }
    let mut ecrs = Ecrs::new();
    let base_ecr: Vec<u32> = graph.base_ids().map(|_| ecrs.fresh()).collect();
    let mut out_ecr: HashMap<u32, u32> = HashMap::default();
    let addr_taken: Vec<VFuncId> = graph
        .func_ids()
        .filter(|f| graph.func(*f).address_taken)
        .collect();

    let mut stats = ResumeStats {
        total_outputs: graph.output_count(),
        ..ResumeStats::default()
    };
    let mut fresh_atoms: Vec<FunctionSummary> = Vec::new();
    let mut plan: Vec<(VFuncId, &FunctionSummary)> = Vec::new();
    for f in graph.func_ids() {
        let name = &graph.func(f).name;
        let clean = prev
            .funcs
            .get(name)
            .filter(|s| s.fingerprint == index.func_fps[f.0 as usize])
            .filter(|s| matches!(s.facts, FuncFacts::Steens(_)));
        match clean {
            Some(_) => stats.clean += 1,
            None => {
                stats.dirty.push(name.clone());
                let fi = f.0 as usize;
                stats.cone_outputs += (index.out_end[fi] - index.out_start[fi]) as usize;
                fresh_atoms.push(extract_func(graph, index, f));
            }
        }
    }
    stats.dirty.sort_unstable();
    stats.seeded_outputs = stats.total_outputs - stats.cone_outputs;
    let mut fresh_it = fresh_atoms.iter();
    for f in graph.func_ids() {
        let name = &graph.func(f).name;
        let summary = prev
            .funcs
            .get(name)
            .filter(|s| s.fingerprint == index.func_fps[f.0 as usize])
            .filter(|s| matches!(s.facts, FuncFacts::Steens(_)))
            .unwrap_or_else(|| fresh_it.next().expect("fresh atoms per dirty func"));
        plan.push((f, summary));
    }
    for (f, summary) in plan {
        apply_atoms(
            graph,
            index,
            f,
            summary,
            &mut ecrs,
            &base_ecr,
            &mut out_ecr,
            &addr_taken,
        )?;
    }
    Some((
        SteensResult {
            ecrs,
            base_ecr,
            out_ecr,
        },
        stats,
    ))
}

/// Applies one function's atoms to the union-find. `None` when a base
/// key or callee name no longer resolves (only reachable from stale
/// stored atoms; freshly extracted atoms always resolve).
#[allow(clippy::too_many_arguments)]
fn apply_atoms(
    graph: &Graph,
    index: &GraphIndex,
    f: VFuncId,
    summary: &FunctionSummary,
    ecrs: &mut Ecrs,
    base_ecr: &[u32],
    out_ecr: &mut HashMap<u32, u32>,
    addr_taken: &[VFuncId],
) -> Option<()> {
    let FuncFacts::Steens(atoms) = &summary.facts else {
        return None;
    };
    let fi = f.0 as usize;
    let n_outs = index.out_end[fi] - index.out_start[fi];
    let at = |off: u32| -> Option<OutputId> { (off < n_outs).then(|| index.output_at(f, off)) };
    fn ecr_of(out_ecr: &mut HashMap<u32, u32>, ecrs: &mut Ecrs, o: OutputId) -> u32 {
        *out_ecr.entry(o.0).or_insert_with(|| ecrs.fresh())
    }
    fn bind_call(
        graph: &Graph,
        out_ecr: &mut HashMap<u32, u32>,
        ecrs: &mut Ecrs,
        at: &dyn Fn(u32) -> Option<OutputId>,
        targets: &[VFuncId],
        args: &[u32],
        result: Option<u32>,
    ) -> Option<()> {
        for &t in targets {
            let entry = graph.func(t).entry;
            let formals = graph.node(entry).outputs.clone();
            // `args[0]` is call port 2 = first *value* actual; formal 0
            // is the store formal, so value formals start at 1.
            for (idx, &a) in args.iter().enumerate() {
                if idx + 1 >= formals.len() {
                    break;
                }
                let a = ecr_of(out_ecr, ecrs, at(a)?);
                let p = ecr_of(out_ecr, ecrs, formals[idx + 1]);
                let (pa, pp) = (ecrs.pts_of(a), ecrs.pts_of(p));
                ecrs.unify(pa, pp);
            }
            if let Some(res) = result {
                let res = ecr_of(out_ecr, ecrs, at(res)?);
                for &ret in &graph.func(t).returns {
                    if graph.has_input(ret, 1) {
                        let v = ecr_of(out_ecr, ecrs, graph.input_src(ret, 1));
                        let (pv, pr) = (ecrs.pts_of(v), ecrs.pts_of(res));
                        ecrs.unify(pv, pr);
                    }
                }
            }
        }
        Some(())
    }
    for atom in atoms {
        match atom {
            SteensConstraint::Base { out, base } => {
                let b = *index.base_by_key.get(base)?;
                let out = ecr_of(out_ecr, ecrs, at(*out)?);
                let p = ecrs.pts_of(out);
                ecrs.unify(p, base_ecr[b as usize]);
            }
            SteensConstraint::Move { dst, src } => {
                let a = ecr_of(out_ecr, ecrs, at(*src)?);
                let b = ecr_of(out_ecr, ecrs, at(*dst)?);
                let (pa, pb) = (ecrs.pts_of(a), ecrs.pts_of(b));
                ecrs.unify(pa, pb);
            }
            SteensConstraint::Load { out, loc } => {
                let loc = ecr_of(out_ecr, ecrs, at(*loc)?);
                let out = ecr_of(out_ecr, ecrs, at(*out)?);
                let obj = ecrs.pts_of(loc);
                let contents = ecrs.pts_of(obj);
                let po = ecrs.pts_of(out);
                ecrs.unify(contents, po);
            }
            SteensConstraint::Store { loc, val } => {
                let loc = ecr_of(out_ecr, ecrs, at(*loc)?);
                let val = ecr_of(out_ecr, ecrs, at(*val)?);
                let obj = ecrs.pts_of(loc);
                let contents = ecrs.pts_of(obj);
                let pv = ecrs.pts_of(val);
                ecrs.unify(contents, pv);
            }
            SteensConstraint::Copy { dst, src } => {
                let dst = ecr_of(out_ecr, ecrs, at(*dst)?);
                let src = ecr_of(out_ecr, ecrs, at(*src)?);
                let od = ecrs.pts_of(dst);
                let os = ecrs.pts_of(src);
                let (cd, cs) = (ecrs.pts_of(od), ecrs.pts_of(os));
                ecrs.unify(cd, cs);
            }
            SteensConstraint::CallTo {
                callee,
                args,
                result,
            } => {
                let t = *index.func_by_name.get(callee)?;
                bind_call(graph, out_ecr, ecrs, &at, &[t], args, *result)?;
            }
            SteensConstraint::CallIndirect { args, result } => {
                bind_call(graph, out_ecr, ecrs, &at, addr_taken, args, *result)?;
            }
        }
    }
    Some(())
}

/// Collapses a CI referent set to its base-locations, for comparison
/// with the field-insensitive unification result.
pub fn ci_referent_bases(ci: &crate::ci::CiResult, graph: &Graph, node: NodeId) -> Vec<BaseId> {
    let mut bases: Vec<BaseId> = ci
        .loc_referents(graph, node)
        .iter()
        .filter_map(|&p| ci.paths.base_of(p))
        .collect();
    bases.sort_unstable();
    bases.dedup();
    bases
}

/// Whether the CI solution is (base-wise) contained in the unification
/// solution at every memory operation.
pub fn ci_within_steensgaard(
    graph: &Graph,
    ci: &crate::ci::CiResult,
    st: &mut SteensResult,
) -> bool {
    for (node, _) in graph.all_mem_ops() {
        let fine = ci_referent_bases(ci, graph, node);
        let coarse: std::collections::HashSet<BaseId> =
            st.loc_bases(graph, node).into_iter().collect();
        for b in fine {
            if !coarse.contains(&b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig};
    use vdg::build::{lower, BuildOptions};

    fn pipeline(src: &str) -> (Graph, crate::ci::CiResult, SteensResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        let st = analyze_steensgaard(&g);
        (g, ci, st)
    }

    fn base_names(g: &Graph, bases: &[BaseId]) -> Vec<String> {
        let mut v: Vec<String> = bases.iter().map(|&b| g.base(b).display()).collect();
        v.sort();
        v
    }

    #[test]
    fn simple_pointer_resolves() {
        let (g, _, mut st) = pipeline("int g; int main(void) { int *p; p = &g; return *p; }");
        let (node, _) = g.indirect_mem_ops()[0];
        assert_eq!(base_names(&g, &st.loc_bases(&g, node)), vec!["g"]);
    }

    #[test]
    fn unification_merges_assigned_pointers() {
        // p = &a; q = &b; p = q;  — unification gives q -> {a, b} even
        // though CI keeps q -> {b}. The pointers must be store-resident:
        // register locals are SSA values in the VDG and their "moves"
        // never materialize as assignments (paper §5.1.1).
        let (g, ci, mut st) = pipeline(
            "int a; int b; int *p; int *q;\n\
             int main(void) { p = &a; q = &b; p = q; return *q; }",
        );
        let read = g
            .indirect_mem_ops()
            .into_iter()
            .find(|&(_, w)| !w)
            .map(|(n, _)| n)
            .unwrap();
        assert_eq!(ci_referent_bases(&ci, &g, read).len(), 1, "CI is precise");
        let coarse = base_names(&g, &st.loc_bases(&g, read));
        assert_eq!(coarse, vec!["a", "b"], "unification merged the classes");
    }

    #[test]
    fn ci_is_contained_in_unification() {
        let (g, ci, mut st) = pipeline(
            "struct node { int v; struct node *next; };\n\
             struct node *mk(struct node *t) { struct node *n;\n\
               n = (struct node*)malloc(sizeof(struct node));\n\
               n->next = t; return n; }\n\
             int main(void) { struct node *l; l = mk(mk(NULL));\n\
               while (l != NULL) { l = l->next; } return 0; }",
        );
        assert!(ci_within_steensgaard(&g, &ci, &mut st));
    }

    #[test]
    fn field_insensitivity_collapses_struct_fields() {
        // x and y are distinct paths for CI but one object class here.
        let (g, ci, mut st) = pipeline(
            "struct s { int *x; int *y; };\n\
             int a; int b;\n\
             int main(void) { struct s v; int *r; v.x = &a; v.y = &b; \
             r = v.x; return *r; }",
        );
        let read = g
            .indirect_mem_ops()
            .into_iter()
            .find(|&(_, w)| !w)
            .map(|(n, _)| n)
            .unwrap();
        assert_eq!(ci_referent_bases(&ci, &g, read).len(), 1);
        let coarse = base_names(&g, &st.loc_bases(&g, read));
        assert_eq!(coarse, vec!["a", "b"]);
    }

    #[test]
    fn class_count_shrinks_with_aliasing() {
        let (g, _, mut st) = pipeline(
            "int a; int b; int c; int *p;\n\
             int main(void) { p = &a; p = &b; p = &c; return *p; }",
        );
        // a, b, c all share one class; the remaining bases keep theirs.
        let classes = st.base_class_count(&g);
        assert!(classes < g.base_count(), "{classes} vs {}", g.base_count());
    }

    #[test]
    fn direct_calls_bind_exactly() {
        let (g, _, mut st) = pipeline(
            "int a;\n\
             int *give(void) { return &a; }\n\
             int main(void) { int *p; p = give(); return *p; }",
        );
        let (read, _) = g.indirect_mem_ops()[0];
        assert_eq!(base_names(&g, &st.loc_bases(&g, read)), vec!["a"]);
    }
}
