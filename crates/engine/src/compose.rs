//! Bottom-up summary composition over the call graph.
//!
//! The alias crate's [`Solution::func_extractor`] turns any solved
//! analysis into caller-independent per-function
//! [`FunctionSummary`](alias::summary::FunctionSummary) facts. Extraction is per-function and independent, so this module
//! schedules it the way a compositional analysis would run: strongly
//! connected components of the call graph in reverse topological order
//! (callees before callers), each *wave* of independent components
//! summarized in parallel across the engine's thread pool with no
//! shared worklist. The result is identical to the serial
//! [`summarize_serial`](alias::solver::summarize_serial) oracle — the
//! schedule affects wall-clock only, never the facts — and the test
//! suite cross-checks the two.
//!
//! The call graph comes from the shared CI solution's resolved
//! [`callees`](alias::ci::CiResult::callees), which soundly
//! over-approximate the targets of indirect calls. Without a CI
//! solution (a caller summarizing a standalone baseline) the schedule
//! degrades to a single wave — still parallel, just not bottom-up.

use crate::pool;
use alias::ci::CiResult;
use alias::fingerprint::GraphIndex;
use alias::solver::Solution;
use alias::summary::SolverSummaries;
use std::collections::HashMap;
use vdg::graph::{Graph, NodeId, VFuncId};

/// The bottom-up schedule: function ids grouped into waves such that
/// every call edge goes from a later wave to an earlier one (callees
/// first). Functions in one wave are independent — no call path
/// connects them except through already-summarized waves — so they can
/// be processed concurrently. Mutually recursive functions (one SCC)
/// always share a wave.
pub fn bottom_up_waves(
    graph: &Graph,
    index: &GraphIndex,
    callees: &HashMap<NodeId, Vec<VFuncId>, impl std::hash::BuildHasher>,
) -> Vec<Vec<VFuncId>> {
    let n = graph.func_count();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (&call, targets) in callees {
        let owner = index.node_owner[call.0 as usize];
        for &t in targets {
            adj[owner.0 as usize].push(t.0);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }

    let scc_of = tarjan_sccs(&adj);
    let scc_count = scc_of.iter().map(|&c| c + 1).max().unwrap_or(0);
    // Tarjan numbers components callees-first, so a single pass in
    // component order sees every callee's level before its callers'.
    let mut level = vec![0usize; scc_count];
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); scc_count];
    for (f, &c) in scc_of.iter().enumerate() {
        order[c].push(f);
    }
    let mut depth = 0;
    for c in 0..scc_count {
        let mut l = 0;
        for &f in &order[c] {
            for &t in &adj[f] {
                let tc = scc_of[t as usize];
                if tc != c {
                    l = l.max(level[tc] + 1);
                }
            }
        }
        level[c] = l;
        depth = depth.max(l + 1);
    }

    let mut waves: Vec<Vec<VFuncId>> = vec![Vec::new(); depth.max(1)];
    for (f, &c) in scc_of.iter().enumerate() {
        waves[level[c]].push(VFuncId(f as u32));
    }
    waves
        .iter_mut()
        .for_each(|w| w.sort_unstable_by_key(|f| f.0));
    waves.retain(|w| !w.is_empty());
    waves
}

/// Iterative Tarjan over the function-level digraph. Returns each
/// node's component id; components are numbered in reverse topological
/// order of the condensation (a component's callees always have
/// smaller ids, self-loops aside).
fn tarjan_sccs(adj: &[Vec<u32>]) -> Vec<usize> {
    const UNSEEN: u32 = u32::MAX;
    let n = adj.len();
    let mut idx = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut next_idx = 0u32;
    let mut next_scc = 0usize;
    // (node, next child position) frames replace recursion: the VDG
    // puts no bound on call-chain depth.
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if idx[root as usize] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            let vi = v as usize;
            if *ci == 0 {
                idx[vi] = next_idx;
                low[vi] = next_idx;
                next_idx += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            if let Some(&w) = adj[vi].get(*ci) {
                *ci += 1;
                let wi = w as usize;
                if idx[wi] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(idx[wi]);
                }
                continue;
            }
            frames.pop();
            if let Some(&mut (p, _)) = frames.last_mut() {
                let pi = p as usize;
                low[pi] = low[pi].min(low[vi]);
            }
            if low[vi] == idx[vi] {
                loop {
                    let w = stack.pop().expect("tarjan stack");
                    on_stack[w as usize] = false;
                    scc_of[w as usize] = next_scc;
                    if w == v {
                        break;
                    }
                }
                next_scc += 1;
            }
        }
    }
    scc_of
}

/// Whole-program summary extraction, scheduled bottom-up and run
/// wave-parallel. Facts-identical to
/// [`summarize_serial`](alias::solver::summarize_serial): `None`
/// exactly when the solution cannot be summarized (unstable naming, a
/// missing companion, or any function whose facts fall outside the
/// stable vocabulary).
pub fn summarize(
    graph: &Graph,
    index: &GraphIndex,
    sol: &dyn Solution,
    ci: Option<&CiResult>,
    threads: usize,
) -> Option<SolverSummaries> {
    if index.unsafe_reason.is_some() {
        return None;
    }
    let extract = sol.func_extractor(graph, index, ci)?;
    let waves = match ci {
        Some(ci) => bottom_up_waves(graph, index, &ci.callees),
        None => vec![graph.func_ids().collect::<Vec<_>>()],
    };
    let mut out = SolverSummaries::new(sol.kind());
    for wave in waves {
        // One wave = mutually independent call-graph components; the
        // extractor is `Sync`, so workers share it with no coordination.
        let chunk = pool::run_indexed(wave.len(), threads, |i| extract(wave[i]));
        for (f, s) in wave.iter().zip(chunk) {
            out.funcs.insert(graph.func(*f).name.clone(), s?);
        }
    }
    out.store = sol.summary_store(graph, index)?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_orders_callees_first() {
        // 0 -> 1 -> 2, 2 -> 1 (cycle {1,2}), 3 isolated.
        let adj = vec![vec![1], vec![2], vec![1], vec![]];
        let scc = tarjan_sccs(&adj);
        assert_eq!(scc[1], scc[2], "cycle shares a component");
        assert!(scc[0] > scc[1], "caller numbered after its callees");
        assert_ne!(scc[3], scc[0]);
        assert_ne!(scc[3], scc[1]);
    }

    #[test]
    fn waves_respect_call_depth() {
        let e = crate::Engine::new().threads(1);
        let run = e.run(&crate::Job::named(&["span"])).unwrap();
        let b = &run.benches[0];
        let index = GraphIndex::build(&b.graph);
        let waves = bottom_up_waves(&b.graph, &index, &b.ci.callees);
        let total: usize = waves.iter().map(Vec::len).sum();
        assert_eq!(total, b.graph.func_count(), "every function scheduled once");
        // Every resolved call edge points from a later wave to a
        // strictly earlier one, unless caller and callee share a wave
        // (mutual recursion).
        let wave_of: HashMap<u32, usize> = waves
            .iter()
            .enumerate()
            .flat_map(|(i, w)| w.iter().map(move |f| (f.0, i)))
            .collect();
        for (&call, targets) in &b.ci.callees {
            let owner = index.node_owner[call.0 as usize];
            for t in targets {
                assert!(
                    wave_of[&t.0] <= wave_of[&owner.0],
                    "call edge climbs the schedule"
                );
            }
        }
    }

    #[test]
    fn parallel_summaries_match_the_serial_oracle() {
        let e = crate::Engine::new().threads(1);
        let run = e.run(&crate::Job::named(&["span"])).unwrap();
        let b = &run.benches[0];
        let index = GraphIndex::build(&b.graph);
        for s in &b.solutions {
            let sol = s.solution.as_deref().expect("solved");
            let serial = alias::solver::summarize_serial(&b.graph, &index, sol, Some(&b.ci));
            for threads in [1, 4] {
                let par = summarize(&b.graph, &index, sol, Some(&b.ci), threads);
                assert_eq!(
                    par, serial,
                    "{} diverged from the serial oracle at {threads} threads",
                    s.analysis
                );
            }
        }
    }
}
