//! End-to-end pipeline integration: every suite benchmark must flow
//! through frontend → VDG → CI → CS with structurally sane results.

use alias::{cs_subset_of_ci, CsResult, SolverSpec};
use vdg::build::{lower, BuildOptions};
use vdg::stats::size_stats;

#[test]
fn all_benchmarks_flow_through_the_pipeline() {
    for b in suite::benchmarks() {
        let prog =
            cfront::compile(b.source).unwrap_or_else(|e| panic!("{}: frontend: {e}", b.name));
        let graph = lower(&prog, &BuildOptions::default())
            .unwrap_or_else(|e| panic!("{}: lowering: {e}", b.name));
        graph
            .validate()
            .unwrap_or_else(|e| panic!("{}: invalid graph: {e}", b.name));

        let sizes = size_stats(&graph, b.source);
        assert!(sizes.lines > 50, "{}: too few lines", b.name);
        assert!(
            sizes.nodes > sizes.lines,
            "{}: VDG smaller than the source?",
            b.name
        );
        assert!(sizes.alias_related_outputs > 0, "{}", b.name);

        let ci = SolverSpec::ci().solve_ci(&graph);
        assert!(ci.total_pairs() > 0, "{}: no points-to pairs", b.name);
        let cs = SolverSpec::cs()
            .solve(&graph, Some(&ci))
            .unwrap_or_else(|e| panic!("{}: CS blew the budget: {e}", b.name))
            .downcast::<CsResult>()
            .expect("cs result");
        assert!(
            cs_subset_of_ci(&graph, &ci, &cs),
            "{}: CS produced a pair CI lacks",
            b.name
        );
    }
}

#[test]
fn every_benchmark_has_indirect_memory_operations() {
    // Figure 4 needs a populated table: pointer-intensive programs must
    // actually dereference pointers.
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        assert!(
            !graph.indirect_mem_ops().is_empty(),
            "{}: no indirect reads/writes",
            b.name
        );
    }
}

#[test]
fn discovered_call_graph_reaches_every_function() {
    // The CI solver discovers calls from function values; every defined
    // function except the root must end up someone's callee (the suite
    // has no dead functions).
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        let ci = SolverSpec::ci().solve_ci(&graph);
        let mut called: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for fs in ci.callees.values() {
            called.extend(fs.iter().map(|f| f.0));
        }
        for f in graph.func_ids() {
            if f == graph.root() {
                continue;
            }
            assert!(
                called.contains(&f.0),
                "{}: function `{}` is never called",
                b.name,
                graph.func(f).name
            );
        }
    }
}

#[test]
fn cooper_scheme_pipeline_also_works() {
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(
            &prog,
            &BuildOptions {
                rec_local_scheme: vdg::RecLocalScheme::Cooper,
            },
        )
        .unwrap();
        let ci = SolverSpec::ci().solve_ci(&graph);
        assert!(ci.total_pairs() > 0, "{}", b.name);
    }
}
