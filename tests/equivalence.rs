//! Difference propagation is a pure scheduling optimization: for every
//! solver with the discipline knob, the naive (PR 1-style) worklist and
//! the delta-batched worklist must reach the *same* fixpoint — the same
//! pair sets on every output, pair for pair, and the same
//! schedule-independent cost counters (`flow_ins` counts deliveries and
//! `flow_outs` unique insertions, both properties of the fixpoint, not
//! of the order it was reached in).
//!
//! The checks run all five analyses over every suite benchmark; the
//! solvers without a discipline knob (Steensgaard's unification and the
//! assumption-set CS) ride along to pin down run-to-run determinism.

use alias::{SolverKind, SolverSpec};
use vdg::build::{lower, BuildOptions};

#[test]
fn naive_and_delta_disciplines_reach_the_same_fixpoint() {
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        let delta = SolverSpec::all();
        let naive = SolverSpec::all_naive();
        assert_eq!(delta.len(), naive.len());
        for (d, n) in delta.iter().zip(&naive) {
            assert_eq!(d.name(), n.name(), "solver lists must stay aligned");
            let sd = d
                .solve(&graph, None)
                .unwrap_or_else(|e| panic!("{}: {} (delta) failed: {e:?}", b.name, d.name()));
            let sn = n
                .solve(&graph, None)
                .unwrap_or_else(|e| panic!("{}: {} (naive) failed: {e:?}", b.name, n.name()));
            assert_eq!(
                sd.pairs(),
                sn.pairs(),
                "{}: {} pair totals differ across disciplines",
                b.name,
                d.name()
            );
            assert_eq!(
                sd.flow_ins(),
                sn.flow_ins(),
                "{}: {} deliveries differ across disciplines",
                b.name,
                d.name()
            );
            assert_eq!(
                sd.flow_outs(),
                sn.flow_outs(),
                "{}: {} unique insertions differ across disciplines",
                b.name,
                d.name()
            );
            // Pair-for-pair: the canonicalized solutions must agree on
            // every output, not just in aggregate.
            if let (Some(pd), Some(pn)) = (sd.as_points_to(), sn.as_points_to()) {
                for o in graph.output_ids() {
                    assert_eq!(
                        pd.pairs_at(o),
                        pn.pairs_at(o),
                        "{}: {} pairs at output {o} differ across disciplines",
                        b.name,
                        d.name()
                    );
                }
            }
            // The delta discipline must actually be the delta discipline
            // (and the naive one must not fake the batching counter).
            if matches!(
                d.kind(),
                SolverKind::Ci | SolverKind::Weihl | SolverKind::CallString1
            ) {
                assert!(
                    sd.delta_batches().is_some(),
                    "{}: {} delta run reports no batches",
                    b.name,
                    d.name()
                );
                assert_eq!(
                    sn.delta_batches(),
                    None,
                    "{}: {} naive run reports batches",
                    b.name,
                    n.name()
                );
            }
        }
    }
}

#[test]
fn scaling_programs_agree_across_disciplines() {
    // Same property on the synthetic scaling generator's shapes (one
    // small instance of each family; the full sweep is benchmarked, not
    // tested, for time).
    for p in [suite::scaling::chain(16, 7), suite::scaling::diamond(4, 7)] {
        let prog = cfront::compile(&p.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        for (d, n) in SolverSpec::all().iter().zip(&SolverSpec::all_naive()) {
            let sd = d.solve(&graph, None).unwrap();
            let sn = n.solve(&graph, None).unwrap();
            assert_eq!(
                sd.pairs(),
                sn.pairs(),
                "{}: {} pair totals differ across disciplines",
                p.name,
                d.name()
            );
            if let (Some(pd), Some(pn)) = (sd.as_points_to(), sn.as_points_to()) {
                for o in graph.output_ids() {
                    assert_eq!(pd.pairs_at(o), pn.pairs_at(o));
                }
            }
        }
    }
}
