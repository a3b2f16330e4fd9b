//! Developer probe (ignored by default): prints CI/CS sizes, timings,
//! spurious percentages, and headline mismatches for every benchmark.
//!
//! ```sh
//! cargo test -p suite --release --test probe -- --ignored --nocapture
//! ```

use alias::{CsResult, SolverSpec};
use vdg::build::{lower, BuildOptions};

#[test]
#[ignore]
fn probe_all() {
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        let t0 = std::time::Instant::now();
        let ci = SolverSpec::ci().solve_ci(&graph);
        let ci_t = t0.elapsed();
        let t1 = std::time::Instant::now();
        let cs = SolverSpec::cs()
            .solve(&graph, Some(&ci))
            .map(|s| s.downcast::<CsResult>().expect("cs result"));
        let cs_t = t1.elapsed();
        match cs {
            Ok(cs) => {
                let mismatches = alias::stats::compare_at_indirect_refs(&graph, &ci, &cs);
                let row = alias::stats::spurious_row(&graph, &ci, &cs);
                let by_kind = alias::stats::spurious_by_kind(&graph, &ci, &cs);
                println!(
                    "{:<10} ci_pairs={:<6} cs_pairs={:<6} spur%={:<5.1} mism={} ci={:?} cs={:?} flows ci={}ins/{}outs cs={}ins/{}outs spur_kinds p{} f{} a{} s{}",
                    b.name, ci.total_pairs(), cs.total_pairs(), row.percent_spurious,
                    mismatches.len(), ci_t, cs_t, ci.flow_ins, ci.flow_outs, cs.flow_ins, cs.flow_outs,
                    by_kind.pointer, by_kind.function, by_kind.aggregate, by_kind.store,
                );
                for m in mismatches.iter().take(3) {
                    println!(
                        "   MISMATCH {:?} ci={:?} cs={:?}",
                        m.node, m.ci_referents, m.cs_referents
                    );
                }
            }
            Err(e) => println!("{:<10} CS OVERFLOW: {e}", b.name),
        }
    }
}
