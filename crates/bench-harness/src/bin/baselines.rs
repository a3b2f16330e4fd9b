//! The precision spectrum across related analyses (our extension):
//!
//! ```text
//! Weihl (program-wide)       ⊒ CI (Fig. 1) ⊒ k=1 call-strings ⊒ assumption sets (Fig. 5)
//! Steensgaard (unification)  ⊒ CI (Fig. 1)
//! ```
//!
//! Weihl and Steensgaard are incomparable with each other: the former
//! loses program-point distinctions but keeps fields and subset
//! direction; the latter keeps neither but is almost linear.
//!
//! For each benchmark, reports the average number of *base-locations*
//! referenced per indirect memory operation under each analysis (the
//! field-insensitive unification baseline can only be compared at base
//! granularity), plus analysis time. All five solvers run through the
//! uniform `alias::SolverSpec::solve`, fanned out by the parallel engine.

/// Average distinct referent bases per indirect op under one solution.
fn avg_bases(sol: &dyn alias::Solution, graph: &vdg::Graph) -> f64 {
    let ops = graph.indirect_mem_ops();
    if ops.is_empty() {
        return 0.0;
    }
    let total: usize = ops
        .iter()
        .map(|&(node, _)| sol.loc_referent_bases(graph, node).len())
        .sum();
    total as f64 / ops.len() as f64
}

fn main() {
    const ORDER: [&str; 5] = ["weihl", "steensgaard", "ci", "k1", "cs"];
    let run = bench_harness::suite_spectrum(0);
    let mut rows = Vec::new();
    for b in &run.benches {
        let mut row = vec![b.name.clone()];
        for a in ORDER {
            let sol = b.solution(a).expect("solver within budget");
            row.push(format!("{:.2}", avg_bases(sol, &b.graph)));
        }
        for a in ORDER {
            row.push(format!("{:.0?}", b.wall(a).expect("solver ran")));
        }
        rows.push(row);
    }
    println!(
        "Precision spectrum: average base-locations per indirect memory op\n\
         (base granularity, so the field-insensitive unification baseline is\n\
         comparable; lower is more precise)\n"
    );
    println!(
        "{}",
        bench_harness::render_table(
            &[
                "name",
                "Weihl",
                "Steens",
                "CI",
                "k=1",
                "CS(assum)",
                "t(Weihl)",
                "t(Steens)",
                "t(CI)",
                "t(k=1)",
                "t(CS)"
            ],
            &rows
        )
    );
    println!(
        "Expected per row: Weihl >= CI, Steens >= CI, CI >= k=1 >= CS, and\n\
         CI == CS at indirect references (the paper's headline). Weihl and\n\
         Steens are mutually incomparable. The question the paper isolates\n\
         is the CI-vs-CS column pair; the left columns show how much the\n\
         program-point-specific formulation already bought."
    );
}
