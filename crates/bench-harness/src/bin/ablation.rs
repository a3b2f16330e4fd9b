//! Ablations of the design choices DESIGN.md calls out: strong updates,
//! subsumption, and CI pruning.

use alias::stats::indirect_ref_rows;
use alias::{CsResult, SolverSpec};

fn main() {
    println!("Ablation study\n");
    let mut rows = Vec::new();
    for d in bench_harness::prepare_all() {
        // Strong updates off: CI pair growth.
        let weak = SolverSpec::ci().strong_updates(false).solve_ci(&d.graph);
        // CS without subsumption (bounded budget).
        let budget = 30_000_000;
        let no_subsume = SolverSpec::cs()
            .subsumption(false)
            .max_steps(budget)
            .solve(&d.graph, Some(&d.ci))
            .map(|s| s.downcast::<CsResult>().expect("cs result"));
        // CS without CI pruning.
        let no_prune = SolverSpec::cs()
            .ci_pruning(false)
            .max_steps(budget)
            .solve(&d.graph, Some(&d.ci))
            .map(|s| s.downcast::<CsResult>().expect("cs result"));
        let fmt_cs = |r: &Result<alias::CsResult, alias::AnalysisError>| match r {
            Ok(cs) => format!("{}", cs.flow_ins),
            Err(_) => "OVERFLOW".to_string(),
        };
        let (r_strong, _) = indirect_ref_rows(&d.graph, d.ci.as_ref());
        let (r_weak, _) = indirect_ref_rows(&d.graph, &weak);
        rows.push(vec![
            d.name.to_string(),
            d.ci.total_pairs().to_string(),
            weak.total_pairs().to_string(),
            format!(
                "+{:.0}%",
                100.0 * (weak.total_pairs() as f64 / d.ci.total_pairs() as f64 - 1.0)
            ),
            format!("{:.2}", r_strong.avg),
            format!("{:.2}", r_weak.avg),
            d.cs.flow_ins.to_string(),
            fmt_cs(&no_subsume),
            fmt_cs(&no_prune),
        ]);
    }
    println!(
        "{}",
        bench_harness::render_table(
            &[
                "name",
                "CI pairs",
                "no strong-upd",
                "growth",
                "read avg",
                "read avg (weak)",
                "CS flow-ins",
                "no subsumption",
                "no CI-pruning"
            ],
            &rows
        )
    );
    println!(
        "(the paper could not even run its unoptimized context-sensitive\n\
         algorithm on \"any but the smallest of examples\"; OVERFLOW marks a\n\
         30M-step budget exhaustion)"
    );
}
