//! Heap-naming experiment (paper §2 footnote 3 and §5.1.1).
//!
//! The paper names every heap allocation site with a single
//! base-location and remarks that "increasing the number of
//! base-locations per malloc, e.g., by naming such base-locations with a
//! call string instead of a single allocation site, would be a trivial
//! modification" — and predicts (§5.1.1) that more precise heap analyses
//! "allow multiple representatives per allocation site, yielding a
//! larger pool of locations, and thus a larger set of spurious points-to
//! relations in the context-insensitive case."
//!
//! This binary measures both effects: pair counts and the Figure 6
//! spurious percentage under site naming vs k=1 call-string naming.

use alias::stats::spurious_row;
use alias::{CsResult, HeapNaming, SolverSpec};
use vdg::build::{lower, BuildOptions};

fn main() {
    let mut rows = Vec::new();
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();

        let mut cells = vec![b.name.to_string()];
        let mut spurs = Vec::new();
        for naming in [HeapNaming::Site, HeapNaming::CallString1] {
            let ci = SolverSpec::ci().heap_naming(naming).solve_ci(&graph);
            cells.push(ci.total_pairs().to_string());
            // Finer heap naming makes the (still exponential)
            // context-sensitive analysis dramatically more expensive —
            // exactly the scalability cliff the paper warns about — so
            // give it a firm budget and report overflows.
            let cs = SolverSpec::cs()
                .heap_naming(naming)
                .max_steps(5_000_000)
                .solve(&graph, Some(&ci))
                .map(|s| s.downcast::<CsResult>().expect("cs result"));
            match cs {
                Ok(cs) => {
                    let row = spurious_row(&graph, &ci, &cs);
                    cells.push(format!("{:.1}", row.percent_spurious));
                    spurs.push(Some(row.percent_spurious));
                }
                Err(_) => {
                    cells.push("OVERFLOW".to_string());
                    spurs.push(None);
                }
            }
        }
        cells.push(match (spurs[0], spurs[1]) {
            (Some(a), Some(b)) => {
                if b >= a {
                    "yes".to_string()
                } else {
                    "no".to_string()
                }
            }
            _ => "CS infeasible".to_string(),
        });
        rows.push(cells);
    }
    println!("Heap naming: one base per site vs per (site, immediate caller)\n");
    println!(
        "{}",
        bench_harness::render_table(
            &[
                "name",
                "CI pairs (site)",
                "spur% (site)",
                "CI pairs (k=1)",
                "spur% (k=1)",
                "spur grows?"
            ],
            &rows
        )
    );
    println!(
        "(paper §5.1.1: finer heap naming enlarges the location pool and the\n\
         spurious share under context-insensitivity — the \"interesting\n\
         paradox\" that more precise analyses produce worse-looking absolute\n\
         statistics)"
    );
}
