//! Edit-replay equivalence: incremental re-analysis must be invisible.
//!
//! The contract of `Engine::analyze_incremental` is that memoized
//! summaries, dirty-cone seeding, and verbatim replay are *pure*
//! optimizations — for any edit, the canonical solution dump (sorted,
//! schedule- and numbering-independent; see `alias::solver::
//! solution_dump`) of every solver must be byte-identical to a
//! from-scratch run on the edited source. The harness drives the
//! seeded edit generator (`suite::edit`) over every bundled benchmark:
//! ≥200 independent single edits, multi-step five-solver edit chains
//! threaded through one `SummaryCache`, a full five-solver pass under
//! both one worker thread and auto parallelism, and a direct
//! parallel-vs-serial cross-check of the composed summary maps.

use alias::solver::solution_dump;
use alias::SolverSpec;
use engine::{Engine, EngineRun, Job};
use suite::edit::{apply_random_edit, edit_chain};

fn job(name: &str, source: &str) -> Job {
    Job::new(name, source)
}

/// CI-only engine: the seeded-resume path is the only solver with a
/// genuinely incremental algorithm, so the wide sweeps isolate it.
fn ci_engine(threads: usize) -> Engine {
    Engine::new().threads(threads).specs(&[SolverSpec::ci()])
}

/// Asserts every solution of `inc` dumps byte-identically to the same
/// solver's solution in a from-scratch run of the same jobs.
fn assert_equivalent(inc: &EngineRun, fresh: &EngineRun, label: &str) {
    assert_eq!(inc.benches.len(), fresh.benches.len());
    for (ib, fb) in inc.benches.iter().zip(&fresh.benches) {
        for fs in &fb.solutions {
            let f = fs
                .solution
                .as_deref()
                .unwrap_or_else(|| panic!("{label}: fresh {} failed", fs.analysis));
            let i = ib
                .solution(&fs.analysis)
                .unwrap_or_else(|| panic!("{label}: incremental {} missing", fs.analysis));
            assert_eq!(
                solution_dump(i, &ib.graph),
                solution_dump(f, &fb.graph),
                "{label}: {} diverged on {}",
                fs.analysis,
                fb.name
            );
        }
    }
}

/// ≥200 independent seeded edits across all 13 benchmarks, each
/// verified against a from-scratch solve of the edited source.
#[test]
fn two_hundred_seeded_edits_match_from_scratch() {
    let e = ci_engine(1);
    let mut total = 0usize;
    let mut seeded = 0usize;
    for (bi, b) in suite::benchmarks().iter().enumerate() {
        let base = vec![job(b.name, b.source)];
        let prev = e.run(&base).expect("baseline run");
        let mut found = 0usize;
        let mut seed = 0u64;
        while found < 16 && seed < 96 {
            let s = (bi as u64) << 32 | seed;
            seed += 1;
            let Some(step) = apply_random_edit(b.source, s) else {
                continue;
            };
            let jobs = vec![job(b.name, &step.source)];
            let inc = e.analyze_incremental(&prev, &jobs).expect("incremental");
            let fresh = e.run(&jobs).expect("fresh");
            let label = format!("{} seed {s} ({})", b.name, step.edit.description);
            assert_equivalent(&inc, &fresh, &label);
            let stats = inc.report.incremental.as_ref().expect("stats");
            seeded += stats.benches_seeded;
            found += 1;
            total += 1;
        }
        assert!(found >= 14, "{}: only {found} edits landed", b.name);
    }
    assert!(total >= 200, "only {total} edits exercised");
    // The sweep must actually exercise the seeded-resume path, not
    // just graph-fingerprint replay of no-op edits.
    assert!(
        seeded >= total / 2,
        "only {seeded}/{total} edits reached a seeded resume"
    );
}

/// Multi-step edit chains threaded through one `SummaryCache`, with
/// the full five-solver stack: every step of every solver is verified,
/// so a stale summary absorbed at step k — in *any* solver's
/// vocabulary — would be caught at step k+1.
#[test]
fn edit_chains_stay_equivalent_at_every_step_for_all_five_solvers() {
    let e = Engine::new().threads(1);
    for (bi, b) in suite::benchmarks().iter().enumerate() {
        let mut cache = e.cache();
        e.analyze_incremental_with(&mut cache, &[job(b.name, b.source)])
            .expect("cold step");
        for (si, step) in edit_chain(b.source, 0xC0FFEE ^ bi as u64, 4)
            .iter()
            .enumerate()
        {
            let jobs = vec![job(b.name, &step.source)];
            let inc = e
                .analyze_incremental_with(&mut cache, &jobs)
                .expect("chain step");
            assert_eq!(
                inc.benches[0].solutions.len(),
                alias::SolverSpec::all().len(),
                "the chain must drive the whole solver spectrum"
            );
            let fresh = e.run(&jobs).expect("fresh");
            let label = format!("{} chain step {si} ({})", b.name, step.edit.description);
            assert_equivalent(&inc, &fresh, &label);
        }
    }
}

/// Summary composition is wave-parallel inside a solve; the composed
/// facts must not depend on the worker-thread count. One cache is
/// filled serially, one under auto parallelism, and every solver's
/// per-function summary map must agree exactly.
#[test]
fn parallel_and_serial_summary_composition_agree() {
    let jobs = Job::suite();
    let serial = Engine::new().threads(1);
    let parallel = Engine::new().threads(0);
    let mut serial_cache = serial.cache();
    let mut parallel_cache = parallel.cache();
    serial
        .analyze_incremental_with(&mut serial_cache, &jobs)
        .expect("serial run");
    parallel
        .analyze_incremental_with(&mut parallel_cache, &jobs)
        .expect("parallel run");
    assert_eq!(serial_cache.spec_key(), parallel_cache.spec_key());
    for j in &jobs {
        let serial = serial_cache
            .summaries_of(&j.name)
            .unwrap_or_else(|| panic!("{}: missing from serial cache", j.name));
        let parallel = parallel_cache
            .summaries_of(&j.name)
            .unwrap_or_else(|| panic!("{}: missing from parallel cache", j.name));
        assert_eq!(
            (serial.source_hash, serial.graph_fp),
            (parallel.source_hash, parallel.graph_fp),
            "{}: keys differ",
            j.name
        );
        assert_eq!(
            serial.summaries.len(),
            alias::SolverSpec::all().len(),
            "{}: one summary payload per solver",
            j.name
        );
        for (solver, s) in serial.summaries {
            let p = parallel
                .summaries
                .get(solver)
                .unwrap_or_else(|| panic!("{}: {solver} missing from parallel cache", j.name));
            assert_eq!(
                **s, **p,
                "{}: {solver} summaries depend on the thread count",
                j.name
            );
        }
    }
}

/// The full five-solver stack, one edit per benchmark, under one
/// worker thread and auto parallelism: the dumps must agree with a
/// from-scratch run *and* across thread counts.
#[test]
fn full_solver_stack_is_equivalent_under_one_and_many_threads() {
    let base = Job::suite();
    let edited: Vec<Job> = base
        .iter()
        .enumerate()
        .map(|(bi, j)| {
            // A failed edit keeps the original source — that bench then
            // exercises the replay tier instead, which is fine.
            match apply_random_edit(&j.source, 0xFEED ^ bi as u64) {
                Some(step) => job(&j.name, &step.source),
                None => j.clone(),
            }
        })
        .collect();
    let mut dumps_by_threads: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 0] {
        let e = Engine::new().threads(threads);
        let prev = e.run(&base).expect("baseline run");
        let inc = e.analyze_incremental(&prev, &edited).expect("incremental");
        let fresh = e.run(&edited).expect("fresh");
        assert_equivalent(&inc, &fresh, &format!("threads={threads}"));
        dumps_by_threads.push(
            inc.benches
                .iter()
                .flat_map(|b| {
                    b.solutions
                        .iter()
                        .map(|s| solution_dump(s.solution.as_deref().unwrap(), &b.graph))
                })
                .collect(),
        );
    }
    assert_eq!(
        dumps_by_threads[0], dumps_by_threads[1],
        "solutions must not depend on the worker-thread count"
    );
}
