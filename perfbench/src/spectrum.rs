//! The `spectrum` workload: fresh whole-program analysis under all five
//! solvers, one `engine::Engine` call per program, single-threaded,
//! repeated in passes over the paper suite plus the seeded scaling
//! sweep (`suite::scaling::standard_suite`).
//!
//! The traced run replaces each `Engine::run` call by the same pipeline
//! called layer by layer (`cfront::compile`, `vdg::build::lower`, the
//! shared CI solve, then each solver), so every layer gets its own span.

use crate::calib::Calib;
use crate::expected::{fp_line, Expected};
use crate::stats::{geomean, median, peak_rss_mb, percentile};
use crate::trace::{Profile, Tracer};
use crate::{BenchResult, Config, Size};
use alias::solver::{solution_fingerprint, Solution, SolutionBox};
use alias::{SolverKind, SolverSpec};
use engine::{Engine, Job};
use std::hint::black_box;
use std::time::Instant;
use vdg::build::{lower, BuildOptions};
use vdg::graph::Graph;

/// Set-up repetitions (scaling generation plus a warm-up pass over the
/// paper programs) before the first pass; one more follows every pass,
/// and the median of all is reported.
const SETUP_REPS: usize = 5;
/// Passes the end-to-end run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Passes of each phase of the traced run.
const TRACED_PASSES: usize = 2;
/// The programs of the tiny smoke size.
const TINY: [&str; 5] = ["allroots", "part", "span", "chain-032", "diamond-008"];

/// Solver names in engine order, with their layer names.
const SOLVERS: [(&str, &str); 5] = [
    ("weihl", "alias.weihl"),
    ("steensgaard", "alias.steensgaard"),
    ("ci", "alias.ci"),
    ("k1", "alias.k1"),
    ("cs", "alias.cs"),
];

/// Per-solver fingerprints of one program, in engine solver order.
type Fps = Vec<(String, Option<u64>)>;

/// Every solver's solution of one program, in engine order (`None`
/// where the solver failed).
type Solutions = Vec<(&'static str, Option<SolutionBox>)>;

/// Scaling sweeps per corpus. The sweep's cost depends on its seed, and
/// it dominates a pass, so several draws keep two seeds' corpora close
/// in cost: with four, `ops_per_s` still spread 0.11 over ten seeds.
pub const SWEEPS: u64 = 8;

/// The corpus: the 13 paper programs plus the scaling sweeps for seeds
/// `SWEEPS * seed ..`.
pub fn corpus(seed: u64, size: Size) -> Vec<Job> {
    let mut jobs = Job::suite();
    let sweeps = if size == Size::Tiny { 1 } else { SWEEPS };
    for k in 0..sweeps {
        jobs.extend(
            suite::scaling::standard_suite(seed.wrapping_mul(SWEEPS).wrapping_add(k))
                .into_iter()
                .map(|p| Job::new(p.name, p.source)),
        );
    }
    if size == Size::Tiny {
        jobs.retain(|j| TINY.iter().any(|t| j.name.starts_with(t)));
    }
    jobs
}

/// Whether a corpus program comes from a scaling sweep (the paper
/// programs' names never contain a dash).
fn is_scaling(job: &Job) -> bool {
    job.name.contains('-')
}

fn engine() -> Engine {
    Engine::new().threads(1)
}

fn layer_of(solver: &str) -> &'static str {
    SOLVERS
        .iter()
        .find(|(s, _)| *s == solver)
        .map_or("alias.other", |(_, l)| l)
}

/// The pipeline `Engine::run` performs for one program, called layer
/// by layer under spans. Returns the graph and every solver's solution
/// in engine order.
fn solve_direct(job: &Job, tr: &Tracer) -> Result<(Graph, Solutions), String> {
    let prog = tr
        .span("cfront", || cfront::compile(&job.source))
        .map_err(|e| format!("{}: {e}", job.name))?;
    let graph = tr
        .span("vdg", || lower(&prog, &BuildOptions::default()))
        .map_err(|e| format!("{}: {e}", job.name))?;
    let ci = tr.span("alias.ci", || SolverSpec::ci().solve_ci(&graph));
    let mut out = Vec::new();
    for spec in SolverSpec::all() {
        let name = spec.name();
        let sol = if spec.kind() == SolverKind::Ci {
            Some(Box::new(ci.clone()) as SolutionBox)
        } else {
            tr.span(layer_of(name), || spec.solve(&graph, Some(&ci)))
                .ok()
        };
        out.push((name, sol));
    }
    Ok((graph, out))
}

/// Counts the exact work counters of one solution.
fn count_solution(tr: &Tracer, solver: &str, sol: &dyn Solution) {
    if solver == "steensgaard" {
        return;
    }
    let layer = layer_of(solver);
    for (what, v) in [
        ("flow_ins", sol.flow_ins()),
        ("flow_outs", sol.flow_outs()),
        ("pairs", sol.pairs().map(|p| p as u64)),
        ("dedup_hits", sol.dedup_hits()),
    ] {
        tr.count(&format!("{layer}.{what}"), v.unwrap_or(0));
    }
}

fn fps_of(graph: &Graph, sols: &[(&str, Option<&dyn Solution>)]) -> Fps {
    sols.iter()
        .map(|(name, sol)| {
            (
                name.to_string(),
                sol.map(|s| solution_fingerprint(s, graph)),
            )
        })
        .collect()
}

/// The reference fingerprints for `jobs`: the committed values where
/// they exist, else a direct layer-by-layer solve (outside any timed
/// region).
pub fn references(expected: &Expected, jobs: &[Job]) -> Result<Vec<Fps>, String> {
    let quiet = Tracer::new(false);
    jobs.iter()
        .map(|job| {
            let committed: Option<Fps> = SOLVERS
                .iter()
                .map(|(s, _)| expected.fp(&job.name, s).map(|fp| (s.to_string(), fp)))
                .collect();
            match committed {
                Some(fps) => Ok(fps),
                None => {
                    let (graph, sols) = solve_direct(job, &quiet)?;
                    let view: Vec<(&str, Option<&dyn Solution>)> =
                        sols.iter().map(|(n, s)| (*n, s.as_deref())).collect();
                    Ok(fps_of(&graph, &view))
                }
            }
        })
        .collect()
}

/// Compares one program's fingerprints against its reference.
fn check(r: &mut BenchResult, job: &Job, got: &Fps, want: &Fps) {
    if got != want {
        let diff: Vec<String> = got
            .iter()
            .zip(want)
            .filter(|(g, w)| g != w)
            .map(|(g, w)| format!("{} got {:?} want {:?}", g.0, g.1, w.1))
            .collect();
        r.fail(format!("spectrum {}: {}", job.name, diff.join(", ")));
    }
}

/// One program through `Engine::run`, as the end-to-end run calls it.
fn engine_op(eng: &Engine, job: &Job, tr: &Tracer) -> Result<(Fps, f64), String> {
    let t = Instant::now();
    let run = tr.op("bench.program", || eng.run(std::slice::from_ref(job)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let run = run.map_err(|e| format!("{}: {e}", job.name))?;
    let b = &run.benches[0];
    tr.count("vdg.nodes", b.graph.node_count() as u64);
    for s in &b.solutions {
        if let Some(sol) = s.solution.as_deref() {
            count_solution(tr, &s.analysis, sol);
        }
    }
    let view: Vec<(&str, Option<&dyn Solution>)> = b
        .solutions
        .iter()
        .map(|s| (s.analysis.as_str(), s.solution.as_deref()))
        .collect();
    Ok((fps_of(&b.graph, &view), ms))
}

/// One program through the layer-by-layer pipeline under spans.
fn direct_op(job: &Job, tr: &Tracer) -> Result<Fps, String> {
    let (graph, sols) = tr.op("bench.program", || solve_direct(job, tr))?;
    tr.count("vdg.nodes", graph.node_count() as u64);
    for (name, sol) in &sols {
        if let Some(sol) = sol.as_deref() {
            count_solution(tr, name, sol);
        }
    }
    let view: Vec<(&str, Option<&dyn Solution>)> =
        sols.iter().map(|(n, s)| (*n, s.as_deref())).collect();
    Ok(fps_of(&graph, &view))
}

/// Set-up: scaling generation plus one warm-up pass over the paper
/// programs; returns the corpus and the set-up time in seconds. The
/// seeded sweeps are left out of the warm-up: their cost depends on the
/// seed, and set-up should cost the same for every seed.
fn setup(cfg: &Config, eng: &Engine) -> (Vec<Job>, f64) {
    let t = Instant::now();
    let jobs = corpus(cfg.seed, cfg.size);
    for job in jobs.iter().filter(|j| !is_scaling(j)) {
        let _ = black_box(eng.run(std::slice::from_ref(job)));
    }
    (jobs, t.elapsed().as_secs_f64())
}

/// The end-to-end run: passes over the corpus for `cfg.seconds`. Every
/// time is brought to the reference speed by the run's calibration
/// ([`crate::calib`]).
pub fn measure(cfg: &Config) -> BenchResult {
    let mut r = BenchResult::default();
    let eng = engine();
    let mut cal = Calib::new();
    // Set-up is repeated between passes as well as before them: its
    // figure then samples the box over the whole run, as the other
    // metrics do, instead of over its first second only.
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        cal.sample();
        let (j, s) = setup(cfg, &eng);
        jobs = j;
        setups.push(s);
    }
    let refs = match references(&cfg.expected, &jobs) {
        Ok(refs) => refs,
        Err(e) => {
            r.attempted += 1;
            r.fail(format!("reference solve: {e}"));
            return r;
        }
    };
    let tr = Tracer::new(false);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        for (i, (job, want)) in jobs.iter().zip(&refs).enumerate() {
            r.attempted += 1;
            cal.tick();
            match engine_op(&eng, job, &tr) {
                Ok((got, ms)) => {
                    times[i].push(ms);
                    check(&mut r, job, &got, want);
                }
                Err(e) => r.fail(e),
            }
        }
        passes += 1;
        cal.sample();
        setups.push(setup(cfg, &eng).1);
    }
    let scale = cal.scale();
    // A pass's time is the sum of each program's median time, so one
    // run of a program stalled by the box does not move it.
    let pass_ms: f64 = times.iter().map(|t| median(t)).sum();
    // Latency is taken over the paper programs only: they are the same
    // for every seed, while the seeded scaling sweeps vary so much in
    // cost that their tail would mostly show which seed ran.
    let paper: Vec<f64> = jobs
        .iter()
        .zip(&times)
        .filter(|(j, _)| !is_scaling(j))
        .flat_map(|(_, t)| t.iter().copied())
        .collect();
    r.metric("setup_s", median(&setups) * scale, "s");
    r.metric(
        "ops_per_s",
        1e3 * jobs.len() as f64 / (pass_ms * scale),
        "1/s",
    );
    r.metric("latency_ms_p50", median(&paper) * scale, "ms");
    r.metric("latency_ms_p90", percentile(&paper, 0.9) * scale, "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.notes.push(format!(
        "spectrum: {} programs x {passes} passes; unscaled {:.3} programs/s, paper p50 {:.3} ms, p90 {:.3} ms; {} calibration samples, median {:.4} ms",
        jobs.len(),
        1e3 * jobs.len() as f64 / pass_ms,
        median(&paper),
        percentile(&paper, 0.9),
        cal.len(),
        cal.median_ms()
    ));
    r
}

/// One phase of the traced run: `TRACED_PASSES` passes, untraced
/// through `Engine::run` or detailed through the layer-by-layer
/// pipeline. Returns the profile and the per-program median times.
fn phase(
    r: &mut BenchResult,
    cfg: &Config,
    jobs: &[Job],
    refs: &[Fps],
    detailed: bool,
    write: bool,
) -> (Profile, Vec<f64>) {
    let eng = engine();
    let tr = Tracer::new(detailed);
    let mut times = vec![Vec::new(); jobs.len()];
    for _ in 0..TRACED_PASSES {
        for (i, (job, want)) in jobs.iter().zip(refs).enumerate() {
            r.attempted += 1;
            let got = if detailed {
                direct_op(job, &tr)
            } else {
                engine_op(&eng, job, &tr).map(|(fps, ms)| {
                    times[i].push(ms);
                    fps
                })
            };
            match got {
                Ok(got) => check(r, job, &got, want),
                Err(e) => r.fail(e),
            }
        }
    }
    let medians = times.iter().map(|t| median(t)).collect();
    (cfg.fold(vec![tr.finish()], write), medians)
}

/// The traced run: one untraced phase, then two detailed phases whose
/// exact counters must agree with each other and with the untraced one.
pub fn traced(cfg: &Config) -> BenchResult {
    let mut r = BenchResult::default();
    let eng = engine();
    let (jobs, _) = setup(cfg, &eng);
    let refs = match references(&cfg.expected, &jobs) {
        Ok(refs) => refs,
        Err(e) => {
            r.attempted += 1;
            r.fail(format!("reference solve: {e}"));
            return r;
        }
    };
    let (untraced, medians) = phase(&mut r, cfg, &jobs, &refs, false, false);
    let (first, _) = phase(&mut r, cfg, &jobs, &refs, true, true);
    let (second, _) = phase(&mut r, cfg, &jobs, &refs, true, false);
    crate::report::layers(&mut r, &untraced, &first, &second);
    r.metric("analyze_ms_geomean", geomean(&medians), "ms");
    r
}

/// The `expected.txt` lines for `cfg.seed`: every program × solver
/// fingerprint.
pub fn expected_lines(cfg: &Config) -> Vec<String> {
    let jobs = corpus(cfg.seed, cfg.size);
    let refs = references(&Expected::default(), &jobs).expect("the corpus compiles");
    let mut lines = Vec::new();
    for (job, fps) in jobs.iter().zip(refs) {
        for (solver, fp) in fps {
            lines.push(fp_line(&job.name, &solver, fp));
        }
    }
    lines
}
