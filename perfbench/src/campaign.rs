//! The `campaign` workload: `engine::campaign::run` over a fixed seed
//! range with one worker thread and a fresh state directory per pass.
//! Three quarters of the seeds use `GenConfig::campaign()`, the rest
//! `GenConfig::threaded()`, so the race checker and the interleaving
//! oracle carry real load.
//!
//! Each campaign runs in slices the way a long campaign is run by hand:
//! one `campaign::run` invocation per journal chunk (`max_chunks = 1`),
//! each resuming from the journal the previous one wrote. The final
//! invocation writes `CAMPAIGN_report.json`, which is byte-identical to
//! an uninterrupted run's.
//!
//! `campaign::run` is one public call, so the traced run replays the
//! per-seed pipeline it drives (`engine::fuzz`'s differential check)
//! through the same public functions, with a span around each. The
//! replay is a copy of that pipeline and can drift from it, so it is
//! checked twice: its counters must match the campaign report (clean
//! and degraded seeds, demand queries and hits, checker diagnostics,
//! functions), and each seed's outcome must match `engine::fuzz` run on
//! that seed alone.

use crate::calib::Calib;
use crate::expected::digest_line;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::{Profile, Tracer};
use crate::{BenchResult, Config, Size};
use alias::fingerprint::{fnv64, GraphIndex};
use alias::solver::{solution_dump, Solution, SolutionBox};
use alias::{Propagation, SolverKind, SolverSpec};
use engine::campaign::{self, CampaignConfig};
use engine::{Engine, FuzzConfig, Job};
use std::time::Instant;
use suite::generator::{generate, GenConfig};
use vdg::build::{lower, BuildOptions};
use vdg::graph::{Graph, OutputId};

/// Set-up repetitions (a cold start plus a warm-up campaign); the
/// median is reported.
const SETUP_REPS: usize = 9;
/// First seed of the warm-up campaigns, the same for every workload
/// seed so that set-up costs the same for every seed.
const WARMUP_START: u64 = 0;

/// Seeds per pass for each preset, and the journal chunk size.
#[derive(Clone, Copy)]
struct Shape {
    main: u64,
    threaded: u64,
    chunk: u64,
}

/// The end-to-end pass. Per-seed cost varies widely between generated
/// programs, so a pass covers enough seeds that two seed ranges cost
/// about the same; at about 16 seeds/s on one core it takes some 30 s.
fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            main: 360,
            threaded: 120,
            chunk: 4,
        },
        Size::Tiny => Shape {
            main: 3,
            threaded: 1,
            chunk: 2,
        },
    }
}

/// The traced run's pass: the first seeds of the end-to-end range.
fn traced_shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            main: 36,
            threaded: 12,
            chunk: 4,
        },
        Size::Tiny => shape(size),
    }
}

/// The set-up's warm-up: one journal chunk of each preset.
fn warmup_shape(size: Size) -> Shape {
    let n = match size {
        Size::Full => 4,
        Size::Tiny => 1,
    };
    Shape {
        main: n,
        threaded: n,
        chunk: n,
    }
}

/// The two campaigns of one pass: (label, generator preset, seeds).
fn presets(s: Shape) -> [(&'static str, GenConfig, u64); 2] {
    [
        ("campaign", GenConfig::campaign(), s.main),
        ("threaded", GenConfig::threaded(), s.threaded),
    ]
}

/// First seed of both seed ranges for a workload seed.
fn start_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1000)
}

/// The per-seed knobs `ruf95 campaign` uses: corpus statistics on,
/// everything else at the fuzzer defaults.
fn fuzz_config(gen: GenConfig) -> FuzzConfig {
    FuzzConfig {
        gen,
        corpus_stats: true,
        ..FuzzConfig::default()
    }
}

/// One campaign of a pass, run one journal chunk at a time.
fn campaign_config(
    start: u64,
    s: Shape,
    gen: GenConfig,
    seeds: u64,
    dir: std::path::PathBuf,
) -> CampaignConfig {
    CampaignConfig {
        seeds,
        start_seed: start,
        chunk: s.chunk,
        threads: 1,
        dir,
        fuzz: fuzz_config(gen),
        max_chunks: Some(1),
        report_out: None,
        panic_seed: None,
        progress: false,
    }
}

/// Report-level figures of one campaign, for the replay cross-check.
fn count_report(tr: &Tracer, r: &campaign::CampaignReport) {
    tr.count("campaign.seeds", r.seeds);
    tr.count("campaign.clean", r.clean);
    tr.count("campaign.degraded", r.degraded);
    tr.count("campaign.functions", r.func_total);
    tr.count("alias.demand.queries", r.demand_queries);
    tr.count("alias.demand.hits", r.demand_hits);
    tr.count("checker.diagnostics", r.diag_total);
}

/// Runs one campaign in journal-chunk slices; returns the report bytes
/// and records each slice's latency, with a calibration sample before
/// each slice.
fn run_sliced(
    r: &mut BenchResult,
    tr: &Tracer,
    cc: &CampaignConfig,
    cal: &mut Calib,
    latencies: &mut Vec<f64>,
) -> Result<Vec<u8>, String> {
    let (start, seeds) = (cc.start_seed, cc.seeds);
    loop {
        cal.tick();
        let t = Instant::now();
        let out = tr
            .op("bench.slice", || campaign::run(cc))
            .map_err(|e| format!("campaign: {e}"))?;
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(rep) = &out.report {
            count_report(tr, rep);
            r.attempted += rep.seeds;
            let bad: u64 = rep.violations_total + rep.crashed + rep.quarantine.len() as u64;
            if bad > 0 {
                r.failed += bad.min(rep.seeds);
                r.notes.push(format!(
                    "check failed: campaign seeds {start}..{}: {} violations, {} crashed, {} quarantined",
                    start + seeds,
                    rep.violations_total,
                    rep.crashed,
                    rep.quarantine.len()
                ));
            }
            return std::fs::read(&out.report_path)
                .map_err(|e| format!("{}: {e}", out.report_path.display()));
        }
        if out.chunks_run == 0 {
            return Err("campaign slice made no progress".into());
        }
    }
}

/// One pass: both campaigns, sliced, in fresh state directories.
/// Returns the digest of the two reports' bytes.
fn pass(
    r: &mut BenchResult,
    cfg: &Config,
    s: Shape,
    tr: &Tracer,
    index: usize,
    cal: &mut Calib,
    latencies: &mut Vec<f64>,
) -> Result<u64, String> {
    let mut bytes = Vec::new();
    for (label, gen, seeds) in presets(s) {
        let dir = cfg.work_dir.join(format!("pass{index}-{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cc = campaign_config(start_seed(cfg.seed), s, gen, seeds, dir.clone());
        let report = run_sliced(r, tr, &cc, cal, latencies);
        let _ = std::fs::remove_dir_all(&dir);
        bytes.extend(report?);
    }
    Ok(fnv64(&bytes))
}

/// Set-up: a cold start of `campaign::run` in fresh state directories
/// (configuration check, journal key, journal probe, state and
/// quarantine directories) that runs one warm-up chunk of each preset
/// over fixed seeds, `SETUP_REPS` times; median seconds. The warm-up's
/// outputs are checked like a pass's.
///
/// The cold start alone is a few hundred microseconds of file-system
/// calls, whose speed drifted by 2x over minutes on the measuring box;
/// the warm-up chunk makes the figure mostly program work.
fn setup(r: &mut BenchResult, cfg: &Config) -> Result<f64, String> {
    let s = warmup_shape(cfg.size);
    let tr = Tracer::new(false);
    let mut times = Vec::new();
    for k in 0..SETUP_REPS {
        let dir = cfg.work_dir.join(format!("setup{k}"));
        let t = Instant::now();
        for (label, gen, seeds) in presets(s) {
            let cc = campaign_config(WARMUP_START, s, gen, seeds, dir.join(label));
            run_sliced(r, &tr, &cc, &mut Calib::idle(), &mut Vec::new())?;
        }
        times.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(median(&times))
}

/// Compares a full pass's digest with the first pass and the committed
/// value.
fn check_digest(r: &mut BenchResult, cfg: &Config, first: &mut Option<u64>, digest: u64) {
    let seeds = {
        let s = shape(cfg.size);
        s.main + s.threaded
    };
    let committed = cfg.expected.digest("campaign", cfg.size.name(), cfg.seed);
    let want = committed.or(*first);
    if want.is_some_and(|w| w != digest) {
        r.failed += seeds;
        r.notes.push(format!(
            "check failed: campaign report digest {} != expected {}",
            proto::fp_hex(digest),
            proto::fp_hex(want.unwrap_or(0))
        ));
    }
    first.get_or_insert(digest);
}

/// The end-to-end run: one pass, and further passes while less than
/// half of `cfg.seconds` has gone. Every time is brought to the
/// reference speed by the run's calibration ([`crate::calib`]).
pub fn measure(cfg: &Config) -> Result<BenchResult, String> {
    let mut r = BenchResult::default();
    let setup_s = setup(&mut r, cfg)?;
    let mut cal = Calib::new();
    let tr = Tracer::new(false);
    let mut latencies = Vec::new();
    let mut first = None;
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed().as_secs_f64() < cfg.seconds / 2.0 {
        let digest = pass(
            &mut r,
            cfg,
            shape(cfg.size),
            &tr,
            passes,
            &mut cal,
            &mut latencies,
        )?;
        check_digest(&mut r, cfg, &mut first, digest);
        passes += 1;
    }
    let scale = cal.scale();
    let seeds = Profile::fold(vec![tr.finish()]).counter("campaign.seeds") as f64;
    let busy_ms: f64 = latencies.iter().sum();
    r.metric("setup_s", setup_s * scale, "s");
    r.metric("ops_per_s", 1e3 * seeds / (busy_ms * scale), "1/s");
    r.metric("latency_ms_p50", median(&latencies) * scale, "ms");
    r.metric("latency_ms_p90", percentile(&latencies, 0.9) * scale, "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.notes.push(format!(
        "campaign: {passes} passes, {} slices; unscaled {:.3} seeds/s, p50 {:.2} ms, p90 {:.2} ms; {} calibration samples, median {:.4} ms",
        latencies.len(),
        1e3 * seeds / busy_ms,
        median(&latencies),
        percentile(&latencies, 0.9),
        cal.len(),
        cal.median_ms()
    ));
    Ok(r)
}

/// The traced run: one untraced pass, then two replays under spans.
pub fn traced(cfg: &Config) -> Result<BenchResult, String> {
    let mut r = BenchResult::default();
    let s = traced_shape(cfg.size);
    let untraced = {
        let tr = Tracer::new(false);
        pass(&mut r, cfg, s, &tr, 0, &mut Calib::idle(), &mut Vec::new())?;
        Profile::fold(vec![tr.finish()])
    };
    let mut replay = |write: bool| {
        let tr = Tracer::new(true);
        for (_, gen, seeds) in presets(s) {
            let fz = fuzz_config(gen);
            let start = start_seed(cfg.seed);
            for seed in start..start + seeds {
                r.attempted += 1;
                let f = tr.op("bench.seed", || replay_seed(seed, &fz, &tr));
                tr.count("campaign.seeds", 1);
                tr.count("campaign.clean", u64::from(f.clean()));
                tr.count("campaign.degraded", u64::from(!f.degraded.is_empty()));
                if let Some(v) = f.violations.first() {
                    r.fail(format!("replay seed {seed}: {v}"));
                } else if write {
                    if let Some(note) = cross_check(seed, &fz, &f) {
                        r.fail(note);
                    }
                }
            }
        }
        cfg.fold(vec![tr.finish()], write)
    };
    let first = replay(true);
    let second = replay(false);
    crate::report::layers(&mut r, &untraced, &first, &second);
    Ok(r)
}

/// Compares the replay of one seed with `engine::fuzz` run on that seed
/// alone, outside any span. The replay re-implements the per-seed check
/// `campaign::run` drives, so it is checked seed by seed against the
/// real one: degradation, violation count and demand queries and hits
/// must agree. Returns a note when they differ.
fn cross_check(seed: u64, fz: &FuzzConfig, f: &Findings) -> Option<String> {
    let real = engine::fuzz::fuzz(&FuzzConfig {
        seeds: 1,
        start_seed: seed,
        threads: 1,
        shrink: false,
        ..fz.clone()
    });
    let got = (
        !f.degraded.is_empty(),
        f.violations.len(),
        f.demand_queries,
        f.demand_hits,
    );
    let want = (
        real.degraded > 0,
        real.violations.len(),
        real.demand_queries,
        real.demand_hits,
    );
    (got != want).then(|| {
        format!(
            "replay of seed {seed} drifted from engine::fuzz: \
             (degraded, violations, demand queries, demand hits) {got:?} != {want:?}"
        )
    })
}

/// The `expected.txt` line for `cfg.seed`: the digest of one pass.
pub fn expected_lines(cfg: &Config) -> Result<Vec<String>, String> {
    let mut r = BenchResult::default();
    let digest = pass(
        &mut r,
        cfg,
        shape(cfg.size),
        &Tracer::new(false),
        0,
        &mut Calib::idle(),
        &mut Vec::new(),
    )?;
    crate::remove_dir(&cfg.work_dir);
    if r.failed > 0 {
        return Err(format!(
            "campaign seed {} is not clean: {:?}",
            cfg.seed, r.notes
        ));
    }
    Ok(vec![digest_line(
        "campaign",
        cfg.size.name(),
        cfg.seed,
        digest,
    )])
}

// ---------------------------------------------------------------------
// The per-seed replay.
// ---------------------------------------------------------------------

/// What the replay of one seed found.
#[derive(Default)]
struct Findings {
    degraded: Vec<String>,
    violations: Vec<String>,
    demand_queries: u64,
    demand_hits: u64,
}

impl Findings {
    fn clean(&self) -> bool {
        self.degraded.is_empty() && self.violations.is_empty()
    }
}

fn layer_of(solver: &str) -> &'static str {
    match solver {
        "weihl" => "alias.weihl",
        "steensgaard" => "alias.steensgaard",
        "ci" => "alias.ci",
        "k1" => "alias.k1",
        _ => "alias.cs",
    }
}

/// `checker::run_checks` under the `checker` span, with the race
/// checker re-run as a probe (see [`crate::trace`]).
fn run_checks(
    tr: &Tracer,
    graph: &Graph,
    sol: &dyn Solution,
    ci: &alias::CiResult,
) -> Vec<checker::Diagnostic> {
    tr.span("checker", || {
        let diags = checker::run_checks(graph, sol, &ci.callees);
        tr.probe("checker.race", || {
            let mut scratch = Vec::new();
            checker::race::check_races(graph, sol, &ci.callees, &mut scratch);
            std::hint::black_box(scratch);
        });
        diags
    })
}

/// Printer round trip: `print ∘ parse` must be a fixpoint.
fn roundtrip_ok(tr: &Tracer, src: &str) -> bool {
    let parse = |s: &str| {
        tr.span("cfront", || {
            cfront::parser::parse(cfront::lexer::lex(s).ok()?).ok()
        })
    };
    let Some(p1) = parse(src) else { return true };
    let once = tr.span("cfront.pretty", || cfront::pretty::print_program(&p1));
    let Some(p2) = parse(&once) else { return false };
    let twice = tr.span("cfront.pretty", || cfront::pretty::print_program(&p2));
    once == twice
}

/// Structural equality of two solutions of one graph.
fn same_solution(graph: &Graph, a: &dyn Solution, b: &dyn Solution) -> bool {
    if let (Some(pa), Some(pb)) = (a.as_points_to(), b.as_points_to()) {
        return (0..graph.output_count())
            .all(|o| pa.pairs_at(OutputId(o as u32)) == pb.pairs_at(OutputId(o as u32)));
    }
    if a.pairs() != b.pairs() {
        return false;
    }
    graph.all_mem_ops().iter().all(|&(node, _)| {
        match (a.referents_at(graph, node), b.referents_at(graph, node)) {
            (Some(mut x), Some(mut y)) => {
                x.sort_unstable();
                y.sort_unstable();
                x == y
            }
            _ => a.loc_referent_bases(graph, node) == b.loc_referent_bases(graph, node),
        }
    })
}

/// Replays the differential check `campaign::run` performs for one
/// seed, calling each layer's public function under its span.
fn replay_seed(seed: u64, fz: &FuzzConfig, tr: &Tracer) -> Findings {
    let mut f = Findings::default();
    let src = tr.span("suite.generator", || {
        fz.planted.plant(&generate(seed, &fz.gen))
    });
    if !roundtrip_ok(tr, &src) {
        f.violations.push("printer round trip".into());
    }
    let prog = match tr.span("cfront", || cfront::compile(&src)) {
        Ok(p) => p,
        Err(e) => {
            f.violations.push(format!("frontend: {e}"));
            return f;
        }
    };
    let graph = match tr.span("vdg", || lower(&prog, &BuildOptions::default())) {
        Ok(g) => g,
        Err(e) => {
            f.violations.push(format!("lowering: {e}"));
            return f;
        }
    };
    tr.count("vdg.nodes", graph.node_count() as u64);

    // The spectrum under step budgets; CI doubles as the shared
    // vocabulary.
    let ci_spec = SolverSpec::ci().fault(fz.fault);
    let ci = tr.span("alias.ci", || ci_spec.solve_ci(&graph));
    let mut solved: Vec<(&'static str, SolutionBox)> = Vec::new();
    for spec in SolverSpec::all() {
        let spec = spec.max_steps(fz.max_steps);
        let name = spec.name();
        let outcome = if spec.kind() == SolverKind::Ci {
            Ok(Box::new(ci.clone()) as SolutionBox)
        } else {
            tr.span(layer_of(name), || spec.solve(&graph, Some(&ci)))
        };
        match outcome {
            Ok(sol) => {
                if name != "steensgaard" {
                    let layer = layer_of(name);
                    tr.count(&format!("{layer}.flow_ins"), sol.flow_ins().unwrap_or(0));
                    tr.count(&format!("{layer}.flow_outs"), sol.flow_outs().unwrap_or(0));
                    tr.count(&format!("{layer}.pairs"), sol.pairs().unwrap_or(0) as u64);
                    tr.count(
                        &format!("{layer}.dedup_hits"),
                        sol.dedup_hits().unwrap_or(0),
                    );
                }
                solved.push((name, sol));
            }
            Err(e) => f.degraded.push(format!("{name}: {e}")),
        }
    }
    let by_name = |n: &str| solved.iter().find(|(s, _)| *s == n).map(|(_, b)| &**b);

    // Corpus statistics: function fingerprints and CI diagnostics.
    let idx = tr.span("alias.index", || GraphIndex::build(&graph));
    tr.count("campaign.functions", idx.func_fps.len() as u64);
    let diags = run_checks(tr, &graph, &ci, &ci);
    tr.count("checker.diagnostics", diags.len() as u64);

    // The precision lattice.
    tr.span("alias.covers", || {
        for (coarse, fine) in [
            ("weihl", "ci"),
            ("steensgaard", "ci"),
            ("ci", "k1"),
            ("ci", "cs"),
        ] {
            if let (Some(c), Some(d)) = (by_name(coarse), by_name(fine)) {
                if c.covers(&graph, d) == Some(false) {
                    f.violations
                        .push(format!("lattice {coarse} does not cover {fine}"));
                }
            }
        }
    });

    // Naive propagation reaches the same fixpoint.
    let ci_naive = tr.span("alias.naive", || {
        ci_spec
            .clone()
            .propagation(Propagation::Naive)
            .solve_ci(&graph)
    });
    tr.count("alias.naive.flow_ins", ci_naive.flow_ins().unwrap_or(0));
    if !tr.span("alias.compare", || same_solution(&graph, &ci, &ci_naive)) {
        f.violations.push("ci naive/delta fixpoints differ".into());
    }
    for kind in [SolverKind::Weihl, SolverKind::CallString1] {
        let spec = SolverSpec::new(kind)
            .max_steps(fz.max_steps)
            .propagation(Propagation::Naive);
        let name = spec.name();
        let Some(delta) = by_name(name) else { continue };
        match tr.span("alias.naive", || spec.solve(&graph, Some(&ci))) {
            Ok(naive) => {
                tr.count("alias.naive.flow_ins", naive.flow_ins().unwrap_or(0));
                if !tr.span("alias.compare", || same_solution(&graph, delta, &*naive)) {
                    f.violations
                        .push(format!("{name} naive/delta fixpoints differ"));
                }
            }
            Err(e) => f.degraded.push(format!("{name} naive: {e}")),
        }
    }

    // Incremental re-analysis after one edit equals a fresh solve.
    if let Some(step) = tr.span("suite.edit", || suite::edit::apply_random_edit(&src, seed)) {
        let spec = ci_spec.clone();
        let eng = Engine::new()
            .threads(1)
            .specs(std::slice::from_ref(&spec))
            .ci_spec(spec);
        let jobs = |s: &str| vec![Job::new(format!("seed {seed}"), s)];
        let prev = tr.span("engine", || eng.run(&jobs(&src)));
        let scratch = tr.span("engine", || eng.run(&jobs(&step.source)));
        if let (Ok(prev), Ok(scratch)) = (prev, scratch) {
            match tr.span("engine.incremental", || {
                eng.analyze_incremental(&prev, &jobs(&step.source))
            }) {
                Ok(inc) => {
                    if let Some(st) = &inc.report.incremental {
                        tr.count("engine.incremental.replayed", st.benches_replayed as u64);
                        tr.count("engine.incremental.seeded", st.benches_seeded as u64);
                        tr.count("engine.incremental.fresh", st.benches_fresh as u64);
                    }
                    let a = inc.benches[0].solution("ci");
                    let b = scratch.benches[0].solution("ci");
                    if let (Some(a), Some(b)) = (a, b) {
                        let same = tr.span("alias.compare", || {
                            solution_dump(a, &inc.benches[0].graph)
                                == solution_dump(b, &scratch.benches[0].graph)
                        });
                        if !same {
                            f.violations
                                .push("incremental ci diverges from scratch".into());
                        }
                    }
                }
                Err(e) => f.degraded.push(format!("incremental: {e}")),
            }
        }
    }

    // Demand queries agree with the exhaustive CI solution.
    let sites = graph.indirect_mem_ops();
    if !sites.is_empty() {
        let mut demand = tr.span("alias.demand", || {
            alias::DemandState::new(
                &graph,
                alias::DemandConfig {
                    ci: ci_spec.ci_config(),
                    ..alias::DemandConfig::default()
                },
            )
        });
        let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut pick = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng as usize) % n
        };
        for _ in 0..8 {
            let (a, _) = sites[pick(sites.len())];
            let (b, _) = sites[pick(sites.len())];
            let got = tr.span("alias.demand", || demand.loc_referents_rendered(&graph, a));
            let want = tr.span("alias.compare", || {
                let mut v: Vec<String> = ci
                    .loc_referents(&graph, a)
                    .iter()
                    .map(|&p| ci.paths.display(p, &graph))
                    .collect();
                v.sort();
                v
            });
            if got != want {
                f.violations.push(format!("demand referents at {a:?}"));
            }
            let (hit, witnesses) = tr.span("alias.demand", || demand.may_alias(&graph, a, b));
            let want_w: Vec<_> = tr.span("alias.compare", || {
                let ba = Solution::loc_referent_bases(&ci, &graph, a);
                let bb = Solution::loc_referent_bases(&ci, &graph, b);
                ba.iter()
                    .copied()
                    .filter(|x| bb.binary_search(x).is_ok())
                    .collect()
            });
            if witnesses != want_w || hit == want_w.is_empty() {
                f.violations.push(format!("demand may_alias {a:?}/{b:?}"));
            }
        }
        let ds = demand.stats();
        f.demand_queries = ds.queries;
        f.demand_hits = ds.demand_hits;
        tr.count("alias.demand.queries", ds.queries);
        tr.count("alias.demand.hits", ds.demand_hits);
        tr.count("alias.demand.fallbacks", ds.fallbacks);
        tr.count("alias.demand.steps", ds.steps);
    }

    // Oracle soundness against the interpreter trace.
    let icfg = interp::Config {
        max_steps: fz.interp_steps,
        ..interp::Config::default()
    };
    match tr.span("interp.run", || interp::run(&prog, &icfg)) {
        Ok(outcome) => {
            tr.count("interp.run.steps", outcome.steps);
            for (name, sol) in &solved {
                let vs = tr.span("interp.check", || {
                    interp::check_solution_dyn(&prog, &graph, &**sol, &outcome.trace)
                });
                if !vs.is_empty() {
                    f.violations
                        .push(format!("soundness {name}: {} misses", vs.len()));
                }
            }
        }
        Err(e) => f.degraded.push(format!("interp: {e}")),
    }

    // Threaded programs: race soundness and monotonicity.
    if prog.uses_threads() {
        let obs = tr.span("interp.races", || {
            interp::explore_races(&prog, &icfg, checker::RACE_SCHEDULES)
        });
        let mut race_sites = Vec::new();
        for (name, sol) in &solved {
            let diags = run_checks(tr, &graph, &**sol, &ci);
            if checker::refuted_race(&diags, &obs).is_some() {
                f.violations.push(format!("race soundness {name}"));
            }
            let sites: std::collections::BTreeSet<u32> = diags
                .iter()
                .filter(|d| d.kind == checker::CheckKind::DataRace)
                .map(|d| d.span.start)
                .collect();
            race_sites.push((*name, sites));
        }
        let sites = |n: &str| race_sites.iter().find(|(s, _)| *s == n).map(|(_, v)| v);
        for (coarse, fine) in [
            ("weihl", "ci"),
            ("steensgaard", "ci"),
            ("ci", "k1"),
            ("ci", "cs"),
        ] {
            if let (Some(c), Some(d)) = (sites(coarse), sites(fine)) {
                if d.iter().any(|s| !c.contains(s)) {
                    f.violations
                        .push(format!("race monotonicity {coarse}/{fine}"));
                }
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replay_matches_engine_fuzz_seed_by_seed_and_drift_is_caught() {
        let fz = fuzz_config(GenConfig::campaign());
        let seed = start_seed(1);
        let f = replay_seed(seed, &fz, &Tracer::new(true));
        assert!(f.violations.is_empty(), "{:?}", f.violations);
        assert_eq!(cross_check(seed, &fz, &f), None);
        let drifted = Findings {
            demand_hits: f.demand_hits + 1,
            ..f
        };
        assert!(cross_check(seed, &fz, &drifted).is_some());
    }
}
