//! The transport-agnostic request dispatcher.
//!
//! [`Service::handle`] maps one [`proto::Request`] to one
//! [`proto::Response`]. The CLI calls it directly for in-process
//! dispatch; the TCP daemon calls it behind a mutex, one request at a
//! time — which is also the concurrency argument: requests are strictly
//! serialized, so N interleaved clients observe exactly the answers a
//! serial caller would.
//!
//! Sessions: each named project owns a [`engine::SummaryCache`] (whose
//! live entries hold the last run's graphs and solutions, which answer
//! exhaustive queries), a check cache, the project's persisted view and
//! its demand-query states, isolated from every other project. Under a
//! configured memory budget the least-recently-used sessions are
//! evicted; their disk-store state survives, so the next request
//! warm-starts instead of cold-starting.
//!
//! Analyze and check share one run-and-refresh step: every run that
//! changes the cache also brings the persisted view up to date.
//! Persistence is write-through: after every analyze/check that changed
//! something the project's summaries, solution fingerprints, and check
//! fingerprints go to the [`crate::store::Store`], before the response
//! is built, so an analyze response reports the write's cost as
//! `store_us` apart from `latency_us`. The session's persisted view is saved in place, so
//! only the benches a request changed render their summaries again. A
//! restored session seeds the tier-3 CI resume from the stored
//! summaries; the engine recompiles and re-verifies everything, so a
//! corrupt or stale store can cost time, never correctness.

use crate::store::{LoadOutcome, Store, StoredBench, StoredProject, StoredSummaries};
use alias::fingerprint::{fnv64, stable_base_key, Fnv64, GraphIndex};
use alias::solver::{solution_fingerprint, Solution};
use alias::{DemandConfig, DemandState};
use engine::check::{diagnostics_json, fp_monotone_violation, render_diagnostics, BenchChecks};
use engine::incremental::CachedSummaries;
use engine::{BenchOutput, CheckCache, EngineRun, Job, SolveMode, SummaryCache};
use proto::json::Value;
use proto::{
    fp_hex, BenchCheckInfo, BenchFps, JobSpec, ProjectStats, QueryAnswer, QueryKind, Request,
    Response, ServeInfo, SiteInfo, SolverCheck, SolverFp,
};
use std::collections::HashMap;
use std::time::Instant;
use vdg::graph::{BaseId, Graph, NodeId};

/// Configuration for a [`Service`].
#[derive(Default)]
pub struct ServiceOptions {
    /// Disk store directory; `None` disables persistence.
    pub store_dir: Option<std::path::PathBuf>,
    /// Session memory budget in bytes; 0 = unlimited.
    pub mem_budget: usize,
    /// Worker threads per engine run (0 = all cores).
    pub threads: usize,
}

/// One project's in-memory session.
struct Session {
    /// Summaries of every benchmark this session has run or seeded,
    /// plus the last run's graph and solutions for each one it has run.
    cache: SummaryCache,
    check_cache: CheckCache,
    /// Persisted view of the project, one entry per benchmark, brought
    /// up to date by every analyze and check. Saved in place, so the
    /// entries keep their memoized summaries rendering across saves. A
    /// benchmark here but not yet in `cache` was restored from disk;
    /// its summaries stay raw until a run touches it (a session that
    /// only fields demand queries never pays for decoding at all).
    stored: StoredProject,
    last_used: Instant,
    /// Whether this session was seeded from the disk store.
    restored: bool,
    /// Whether `stored` has diverged from the disk store since the last
    /// successful save. A pure-replay request leaves it clear, so warm
    /// requests skip the store write entirely.
    dirty: bool,
    /// Demand-query state per benchmark: the compiled graph plus the
    /// growing partial solution, for queries that arrive before any
    /// exhaustive analyze.
    demand: HashMap<String, DemandBench>,
    /// Cumulative microseconds spent restoring from the disk store
    /// (project load plus lazy per-bench summary decode).
    restore_us: u64,
    /// Queries answered from a demand-solved region.
    demand_hits: u64,
    /// Queries answered from an exhaustive fallback solution.
    demand_fallbacks: u64,
    /// Demand queries that exhausted a slice or step budget.
    demand_budget_exhausted: u64,
}

impl Session {
    /// Estimated footprint: the summary cache plus the memoized store
    /// renderings of the persisted view.
    fn approx_bytes(&self) -> usize {
        self.cache.approx_bytes() + self.stored.rendered_bytes()
    }
}

/// One benchmark's demand-query state (see [`Session::demand`]).
struct DemandBench {
    /// FNV-64 of `source`; a query resolving to different source text
    /// (edited store entry, different inline job) rebuilds the state.
    source_fp: u64,
    source: String,
    graph: Graph,
    state: DemandState,
}

/// What [`Service::run_jobs`] hands back to analyze and check.
struct Ran {
    run: EngineRun,
    /// Per-benchmark fingerprints, in job order.
    fps: Vec<BenchFps>,
    /// The run's reuse counters and the session's counters, with the
    /// latency up to the solved results.
    serve: ServeInfo,
}

/// The persistent analysis service.
pub struct Service {
    engine: engine::Engine,
    store: Option<Store>,
    sessions: HashMap<String, Session>,
    mem_budget: usize,
    started: Instant,
    request_counts: Vec<(String, u64)>,
    evictions: u64,
}

fn err(message: impl Into<String>) -> Response {
    Response::Error {
        message: message.into(),
    }
}

/// Project names double as store file names, so they are restricted to
/// a conservative portable set.
fn valid_project(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl Service {
    /// Builds a service; opens (creating if needed) the disk store when
    /// one is configured.
    ///
    /// # Errors
    ///
    /// Returns the store-directory creation error, if any.
    pub fn new(opts: ServiceOptions) -> std::io::Result<Service> {
        let store = match opts.store_dir {
            Some(dir) => Some(Store::open(dir)?),
            None => None,
        };
        Ok(Service {
            engine: engine::Engine::new().threads(opts.threads),
            store,
            sessions: HashMap::new(),
            mem_budget: opts.mem_budget,
            started: Instant::now(),
            request_counts: Vec::new(),
            evictions: 0,
        })
    }

    /// Dispatches one request. Total: every failure becomes
    /// [`Response::Error`], never a panic — the daemon stays up.
    pub fn handle(&mut self, req: &Request) -> Response {
        self.count(req.type_name());
        match req {
            Request::Analyze {
                project,
                jobs,
                fresh,
                want_report,
            } => self.analyze(project, jobs, *fresh, *want_report),
            Request::Check {
                project,
                jobs,
                analysis,
                want_report,
            } => self.check(project, jobs, analysis, *want_report),
            Request::Query {
                project,
                bench,
                analysis,
                query,
                job,
            } => self.query(project, bench, analysis, query, job.as_ref()),
            Request::Stats => self.stats(),
            Request::Evict { project } => self.evict(project.as_deref()),
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    fn count(&mut self, name: &str) {
        match self.request_counts.iter_mut().find(|(k, _)| k == name) {
            Some((_, n)) => *n += 1,
            None => self.request_counts.push((name.to_string(), 1)),
        }
    }

    /// Fetches or creates a project's session. A new session whose
    /// project has compatible disk-store state takes the stored view
    /// as its own; [`Service::run_jobs`] seeds each restored bench into
    /// the cache on first touch, so its first analyze resumes instead
    /// of re-solving.
    // The error arm intentionally carries the full typed Response.
    #[allow(clippy::result_large_err)]
    fn ensure_session(&mut self, project: &str) -> Result<(), Response> {
        if !valid_project(project) {
            return Err(err(format!(
                "invalid project name {project:?} (want [A-Za-z0-9._-]{{1,64}}, not dot-led)"
            )));
        }
        if !self.sessions.contains_key(project) {
            let cache = self.engine.cache();
            let stored = StoredProject::new(cache.spec_key());
            let mut session = Session {
                cache,
                check_cache: CheckCache::default(),
                stored,
                last_used: Instant::now(),
                restored: false,
                dirty: false,
                demand: HashMap::new(),
                restore_us: 0,
                demand_hits: 0,
                demand_fallbacks: 0,
                demand_budget_exhausted: 0,
            };
            if let Some(store) = &self.store {
                let t = Instant::now();
                if let LoadOutcome::Loaded(p) = store.load(project) {
                    if p.spec_key == session.cache.spec_key() {
                        session.stored = p;
                        session.restored = true;
                    }
                    // A spec-key mismatch silently cold-starts: the
                    // stored facts were computed under different solver
                    // knobs and are not sound seeds.
                }
                // Rejected/Missing → cold start; the next save
                // overwrites a bad file.
                session.restore_us += t.elapsed().as_micros() as u64;
            }
            self.sessions.insert(project.to_string(), session);
        }
        let s = self.sessions.get_mut(project).expect("inserted above");
        s.last_used = Instant::now();
        Ok(())
    }

    /// The one run-and-refresh step of analyze and check. Converts the
    /// jobs, seeds every job's bench the stored view holds but the
    /// cache does not (restored from disk, untouched until now) and
    /// runs the jobs incrementally against the session cache. Then
    /// fingerprints each bench, brings its stored entry up to date and
    /// drops the demand state the run supersedes. The caller persists.
    #[allow(clippy::result_large_err)]
    fn run_jobs(
        &mut self,
        what: &str,
        project: &str,
        jobs: &[JobSpec],
        t0: Instant,
    ) -> Result<Ran, Response> {
        let jobs = engine_jobs(what, jobs)?;
        self.ensure_session(project)?;
        let session = self.sessions.get_mut(project).expect("ensured above");
        for job in &jobs {
            if session.cache.summaries_of(&job.name).is_some() {
                continue;
            }
            let Some(b) = session.stored.bench(&job.name) else {
                continue;
            };
            let t = Instant::now();
            let summaries = b.summaries.decode_fresh();
            session
                .cache
                .seed_restored(&b.name, b.source_fp, b.graph_fp, summaries);
            session.restore_us += t.elapsed().as_micros() as u64;
        }
        let run = self
            .engine
            .analyze_incremental_with(&mut session.cache, &jobs)
            .map_err(|e| err(format!("{what}: {e}")))?;
        let st = run.report.incremental.clone().unwrap_or_default();
        let serve = ServeInfo {
            latency_us: t0.elapsed().as_micros() as u64,
            benches_replayed: st.benches_replayed as u64,
            benches_seeded: st.benches_seeded as u64,
            benches_fresh: st.benches_fresh as u64,
            solutions_replayed: st.solutions_replayed as u64,
            funcs_reused: st.funcs_reused as u64,
            funcs_dirty: st.funcs_dirty as u64,
            restored: session.restored,
            demand_hits: session.demand_hits,
            demand_fallbacks: session.demand_fallbacks,
            demand_budget_exhausted: session.demand_budget_exhausted,
            restore_us: session.restore_us,
            store_us: 0,
        };
        let mut fps = Vec::with_capacity(run.benches.len());
        for b in &run.benches {
            let cached = session
                .cache
                .summaries_of(&b.name)
                .expect("the run absorbed every job");
            let bench = bench_fps(
                b,
                cached.source_hash,
                cached.graph_fp,
                session.stored.bench(&b.name),
            );
            session.dirty |= refresh_stored(&mut session.stored, b, &bench, cached);
            // The solved output answers future queries by lookup.
            session.demand.remove(&b.name);
            fps.push(bench);
        }
        Ok(Ran { run, fps, serve })
    }

    fn analyze(
        &mut self,
        project: &str,
        jobs: &[JobSpec],
        fresh: bool,
        want_report: bool,
    ) -> Response {
        let t0 = Instant::now();
        if fresh {
            return self.analyze_fresh(project, jobs, want_report, t0);
        }
        let Ran {
            mut run,
            fps,
            mut serve,
        } = match self.run_jobs("analyze", project, jobs, t0) {
            Ok(ran) => ran,
            Err(e) => return e,
        };
        // The store write precedes the response so it can report its
        // own cost.
        serve.store_us = self.persist(project);
        run.report.serve = Some(engine::ServeStats {
            latency_us: serve.latency_us,
            benches_replayed: serve.benches_replayed as usize,
            solutions_replayed: serve.solutions_replayed as usize,
            restored: serve.restored,
            demand_hits: serve.demand_hits,
            demand_fallbacks: serve.demand_fallbacks,
            demand_budget_exhausted: serve.demand_budget_exhausted,
            restore_us: serve.restore_us,
            store_us: serve.store_us,
        });
        let report_fp = fp_hex(fnv64(run.report.fingerprint().as_bytes()));
        let report = want_report
            .then(|| Value::parse(&run.report.to_json()).ok())
            .flatten();
        self.enforce_budget(project);
        Response::Analyzed {
            project: project.to_string(),
            benches: fps,
            report_fp,
            report,
            serve,
        }
    }

    /// Cache-bypassing cross-check: solves from scratch without
    /// touching (or requiring) the session.
    fn analyze_fresh(
        &self,
        project: &str,
        jobs: &[JobSpec],
        want_report: bool,
        t0: Instant,
    ) -> Response {
        let jobs = match engine_jobs("analyze", jobs) {
            Ok(jobs) => jobs,
            Err(e) => return e,
        };
        let run = match self.engine.run(&jobs) {
            Ok(r) => r,
            Err(e) => return err(format!("analyze: {e}")),
        };
        let benches = run
            .benches
            .iter()
            .map(|b| {
                let graph_fp = GraphIndex::build(&b.graph).graph_fp;
                bench_fps(b, fnv64(b.source.as_bytes()), graph_fp, None)
            })
            .collect();
        Response::Analyzed {
            project: project.to_string(),
            benches,
            report_fp: fp_hex(fnv64(run.report.fingerprint().as_bytes())),
            report: want_report
                .then(|| Value::parse(&run.report.to_json()).ok())
                .flatten(),
            serve: ServeInfo {
                latency_us: t0.elapsed().as_micros() as u64,
                benches_fresh: run.benches.len() as u64,
                ..ServeInfo::default()
            },
        }
    }

    fn check(
        &mut self,
        project: &str,
        jobs: &[JobSpec],
        analysis: &str,
        want_report: bool,
    ) -> Response {
        let mut run = match self.run_jobs("check", project, jobs, Instant::now()) {
            Ok(ran) => ran.run,
            Err(e) => return e,
        };
        let session = self.sessions.get_mut(project).expect("run above");
        let checks = run.run_checks_cached(&mut session.check_cache);
        let benches: Vec<BenchCheckInfo> = run
            .benches
            .iter()
            .zip(&checks)
            .map(|(b, bc)| BenchCheckInfo {
                name: b.name.clone(),
                table: checker::render_table(&bc.rows),
                rendered: render_diagnostics(b, bc, analysis),
                diags: Value::parse(&diagnostics_json(b, bc, analysis))
                    .unwrap_or(Value::Arr(Vec::new())),
                solvers: bc
                    .rows
                    .iter()
                    .map(|r| SolverCheck {
                        analysis: r.solver.clone(),
                        diags: r.counts.by_kind.iter().map(|&d| d as u64).collect(),
                        true_positives: r.counts.true_positives as u64,
                        false_positives: r.counts.false_positives as u64,
                        unreachable: r.counts.unreachable as u64,
                        refuted: r.refuted.is_some(),
                    })
                    .collect(),
            })
            .collect();
        // Per-bench diagnostics fingerprints feed both the response's
        // combined check_fp and the persisted per-bench check_fp, which
        // goes onto entries the run has just brought up to date.
        let mut combined = Fnv64::new();
        for (b, bc) in run.benches.iter().zip(&checks) {
            let bench_fp = check_fingerprint(b, bc);
            combined.write_str(&b.name);
            combined.write_u64(bench_fp);
            if let Some(stored) = session.stored.bench_mut(&b.name) {
                if stored.check_fp != Some(bench_fp) {
                    stored.check_fp = Some(bench_fp);
                    session.dirty = true;
                }
            }
        }
        let refuted: Vec<String> = run
            .benches
            .iter()
            .zip(&checks)
            .filter(|(_, bc)| bc.any_refuted())
            .map(|(b, _)| b.name.clone())
            .collect();
        let monotone_violation = fp_monotone_violation(&checks);
        let report = want_report
            .then(|| Value::parse(&run.report.to_json()).ok())
            .flatten();
        self.persist(project);
        self.enforce_budget(project);
        Response::Checked {
            project: project.to_string(),
            benches,
            check_fp: fp_hex(combined.finish()),
            monotone_violation,
            refuted,
            report,
        }
    }

    fn query(
        &mut self,
        project: &str,
        bench: &str,
        analysis: &str,
        query: &QueryKind,
        job: Option<&JobSpec>,
    ) -> Response {
        if let Err(e) = self.ensure_session(project) {
            return e;
        }
        // The hot path: a CI-vocabulary query against a bench with no
        // solved output is answered demand-driven — no exhaustive
        // fixpoint, microsecond first-query latency. (`demand` names
        // the path explicitly; `ci` takes it because the demand answers
        // are exactly the CI answers.)
        let solved = self.sessions[project].cache.graph(bench).is_some();
        if !solved && matches!(analysis, "ci" | "demand") {
            return self.query_demand(project, bench, analysis, query, job);
        }
        // Exhaustive path: a non-CI analysis needs its solver run, and
        // an already-solved bench answers by plain lookup. A restored
        // session may know the bench only from disk (or from the
        // request's inline job): analyze it before answering.
        if !solved {
            let stored_job = self.sessions[project]
                .stored
                .bench(bench)
                .map(|b| JobSpec {
                    name: b.name.clone(),
                    source: b.source.clone(),
                    input: b.input.clone(),
                })
                .or_else(|| job.cloned());
            let Some(job) = stored_job else {
                return not_analyzed(project, bench, "");
            };
            if let Response::Error { message } = self.analyze(project, &[job], false, false) {
                return err(format!("query: demand analyze failed: {message}"));
            }
        }
        let session = &self.sessions[project];
        // Every run refreshes the stored view, so a bench with a live
        // graph has a stored entry holding the source it was run on.
        let (Some(graph), Some(stored)) = (session.cache.graph(bench), session.stored.bench(bench))
        else {
            return not_analyzed(project, bench, "");
        };
        // "demand" is query vocabulary, not a solved spectrum; its
        // exhaustive twin is plain CI.
        let lookup = if analysis == "demand" { "ci" } else { analysis };
        let Some(mut sol) = session.cache.solution(bench, lookup) else {
            return err(format!(
                "query: no {lookup:?} solution for {bench:?} (failed solve or unknown analysis)"
            ));
        };
        match answer_query(bench, graph, &stored.source, query, &mut sol) {
            Ok(answer) => Response::QueryResult {
                bench: bench.to_string(),
                analysis: analysis.to_string(),
                answer,
                demand: false,
            },
            Err(e) => e,
        }
    }

    /// Answers a query against an unsolved benchmark by demand-driven
    /// search: compile + lower only (no fixpoint), then let the
    /// [`DemandState`] activate and solve just the backward slice
    /// the query touches. The source comes from the persisted store
    /// when the bench is known there, else from the request's inline
    /// job. Solved state is memoized per bench, so repeated queries
    /// widen (never recompute) the solved region; a later analyze or
    /// check evicts the entry.
    fn query_demand(
        &mut self,
        project: &str,
        bench: &str,
        analysis: &str,
        query: &QueryKind,
        job: Option<&JobSpec>,
    ) -> Response {
        let session = self.sessions.get_mut(project).expect("ensured above");
        let (source, source_fp) = match session.stored.bench(bench) {
            Some(b) => (b.source.clone(), b.source_fp),
            None => match job {
                Some(j) => (j.source.clone(), fnv64(j.source.as_bytes())),
                None => return not_analyzed(project, bench, " or include the source"),
            },
        };
        // (Re)build the demand bench on first touch or source change.
        let stale = session
            .demand
            .get(bench)
            .is_none_or(|db| db.source_fp != source_fp);
        if stale {
            let prog = match cfront::compile(&source) {
                Ok(p) => p,
                Err(e) => return err(format!("query: compile {bench:?}: {e}")),
            };
            let graph = match vdg::build::lower(&prog, &vdg::build::BuildOptions::default()) {
                Ok(g) => g,
                Err(e) => return err(format!("query: lower {bench:?}: {e}")),
            };
            let state = DemandState::new(
                &graph,
                DemandConfig {
                    ci: alias::SolverSpec::ci().ci_config(),
                    ..Default::default()
                },
            );
            session.demand.insert(
                bench.to_string(),
                DemandBench {
                    source_fp,
                    source,
                    graph,
                    state,
                },
            );
        }
        let db = session.demand.get_mut(bench).expect("inserted above");
        let before = db.state.stats();
        let answer = match answer_query(bench, &db.graph, &db.source, query, &mut db.state) {
            Ok(answer) => answer,
            Err(e) => return e,
        };
        let after = db.state.stats();
        session.demand_hits += after.demand_hits - before.demand_hits;
        session.demand_fallbacks += after.fallbacks - before.fallbacks;
        session.demand_budget_exhausted += after.budget_exhausted - before.budget_exhausted;
        Response::QueryResult {
            bench: bench.to_string(),
            analysis: analysis.to_string(),
            answer,
            demand: after.demand_hits > before.demand_hits,
        }
    }

    fn stats(&mut self) -> Response {
        let mut projects: Vec<ProjectStats> = self
            .sessions
            .iter()
            .map(|(name, s)| ProjectStats {
                name: name.clone(),
                benches: s.cache.len() as u64,
                approx_bytes: s.approx_bytes() as u64,
                idle_ms: s.last_used.elapsed().as_millis() as u64,
                demand_hits: s.demand_hits,
                demand_fallbacks: s.demand_fallbacks,
                restore_us: s.restore_us,
            })
            .collect();
        projects.sort_by(|a, b| a.name.cmp(&b.name));
        Response::Stats {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            requests: self.request_counts.clone(),
            evictions: self.evictions,
            mem_budget: self.mem_budget as u64,
            projects,
        }
    }

    fn evict(&mut self, project: Option<&str>) -> Response {
        match project {
            Some(p) => {
                if self.sessions.remove(p).is_none() {
                    return err(format!("evict: no in-memory session for project {p:?}"));
                }
            }
            None => self.sessions.clear(),
        }
        Response::Ok
    }

    /// Writes one project's state through to the disk store and
    /// returns the microseconds the write took. A no-op (0 µs) when the
    /// session is clean: a replayed request changes nothing, so the
    /// file on disk is already current.
    fn persist(&mut self, project: &str) -> u64 {
        let Some(store) = &self.store else { return 0 };
        let Some(session) = self.sessions.get_mut(project) else {
            return 0;
        };
        if !session.dirty {
            return 0;
        }
        let t = Instant::now();
        // Saved in place: only benches an analyze replaced since the
        // last save render their summaries; the rest reuse the memo.
        // A failed save degrades to colder restarts, not wrong answers;
        // surface it on stderr and keep serving (the session stays
        // dirty, so the next request retries the write).
        match store.save(project, &session.stored) {
            Ok(()) => session.dirty = false,
            Err(e) => eprintln!("ruf95 serve: store write failed for {project:?}: {e}"),
        }
        t.elapsed().as_micros() as u64
    }

    /// Evicts least-recently-used sessions (never `current`) until the
    /// estimated session memory fits the budget. Evicted sessions keep
    /// their disk-store files, so they warm-start on return.
    fn enforce_budget(&mut self, current: &str) {
        if self.mem_budget == 0 {
            return;
        }
        loop {
            let total: usize = self.sessions.values().map(Session::approx_bytes).sum();
            if total <= self.mem_budget {
                return;
            }
            let victim = self
                .sessions
                .iter()
                .filter(|(name, _)| name.as_str() != current)
                .max_by_key(|(_, s)| s.last_used.elapsed())
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    self.sessions.remove(&name);
                    self.evictions += 1;
                }
                // Only the active session remains; it may exceed the
                // budget on its own, and evicting it would thrash.
                None => return,
            }
        }
    }
}

/// The engine form of a request's jobs; an empty list is an error.
#[allow(clippy::result_large_err)]
fn engine_jobs(what: &str, jobs: &[JobSpec]) -> Result<Vec<Job>, Response> {
    if jobs.is_empty() {
        return Err(err(format!("{what}: empty job list")));
    }
    Ok(jobs
        .iter()
        .map(|j| {
            let mut job = Job::new(&j.name, &j.source);
            job.input = j.input.clone();
            job
        })
        .collect())
}

fn not_analyzed(project: &str, bench: &str, hint: &str) -> Response {
    err(format!(
        "query: benchmark {bench:?} has not been analyzed in project {project:?} \
         (send an analyze request first{hint})"
    ))
}

/// Per-benchmark fingerprints for an analyze response. A replayed
/// solution is the very object an earlier run of this session
/// fingerprinted, and that run recorded the fingerprint in the stored
/// view; so when `stored` was recorded under the same
/// (source_fp, graph_fp), a replayed solution reuses its fingerprint
/// instead of walking the solution again. Every other solution is
/// fingerprinted afresh. Pair counts are cheap and always recounted.
fn bench_fps(
    b: &BenchOutput,
    source_fp: u64,
    graph_fp: u64,
    stored: Option<&StoredBench>,
) -> BenchFps {
    let stored = stored.filter(|s| s.source_fp == source_fp && s.graph_fp == graph_fp);
    BenchFps {
        name: b.name.clone(),
        source_fp: fp_hex(source_fp),
        graph_fp: fp_hex(graph_fp),
        solvers: b
            .solutions
            .iter()
            .map(|s| {
                let sol = s.solution.as_deref();
                let reused = stored
                    .filter(|_| matches!(s.mode, Some(SolveMode::Replay)))
                    .and_then(|st| st.solution_fps.iter().find(|(a, _)| *a == s.analysis))
                    .and_then(|&(_, fp)| fp);
                SolverFp {
                    analysis: s.analysis.clone(),
                    fp: sol.map(|sol| {
                        fp_hex(reused.unwrap_or_else(|| solution_fingerprint(sol, &b.graph)))
                    }),
                    mode: s.mode.as_ref().map(SolveMode::render),
                    pairs: sol.and_then(|sol| sol.pairs()).map(|p| p as u64),
                }
            })
            .collect(),
    }
}

/// Brings the stored entry of `b` up to date with the run that produced
/// it; returns whether the entry changed. An entry that agrees on every
/// cheap field is kept as it is, with its memoized rendering: summaries
/// are content-addressed by per-function fingerprint, so matching
/// source and graph fingerprints imply matching summaries.
fn refresh_stored(
    stored: &mut StoredProject,
    b: &BenchOutput,
    fps: &BenchFps,
    cached: CachedSummaries<'_>,
) -> bool {
    let solution_fps: Vec<(String, Option<u64>)> = fps
        .solvers
        .iter()
        .map(|s| {
            (
                s.analysis.clone(),
                s.fp.as_deref().and_then(proto::parse_fp_hex),
            )
        })
        .collect();
    let prev = stored.bench(&b.name);
    // Checks are keyed by source and input; an edit invalidates the
    // stored check fingerprint.
    let check_fp = prev.and_then(|old| {
        old.check_fp
            .filter(|_| old.source == b.source && old.input == b.input)
    });
    let unchanged = prev.is_some_and(|old| {
        old.source_fp == cached.source_hash
            && old.graph_fp == cached.graph_fp
            && old.source == b.source
            && old.input == b.input
            && old.solution_fps == solution_fps
            && old.check_fp == check_fp
    });
    if unchanged {
        return false;
    }
    stored.upsert(StoredBench {
        name: b.name.clone(),
        source: b.source.clone(),
        input: b.input.clone(),
        source_fp: cached.source_hash,
        graph_fp: cached.graph_fp,
        solution_fps,
        summaries: StoredSummaries::ready(cached.summaries.clone()),
        check_fp,
    });
    true
}

/// The two point queries, as the solution answering them sees them:
/// an exhaustive solver's [`Solution`] or a [`DemandState`].
trait PointQueries {
    /// The base locations the location inputs of memory ops `a` and
    /// `b` may both reference, sorted.
    fn common_bases(&mut self, graph: &Graph, a: NodeId, b: NodeId) -> Vec<BaseId>;

    /// The rendered referents of memory op `node`'s location input,
    /// sorted.
    fn referents(&mut self, graph: &Graph, node: NodeId) -> Vec<String>;
}

impl PointQueries for &dyn Solution {
    fn common_bases(&mut self, graph: &Graph, a: NodeId, b: NodeId) -> Vec<BaseId> {
        // Both sides sorted+deduped by the Solution contract.
        let bases_b = self.loc_referent_bases(graph, b);
        self.loc_referent_bases(graph, a)
            .into_iter()
            .filter(|x| bases_b.binary_search(x).is_ok())
            .collect()
    }

    fn referents(&mut self, graph: &Graph, node: NodeId) -> Vec<String> {
        // Path-granular when the solver has per-point sets, stable base
        // keys for the unification baseline.
        let mut referents: Vec<String> =
            match (self.referents_at(graph, node), self.path_universe()) {
                (Some(paths), Some(table)) => {
                    paths.iter().map(|&p| table.display(p, graph)).collect()
                }
                _ => self
                    .loc_referent_bases(graph, node)
                    .iter()
                    .map(|&x| stable_base_key(graph, x))
                    .collect(),
            };
        referents.sort();
        referents
    }
}

impl PointQueries for DemandState {
    fn common_bases(&mut self, graph: &Graph, a: NodeId, b: NodeId) -> Vec<BaseId> {
        self.may_alias(graph, a, b).1
    }

    fn referents(&mut self, graph: &Graph, node: NodeId) -> Vec<String> {
        // Already path-granular, display-rendered, and sorted —
        // byte-identical to the exhaustive CI rendering.
        self.loc_referents_rendered(graph, node)
    }
}

/// Resolves `query`'s sites among `graph`'s indirect memory ops (line
/// and column from `source`) and asks `solver` the query.
#[allow(clippy::result_large_err)]
fn answer_query(
    bench: &str,
    graph: &Graph,
    source: &str,
    query: &QueryKind,
    solver: &mut impl PointQueries,
) -> Result<QueryAnswer, Response> {
    let sites = graph.indirect_mem_ops();
    let file = cfront::SourceFile::new(bench, source);
    let site = |i: usize| -> Result<(NodeId, SiteInfo), Response> {
        let &(node, is_write) = sites.get(i).ok_or_else(|| {
            err(format!(
                "query: site index {i} out of range ({} indirect refs in {bench:?})",
                sites.len()
            ))
        })?;
        let lc = file.line_col(graph.node(node).span.start);
        let info = SiteInfo {
            index: i,
            line: lc.line,
            col: lc.col,
            kind: if is_write { "write" } else { "read" }.to_string(),
        };
        Ok((node, info))
    };
    Ok(match *query {
        QueryKind::MayAlias { a, b } => {
            let ((na, sa), (nb, sb)) = (site(a)?, site(b)?);
            let witnesses: Vec<String> = solver
                .common_bases(graph, na, nb)
                .iter()
                .map(|&x| stable_base_key(graph, x))
                .collect();
            QueryAnswer::MayAlias {
                may_alias: !witnesses.is_empty(),
                witnesses,
                a: sa,
                b: sb,
            }
        }
        QueryKind::ReferentsAt { site: i } => {
            let (node, info) = site(i)?;
            QueryAnswer::Referents {
                site: info,
                referents: solver.referents(graph, node),
            }
        }
    })
}

/// FNV-64 over one benchmark's diagnostics under every solver — the
/// byte-identity currency for check results across daemon restarts.
pub fn check_fingerprint(b: &BenchOutput, bc: &BenchChecks) -> u64 {
    let mut h = Fnv64::new();
    for row in &bc.rows {
        h.write_str(&row.solver);
        h.write_str(&diagnostics_json(b, bc, &row.solver));
    }
    h.finish()
}
