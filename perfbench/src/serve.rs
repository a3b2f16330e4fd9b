//! The `serve` workload: an in-process `serve` daemon on 127.0.0.1:0
//! with a disk store, driven over TCP by two client connections.
//!
//! - The editor connection is an open loop. At a fixed rate it
//!   re-analyzes project `edit`: the whole paper suite, with the next
//!   program in turn (starting from a seeded one) replaced by the next
//!   step of its seeded `suite::edit::edit_chain`. Latency is timed
//!   from each request's due time, and the generator's lateness is
//!   recorded.
//! - The query connection is a closed loop of `Query` requests against
//!   project `query`: seeded `referents_at`/`may_alias` picks over all
//!   five solvers, plus CI queries against generated programs that were
//!   never analyzed, which take the demand path with an inline job.
//!
//! The two projects share only the daemon's global mutex. Every
//! `Analyzed` fingerprint is checked against an in-process
//! `Engine::run` of the same source, and every query answer against the
//! in-process solution; both references are computed outside the timed
//! window.

use crate::calib::Calib;
use crate::expected::digest_line;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::{Profile, Recorded, Tracer};
use crate::{BenchResult, Config, Size};
use alias::fingerprint::{fnv64, stable_base_key};
use alias::solver::{solution_fingerprint, Solution};
use alias::SolverSpec;
use engine::{BenchOutput, Engine, Job};
use proto::json::Value;
use proto::{
    parse_fp_hex, read_frame, write_frame, BenchFps, JobSpec, QueryAnswer, QueryKind, Request,
    Response, SiteInfo,
};
use serve::{Service, ServiceOptions};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use suite::generator::{generate, GenConfig};

const EDIT: &str = "edit";
const QUERY: &str = "query";
const DEMAND: &str = "demand";
const SOLVERS: [&str; 5] = ["weihl", "steensgaard", "ci", "k1", "cs"];

/// Per-solver fingerprints of one program, in engine solver order.
type Fps = Vec<(String, Option<u64>)>;
/// The query client's send clock: a request goes out at the first tick
/// after the previous answer arrived, so the client's load on the
/// daemon does not depend on how fast threads wake on a busy box. The
/// waits for the tick are idle spans, and `ops_per_s` leaves them out.
const QUERY_TICK: Duration = Duration::from_millis(5);
/// Set-up repetitions (daemon spawn plus cold priming of both
/// projects); the median is reported.
const SETUP_REPS: usize = 7;
/// Calibration samples the editor takes after each answer, while it
/// waits for the next due time.
const EDIT_SAMPLES: usize = 3;

/// Sizes of one run.
struct Shape {
    /// Editor requests per second.
    rate_hz: f64,
    /// Editor requests of each traced-run pass.
    traced_edits: usize,
    /// Query requests of the quiet phase (editor idle).
    alone_queries: usize,
    /// Distinct queries in the seeded pool the query loop cycles.
    pool: usize,
    /// Generated programs queried through the demand path.
    demand_programs: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            rate_hz: 2.0,
            traced_edits: 24,
            alone_queries: 400,
            pool: 512,
            demand_programs: 3,
        },
        Size::Tiny => Shape {
            rate_hz: 10.0,
            traced_edits: 3,
            alone_queries: 20,
            pool: 32,
            demand_programs: 1,
        },
    }
}

/// A tiny deterministic stream for seeded picks.
struct Pick(u64);

impl Pick {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// One query of the pool with its expected answer.
struct PoolQuery {
    req: Request,
    bench: String,
    analysis: String,
    want: QueryAnswer,
    demand: bool,
}

/// Everything generated from the seed before anything is timed.
struct Inputs {
    suite: Vec<JobSpec>,
    /// Program edited by editor request `i`.
    schedule: Vec<usize>,
    /// Per program, its edit chain (edited sources, in order).
    chains: Vec<Vec<String>>,
    pool: Vec<PoolQuery>,
}

impl Inputs {
    /// The version of every program after editor request `i` (0 = the
    /// original source).
    fn versions_after(&self, i: usize) -> Vec<usize> {
        let mut v = vec![0; self.suite.len()];
        for &p in &self.schedule[..=i] {
            v[p] += 1;
        }
        v
    }

    fn source(&self, program: usize, version: usize) -> &str {
        if version == 0 {
            return &self.suite[program].source;
        }
        let chain = &self.chains[program];
        // A chain that ended early wraps around to its first step.
        &chain[(version - 1) % chain.len()]
    }

    fn jobs(&self, versions: &[usize]) -> Vec<JobSpec> {
        self.suite
            .iter()
            .zip(versions)
            .enumerate()
            .map(|(p, (j, &v))| JobSpec {
                name: j.name.clone(),
                source: self.source(p, v).to_string(),
                input: j.input.clone(),
            })
            .collect()
    }
}

fn suite_jobs() -> Vec<JobSpec> {
    suite::benchmarks()
        .iter()
        .map(|b| JobSpec {
            name: b.name.to_string(),
            source: b.source.to_string(),
            input: b.input.to_vec(),
        })
        .collect()
}

/// Generates the edit schedule and chains for `edits` editor requests,
/// and the query pool with its expected answers.
fn inputs(cfg: &Config, edits: usize) -> Result<Inputs, String> {
    let sh = shape(cfg.size);
    let suite = suite_jobs();
    let mut pick = Pick(cfg.seed ^ 0x5eed_ed17_0000_0001);
    // The programs are edited in turn from a seeded first one, so every
    // seed spreads its edits evenly over the suite: which programs a
    // seed happened to pick would otherwise move the editor's latency
    // by more than the machine does.
    let first = pick.below(suite.len());
    let schedule: Vec<usize> = (0..edits).map(|i| (first + i) % suite.len()).collect();
    let mut chains = Vec::new();
    for (p, job) in suite.iter().enumerate() {
        let need = schedule.iter().filter(|&&q| q == p).count().max(1);
        let chain: Vec<String> =
            suite::edit::edit_chain(&job.source, cfg.seed.wrapping_add(p as u64), need)
                .into_iter()
                .map(|s| s.source)
                .collect();
        if chain.is_empty() {
            return Err(format!("no edit applies to {}", job.name));
        }
        chains.push(chain);
    }
    let pool = query_pool(cfg, &sh, &suite)?;
    Ok(Inputs {
        suite,
        schedule,
        chains,
        pool,
    })
}

fn site_info(name: &str, source: &str, graph: &vdg::graph::Graph, i: usize) -> SiteInfo {
    let (node, is_write) = graph.indirect_mem_ops()[i];
    let lc = cfront::SourceFile::new(name, source).line_col(graph.node(node).span.start);
    SiteInfo {
        index: i,
        line: lc.line,
        col: lc.col,
        kind: if is_write { "write" } else { "read" }.to_string(),
    }
}

/// The exhaustive answer the service gives for a solved bench.
fn exhaustive_answer(b: &BenchOutput, sol: &dyn Solution, q: &QueryKind) -> QueryAnswer {
    let g = &b.graph;
    let sites = g.indirect_mem_ops();
    match *q {
        QueryKind::MayAlias { a, b: bi } => {
            let ba = sol.loc_referent_bases(g, sites[a].0);
            let bb = sol.loc_referent_bases(g, sites[bi].0);
            let witnesses: Vec<String> = ba
                .iter()
                .filter(|x| bb.binary_search(x).is_ok())
                .map(|&x| stable_base_key(g, x))
                .collect();
            QueryAnswer::MayAlias {
                may_alias: !witnesses.is_empty(),
                witnesses,
                a: site_info(&b.name, &b.source, g, a),
                b: site_info(&b.name, &b.source, g, bi),
            }
        }
        QueryKind::ReferentsAt { site } => {
            let node = sites[site].0;
            let mut referents: Vec<String> = match (sol.referents_at(g, node), sol.path_universe())
            {
                (Some(paths), Some(table)) => paths.iter().map(|&p| table.display(p, g)).collect(),
                _ => sol
                    .loc_referent_bases(g, node)
                    .iter()
                    .map(|&x| stable_base_key(g, x))
                    .collect(),
            };
            referents.sort();
            QueryAnswer::Referents {
                site: site_info(&b.name, &b.source, g, site),
                referents,
            }
        }
    }
}

/// A random query kind over `sites` indirect references.
fn pick_kind(pick: &mut Pick, sites: usize) -> QueryKind {
    if pick.below(2) == 0 {
        QueryKind::ReferentsAt {
            site: pick.below(sites),
        }
    } else {
        QueryKind::MayAlias {
            a: pick.below(sites),
            b: pick.below(sites),
        }
    }
}

/// The seeded query pool: three quarters against the analyzed paper
/// suite under a random solver, one quarter CI/demand queries against
/// generated programs sent inline.
fn query_pool(cfg: &Config, sh: &Shape, suite: &[JobSpec]) -> Result<Vec<PoolQuery>, String> {
    let to_jobs = |specs: &[JobSpec]| -> Vec<Job> { specs.iter().map(job_of).collect() };
    let run = Engine::new()
        .threads(1)
        .run(&to_jobs(suite))
        .map_err(|e| format!("query reference: {e}"))?;
    let demand: Vec<JobSpec> = (0..sh.demand_programs)
        .map(|k| JobSpec {
            name: format!("gen-{k}"),
            source: generate(
                cfg.seed.wrapping_mul(31).wrapping_add(k),
                &GenConfig::default(),
            ),
            input: Vec::new(),
        })
        .collect();
    let demand_run = Engine::new()
        .threads(1)
        .specs(&[SolverSpec::ci()])
        .run(&to_jobs(&demand))
        .map_err(|e| format!("demand reference: {e}"))?;
    let mut pick = Pick(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut pool = Vec::new();
    while pool.len() < sh.pool {
        let on_demand = pick.below(4) == 0;
        let (b, analysis, spec) = if on_demand {
            let i = pick.below(demand.len());
            let analysis = ["ci", "demand"][pick.below(2)];
            (&demand_run.benches[i], analysis, Some(demand[i].clone()))
        } else {
            let i = pick.below(run.benches.len());
            (&run.benches[i], SOLVERS[pick.below(SOLVERS.len())], None)
        };
        let sites = b.graph.indirect_mem_ops().len();
        if sites == 0 {
            continue;
        }
        let kind = pick_kind(&mut pick, sites);
        let lookup = if analysis == "demand" { "ci" } else { analysis };
        let sol = b
            .solution(lookup)
            .ok_or_else(|| format!("no {lookup} solution for {}", b.name))?;
        pool.push(PoolQuery {
            want: exhaustive_answer(b, sol, &kind),
            req: Request::Query {
                project: QUERY.to_string(),
                bench: b.name.clone(),
                analysis: analysis.to_string(),
                query: kind,
                job: spec,
            },
            bench: b.name.clone(),
            analysis: analysis.to_string(),
            demand: on_demand,
        });
    }
    Ok(pool)
}

/// The engine job a protocol job describes.
fn job_of(spec: &JobSpec) -> Job {
    let mut job = Job::new(&spec.name, &spec.source);
    job.input = spec.input.clone();
    job
}

/// Per-solver fingerprints of one source, from an in-process engine run.
fn reference_fps(job: &JobSpec) -> Result<Fps, String> {
    let run = Engine::new()
        .threads(1)
        .run(&[job_of(job)])
        .map_err(|e| format!("{}: {e}", job.name))?;
    let b = &run.benches[0];
    Ok(b.solutions
        .iter()
        .map(|s| {
            (
                s.analysis.clone(),
                s.solution
                    .as_deref()
                    .map(|x| solution_fingerprint(x, &b.graph)),
            )
        })
        .collect())
}

/// Memoized references per (program, version).
#[derive(Default)]
struct References(HashMap<(usize, usize), Fps>);

impl References {
    fn get(&mut self, inp: &Inputs, p: usize, v: usize) -> Result<&Fps, String> {
        Ok(match self.0.entry((p, v)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(reference_fps(&JobSpec {
                name: inp.suite[p].name.clone(),
                source: inp.source(p, v).to_string(),
                input: inp.suite[p].input.clone(),
            })?),
        })
    }
}

/// Checks one `Analyzed` response against the references for the
/// program versions it was sent.
fn check_analyzed(
    r: &mut BenchResult,
    refs: &mut References,
    inp: &Inputs,
    versions: &[usize],
    benches: &[BenchFps],
) {
    if benches.len() != inp.suite.len() {
        r.fail(format!(
            "analyzed {} benches, sent {}",
            benches.len(),
            inp.suite.len()
        ));
        return;
    }
    for (p, b) in benches.iter().enumerate() {
        let want = match refs.get(inp, p, versions[p]) {
            Ok(w) => w,
            Err(e) => {
                r.fail(format!("reference: {e}"));
                continue;
            }
        };
        let got: Fps = b
            .solvers
            .iter()
            .map(|s| (s.analysis.clone(), s.fp.as_deref().and_then(parse_fp_hex)))
            .collect();
        if b.name != inp.suite[p].name || &got != want {
            r.fail(format!(
                "analyzed {} v{}: got {got:?} want {want:?}",
                b.name, versions[p]
            ));
            return;
        }
    }
}

// ---------------------------------------------------------------------
// The client side.
// ---------------------------------------------------------------------

/// One client connection, with spans around encode, wait and decode.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends `req` and waits for the response. Returns the response and
    /// the index of the `serve.rpc` span (when detailed).
    fn call(&mut self, tr: &Tracer, req: &Request) -> Result<(Response, Option<usize>), String> {
        tr.span("proto.encode", || {
            write_frame(&mut self.writer, &req.to_value())
        })
        .map_err(|e| format!("send: {e}"))?;
        let (ready, rpc) = tr.span_indexed("serve.rpc", || {
            self.reader.fill_buf().map(|b| !b.is_empty())
        });
        if !ready.map_err(|e| format!("receive: {e}"))? {
            return Err("daemon closed the connection".into());
        }
        let resp = tr.span("proto.decode", || {
            let v = read_frame(&mut self.reader)
                .map_err(|e| format!("receive: {e}"))?
                .ok_or("daemon closed the connection")?;
            Response::from_value(&v).map_err(|e| format!("bad response: {e}"))
        })?;
        Ok((resp, rpc))
    }
}

/// A running daemon with its two client connections.
struct Daemon {
    handle: serve::DaemonHandle,
    editor: Conn,
    query: Conn,
    store: PathBuf,
}

/// Spawns a daemon with a fresh store and primes both projects cold.
/// Returns the daemon and the set-up time in seconds.
fn start(
    r: &mut BenchResult,
    refs: &mut References,
    inp: &Inputs,
    store: PathBuf,
) -> Result<(Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(&store);
    let t = Instant::now();
    let svc = Service::new(ServiceOptions {
        store_dir: Some(store.clone()),
        mem_budget: 0,
        threads: 1,
    })
    .map_err(|e| format!("store {}: {e}", store.display()))?;
    let handle = serve::daemon::spawn(svc, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut d = Daemon {
        editor: Conn::connect(handle.addr())?,
        query: Conn::connect(handle.addr())?,
        handle,
        store,
    };
    let quiet = Tracer::new(false);
    let mut primed = Vec::new();
    for (project, conn) in [(EDIT, &mut d.editor), (QUERY, &mut d.query)] {
        let req = Request::Analyze {
            project: project.to_string(),
            jobs: inp.suite.clone(),
            fresh: false,
            want_report: false,
        };
        primed.push(conn.call(&quiet, &req)?.0);
    }
    let setup_s = t.elapsed().as_secs_f64();
    for resp in primed {
        r.attempted += 1;
        match resp {
            Response::Analyzed { benches, .. } => {
                check_analyzed(r, refs, inp, &vec![0; inp.suite.len()], &benches)
            }
            other => r.fail(format!("priming: {other:?}")),
        }
    }
    Ok((d, setup_s))
}

fn stop(mut d: Daemon) {
    let _ = d.editor.call(&Tracer::new(false), &Request::Shutdown);
    let Daemon {
        handle,
        editor,
        query,
        store,
    } = d;
    drop(editor);
    drop(query);
    handle.join();
    let _ = std::fs::remove_dir_all(store);
}

/// How long the editor runs; the query loop runs until it stops.
#[derive(Clone, Copy)]
enum Plan {
    /// Until the window closes.
    Timed(Duration),
    /// A fixed number of editor requests.
    Edits(usize),
}

/// One editor request's outcome.
struct EditRecord {
    index: usize,
    benches: Vec<BenchFps>,
    latency_ms: f64,
    late_ms: f64,
    service_ms: f64,
}

/// What the editor loop observed.
#[derive(Default)]
struct EditorOut {
    records: Vec<EditRecord>,
    errors: Vec<String>,
}

/// What the query loop observed.
#[derive(Default)]
struct QueryOut {
    latencies_us: Vec<f64>,
    sent: u64,
    /// Answers that did not match (first few kept as notes).
    wrong: u64,
    notes: Vec<String>,
}

impl QueryOut {
    fn wrong(&mut self, note: String) {
        self.wrong += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }
}

/// Lays the engine's own stage times (from the attached report) out as
/// spans under the `serve` span.
fn record_report(tr: &Tracer, serve_span: usize, report: &Value) {
    let ns = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let (start, _) = tr.bounds(serve_span);
    let total = ns(report, "total_wall_ns");
    let inc = tr.record("engine.incremental", serve_span, start, start + total);
    let mut at = start;
    let mut put = |name: &'static str, d: u64| {
        tr.record(name, inc, at, at + d);
        at += d;
    };
    for b in report
        .get("benchmarks")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        put("cfront", ns(b, "frontend_ns"));
        put("vdg", ns(b, "lowering_ns"));
        for s in b.get("solvers").and_then(Value::as_arr).unwrap_or(&[]) {
            let layer = match s.get("analysis").and_then(Value::as_str) {
                Some("weihl") => "alias.weihl",
                Some("steensgaard") => "alias.steensgaard",
                Some("ci") => "alias.ci",
                Some("k1") => "alias.k1",
                _ => "alias.cs",
            };
            put(layer, ns(s, "wall_ns"));
        }
    }
}

fn editor_loop(
    conn: &mut Conn,
    tr: &Tracer,
    cal: &mut Calib,
    inp: &Inputs,
    plan: Plan,
    rate_hz: f64,
    t0: Instant,
) -> EditorOut {
    let mut out = EditorOut::default();
    for index in 0.. {
        let due = t0 + Duration::from_secs_f64(index as f64 / rate_hz);
        match plan {
            Plan::Timed(window) if due >= t0 + window => break,
            Plan::Edits(n) if index >= n => break,
            _ => {}
        }
        if index >= inp.schedule.len() {
            out.errors.push("edit schedule exhausted".into());
            break;
        }
        let req = Request::Analyze {
            project: EDIT.to_string(),
            jobs: inp.jobs(&inp.versions_after(index)),
            fresh: false,
            want_report: tr.detailed(),
        };
        tr.idle_until(due);
        let sent = Instant::now();
        let res = tr.op("bench.edit", || {
            let (resp, rpc) = conn.call(tr, &req)?;
            if let (Response::Analyzed { serve, report, .. }, Some(rpc)) = (&resp, rpc) {
                let d = Duration::from_micros(serve.latency_us).as_nanos() as u64;
                let (_, end) = tr.bounds(rpc);
                let s = tr.record("serve", rpc, end.saturating_sub(d), end);
                if let Some(report) = report {
                    record_report(tr, s, report);
                }
            }
            Ok::<_, String>(resp)
        });
        let done = Instant::now();
        for _ in 0..EDIT_SAMPLES {
            cal.sample();
        }
        match res {
            Ok(Response::Analyzed { benches, serve, .. }) => {
                tr.count("engine.incremental.replayed", serve.benches_replayed);
                tr.count("engine.incremental.seeded", serve.benches_seeded);
                tr.count("engine.incremental.fresh", serve.benches_fresh);
                out.records.push(EditRecord {
                    index,
                    benches,
                    latency_ms: (done - due).as_secs_f64() * 1e3,
                    late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                    service_ms: serve.latency_us as f64 / 1e3,
                });
            }
            Ok(other) => out.errors.push(format!("edit {index}: {other:?}")),
            Err(e) => {
                out.errors.push(format!("edit {index}: {e}"));
                break;
            }
        }
    }
    out
}

/// The closed query loop: the next request goes out at the first
/// [`QUERY_TICK`] after the previous answer arrived, until `stop` says
/// so; starts at pool position `first`.
fn query_loop(
    conn: &mut Conn,
    tr: &Tracer,
    pool: &[PoolQuery],
    stop: impl Fn(u64) -> bool,
    first: u64,
) -> QueryOut {
    let mut out = QueryOut::default();
    let mut k = first;
    let t0 = Instant::now();
    let tick = QUERY_TICK.as_nanos();
    while !stop(out.sent) {
        let q = &pool[(k % pool.len() as u64) as usize];
        k += 1;
        let ticks = (t0.elapsed().as_nanos()).div_ceil(tick);
        tr.idle_until(t0 + Duration::from_nanos((ticks * tick) as u64));
        let t = Instant::now();
        let res = tr.op("bench.query", || conn.call(tr, &q.req));
        let done = Instant::now();
        out.latencies_us.push((done - t).as_secs_f64() * 1e6);
        out.sent += 1;
        match res {
            Ok((
                Response::QueryResult {
                    bench,
                    analysis,
                    answer,
                    ..
                },
                _,
            )) => {
                if bench != q.bench || analysis != q.analysis || answer != q.want {
                    out.wrong(format!(
                        "query {:?}: got {answer:?} want {:?}",
                        q.req, q.want
                    ));
                }
            }
            Ok((other, _)) => out.wrong(format!("query {:?}: {other:?}", q.req)),
            Err(e) => {
                out.wrong(format!("query: {e}"));
                break;
            }
        }
    }
    out
}

/// What one window of both loops produced.
struct Window {
    editor: EditorOut,
    query: QueryOut,
    /// One tracer's output per connection.
    parts: Vec<Recorded>,
    seconds: f64,
}

/// Runs both loops concurrently.
fn run_window(
    d: &mut Daemon,
    inp: &Inputs,
    plan: Plan,
    rate_hz: f64,
    detailed: bool,
    cal: &mut Calib,
) -> Window {
    let t0 = Instant::now();
    let Daemon { editor, query, .. } = d;
    let editor_done = AtomicBool::new(false);
    let (e, q) = std::thread::scope(|s| {
        let ed = s.spawn(|| {
            let tr = Tracer::new(detailed);
            let out = editor_loop(editor, &tr, cal, inp, plan, rate_hz, t0);
            editor_done.store(true, Ordering::Relaxed);
            (out, tr.finish())
        });
        let qu = s.spawn(|| {
            let tr = Tracer::new(detailed);
            let out = query_loop(
                query,
                &tr,
                &inp.pool,
                |_| editor_done.load(Ordering::Relaxed),
                0,
            );
            (out, tr.finish())
        });
        (
            ed.join().expect("editor thread panicked"),
            qu.join().expect("query thread panicked"),
        )
    });
    Window {
        seconds: t0.elapsed().as_secs_f64(),
        editor: e.0,
        query: q.0,
        parts: vec![e.1, q.1],
    }
}

/// Counts and checks the outputs of a window.
fn check_window(
    r: &mut BenchResult,
    refs: &mut References,
    inp: &Inputs,
    e: &EditorOut,
    q: &QueryOut,
) {
    for err in &e.errors {
        r.attempted += 1;
        r.fail(err.clone());
    }
    for rec in &e.records {
        r.attempted += 1;
        check_analyzed(r, refs, inp, &inp.versions_after(rec.index), &rec.benches);
    }
    count_queries(r, q);
}

fn count_queries(r: &mut BenchResult, q: &QueryOut) {
    r.attempted += q.sent;
    r.failed += q.wrong;
    r.notes
        .extend(q.notes.iter().map(|n| format!("check failed: {n}")));
}

/// Editor requests a window of `seconds` can need.
fn max_edits(cfg: &Config) -> usize {
    (shape(cfg.size).rate_hz * cfg.seconds).ceil() as usize + 1
}

/// The end-to-end run. Every time is brought to the reference speed by
/// the calibration samples the editor takes after each answer
/// ([`crate::calib`]).
pub fn measure(cfg: &Config) -> Result<BenchResult, String> {
    let mut r = BenchResult::default();
    let sh = shape(cfg.size);
    let inp = inputs(cfg, max_edits(cfg).max(sh.traced_edits))?;
    let mut refs = References::default();
    check_committed(&mut r, cfg, &inp, &mut refs)?;
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUP_REPS {
        // One daemon at a time, so the peak resident set holds one
        // daemon's state.
        if let Some(old) = daemon.take() {
            stop(old);
        }
        let (d, s) = start(
            &mut r,
            &mut refs,
            &inp,
            cfg.work_dir.join(format!("store{k}")),
        )?;
        setups.push(s);
        daemon = Some(d);
    }
    let mut d = daemon.expect("at least one set-up");
    let mut cal = Calib::new();
    let Window {
        editor: e,
        query: q,
        seconds: window_s,
        parts,
    } = run_window(
        &mut d,
        &inp,
        Plan::Timed(Duration::from_secs_f64(cfg.seconds)),
        sh.rate_hz,
        false,
        &mut cal,
    );
    stop(d);
    check_window(&mut r, &mut refs, &inp, &e, &q);
    let lat: Vec<f64> = e.records.iter().map(|x| x.latency_ms).collect();
    let scale = cal.scale();
    r.metric("setup_s", median(&setups) * scale, "s");
    // Requests per second of the connections' busy time: the editor's
    // waits for due times and the query client's waits for its tick are
    // idle spans and left out, so both service time and lock wait move
    // the rate.
    let busy_s = Profile::fold(parts).accounted_ns as f64 / 1e9;
    let ops = (e.records.len() as u64 + q.sent) as f64;
    r.metric("ops_per_s", ops / (busy_s * scale), "1/s");
    r.metric("latency_ms_p50", median(&lat) * scale, "ms");
    r.metric("latency_ms_p90", percentile(&lat, 0.9) * scale, "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let service: Vec<f64> = e.records.iter().map(|x| x.service_ms).collect();
    r.notes.push(format!(
        "serve: {} edits (service p50 {:.2} ms), {} queries (p50 {:.0} us, p99 {:.0} us) in {window_s:.2} s; unscaled {:.3} requests/s, p50 {:.2} ms, p90 {:.2} ms; {} calibration samples, median {:.4} ms",
        e.records.len(),
        median(&service),
        q.sent,
        median(&q.latencies_us),
        percentile(&q.latencies_us, 0.99),
        ops / busy_s,
        median(&lat),
        percentile(&lat, 0.9),
        cal.len(),
        cal.median_ms()
    ));
    Ok(r)
}

/// Figures one traced-run pass produced besides its spans.
struct PassOut {
    profile: Profile,
    editor: EditorOut,
    query: QueryOut,
    alone_us: Vec<f64>,
    store_bytes: u64,
    restore_us: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One traced-run pass: a fresh primed daemon, the fixed window, a
/// quiet query phase, then a restore from the disk store.
fn traced_pass(
    r: &mut BenchResult,
    refs: &mut References,
    cfg: &Config,
    inp: &Inputs,
    name: &str,
    detailed: bool,
    write: bool,
) -> Result<PassOut, String> {
    let sh = shape(cfg.size);
    let (mut d, _) = start(r, refs, inp, cfg.work_dir.join(name))?;
    let plan = Plan::Edits(sh.traced_edits);
    let Window {
        editor,
        query,
        mut parts,
        ..
    } = run_window(&mut d, inp, plan, sh.rate_hz, detailed, &mut Calib::idle());
    check_window(r, refs, inp, &editor, &query);

    // Quiet phase: the same query stream with the editor idle.
    let tr = Tracer::new(detailed);
    let alone = query_loop(
        &mut d.query,
        &tr,
        &inp.pool,
        |n| n >= sh.alone_queries as u64,
        query.sent,
    );
    count_queries(r, &alone);

    // Demand counters: every demand query of the pool once, against a
    // project that has analyzed nothing, so they do not depend on how
    // many queries the window above happened to send.
    let mut sent = 0;
    for q in inp.pool.iter().filter(|q| q.demand) {
        let Request::Query {
            bench,
            analysis,
            query,
            job,
            ..
        } = &q.req
        else {
            continue;
        };
        let req = Request::Query {
            project: DEMAND.to_string(),
            bench: bench.clone(),
            analysis: analysis.clone(),
            query: query.clone(),
            job: job.clone(),
        };
        sent += 1;
        r.attempted += 1;
        match tr.op("bench.query", || d.query.call(&tr, &req)) {
            Ok((Response::QueryResult { answer, .. }, _)) if answer == q.want => {}
            other => r.fail(format!("demand query {req:?}: {other:?}")),
        }
    }
    tr.count("alias.demand.queries", sent);
    let stats = tr.op("bench.stats", || d.query.call(&tr, &Request::Stats));
    if let Ok((Response::Stats { projects, .. }, _)) = stats {
        if let Some(p) = projects.iter().find(|p| p.name == DEMAND) {
            tr.count("alias.demand.hits", p.demand_hits);
            tr.count("alias.demand.fallbacks", p.demand_fallbacks);
        }
    }
    parts.push(tr.finish());
    let store_bytes = dir_bytes(&d.store);

    // Restore: evict the editor's session and re-analyze from the store.
    let quiet = Tracer::new(false);
    let evict = Request::Evict {
        project: Some(EDIT.to_string()),
    };
    r.attempted += 1;
    match d.editor.call(&quiet, &evict) {
        Ok((Response::Ok, _)) => {}
        other => r.fail(format!("evict: {other:?}")),
    }
    let last = editor.records.last().map_or(0, |x| x.index);
    let req = Request::Analyze {
        project: EDIT.to_string(),
        jobs: inp.jobs(&inp.versions_after(last)),
        fresh: false,
        want_report: false,
    };
    r.attempted += 1;
    let restore_us = match d.editor.call(&quiet, &req) {
        Ok((Response::Analyzed { benches, serve, .. }, _)) => {
            check_analyzed(r, refs, inp, &inp.versions_after(last), &benches);
            serve.restore_us
        }
        other => {
            r.fail(format!("restore analyze: {other:?}"));
            0
        }
    };
    stop(d);
    Ok(PassOut {
        profile: cfg.fold(parts, write),
        editor,
        query,
        alone_us: alone.latencies_us,
        store_bytes,
        restore_us,
    })
}

fn p50_us(p: &Profile, name: &str) -> f64 {
    let v: Vec<f64> = p
        .durations_ns
        .get(name)
        .map(|v| v.iter().map(|&d| d as f64 / 1e3).collect())
        .unwrap_or_default();
    median(&v)
}

/// The traced run: one untraced pass, then two detailed passes.
pub fn traced(cfg: &Config) -> Result<BenchResult, String> {
    let mut r = BenchResult::default();
    let sh = shape(cfg.size);
    let inp = inputs(cfg, sh.traced_edits)?;
    let mut refs = References::default();
    check_committed(&mut r, cfg, &inp, &mut refs)?;
    let base = traced_pass(&mut r, &mut refs, cfg, &inp, "untraced", false, false)?;
    let first = traced_pass(&mut r, &mut refs, cfg, &inp, "traced1", true, true)?;
    let second = traced_pass(&mut r, &mut refs, cfg, &inp, "traced2", true, false)?;
    crate::report::layers(&mut r, &base.profile, &first.profile, &second.profile);
    let service: Vec<f64> = base.editor.records.iter().map(|x| x.service_ms).collect();
    let wait: Vec<f64> = base
        .editor
        .records
        .iter()
        .map(|x| x.latency_ms - x.late_ms - x.service_ms)
        .collect();
    let late: Vec<f64> = base.editor.records.iter().map(|x| x.late_ms).collect();
    r.metric("serve.analyze.service_ms_p50", median(&service), "ms");
    r.metric("serve.analyze.wait_ms_p50", median(&wait), "ms");
    r.metric("serve.query.us_p50", median(&base.query.latencies_us), "us");
    r.metric(
        "serve.query.us_p99",
        percentile(&base.query.latencies_us, 0.99),
        "us",
    );
    r.metric("serve.query.alone_us_p50", median(&base.alone_us), "us");
    r.metric("serve.store.bytes", base.store_bytes as f64, "bytes");
    r.metric("serve.restore_us", base.restore_us as f64, "us");
    r.metric("serve.editor.late_ms_p99", percentile(&late, 0.99), "ms");
    r.metric(
        "proto.encode_us_p50",
        p50_us(&first.profile, "proto.encode"),
        "us",
    );
    r.metric(
        "proto.decode_us_p50",
        p50_us(&first.profile, "proto.decode"),
        "us",
    );
    Ok(r)
}

/// The digest over the references a seed's inputs imply: the editor's
/// first `traced_edits` requests and the query pool's answers.
fn inputs_digest(inp: &Inputs, refs: &mut References, edits: usize) -> Result<u64, String> {
    let mut text = String::new();
    for i in 0..edits {
        let versions = inp.versions_after(i);
        for (p, &v) in versions.iter().enumerate() {
            text.push_str(&format!("{i} {p} {v} {:?}\n", refs.get(inp, p, v)?));
        }
    }
    for q in &inp.pool {
        text.push_str(&format!("{:?} {:?}\n", q.req, q.want));
    }
    Ok(fnv64(text.as_bytes()))
}

/// Checks the seed's references against the committed digest, when
/// one is committed.
fn check_committed(
    r: &mut BenchResult,
    cfg: &Config,
    inp: &Inputs,
    refs: &mut References,
) -> Result<(), String> {
    if let Some(want) = cfg.expected.digest("serve", cfg.size.name(), cfg.seed) {
        r.attempted += 1;
        let got = inputs_digest(inp, refs, shape(cfg.size).traced_edits)?;
        if got != want {
            r.fail(format!(
                "serve reference digest {} != committed {}",
                proto::fp_hex(got),
                proto::fp_hex(want)
            ));
        }
    }
    Ok(())
}

/// The `expected.txt` line for `cfg.seed`.
pub fn expected_lines(cfg: &Config) -> Result<Vec<String>, String> {
    let edits = shape(cfg.size).traced_edits;
    let inp = inputs(cfg, edits)?;
    let digest = inputs_digest(&inp, &mut References::default(), edits)?;
    Ok(vec![digest_line(
        "serve",
        cfg.size.name(),
        cfg.seed,
        digest,
    )])
}
