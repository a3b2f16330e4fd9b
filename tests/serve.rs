//! PR 6 integration tests for the persistent analysis service.
//!
//! Covers the three pillars of the serving layer:
//!
//! 1. **Restart-replay** (the tentpole guarantee): analyzing an edit
//!    chain with periodic service restarts against a disk store yields
//!    byte-identical fingerprints to an uninterrupted run — across 100
//!    edit steps.
//! 2. **Store robustness** (satellite 3): corrupt, truncated, and
//!    version-mismatched cache files are rejected with a clean
//!    cold-start fallback; answers never go stale and nothing panics.
//! 3. **Concurrency** (satellite 4): N interleaved socket clients get
//!    exactly the answers a serial in-process caller gets.

use alias::summary::FuncFacts;
use alias::SolverKind;
use proto::{JobSpec, QueryAnswer, QueryKind, Request, Response};
use serve::store::LoadOutcome;
use serve::{Service, ServiceOptions, Store};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruf95-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn service(dir: &Path) -> Service {
    Service::new(ServiceOptions {
        store_dir: Some(dir.to_path_buf()),
        mem_budget: 0,
        threads: 0,
    })
    .expect("open service")
}

fn memory_service() -> Service {
    Service::new(ServiceOptions::default()).expect("open service")
}

fn suite_jobs(take: usize) -> Vec<JobSpec> {
    suite::benchmarks()
        .iter()
        .take(take)
        .map(|b| JobSpec {
            name: b.name.to_string(),
            source: b.source.to_string(),
            input: b.input.to_vec(),
        })
        .collect()
}

fn analyze(svc: &mut Service, project: &str, jobs: &[JobSpec]) -> Response {
    svc.handle(&Request::Analyze {
        project: project.to_string(),
        jobs: jobs.to_vec(),
        fresh: false,
        want_report: false,
    })
}

/// Extracts every per-bench, per-solver fingerprint from an Analyzed
/// response as one flat, ordered, comparable vector.
fn fingerprints_of(resp: &Response) -> Vec<(String, String, Option<String>)> {
    match resp {
        Response::Analyzed { benches, .. } => benches
            .iter()
            .flat_map(|b| {
                b.solvers
                    .iter()
                    .map(move |s| (b.name.clone(), s.analysis.clone(), s.fp.clone()))
            })
            .collect(),
        other => panic!("expected Analyzed, got {other:?}"),
    }
}

fn report_fp_of(resp: &Response) -> String {
    match resp {
        Response::Analyzed { report_fp, .. } => report_fp.clone(),
        other => panic!("expected Analyzed, got {other:?}"),
    }
}

fn check_fp_of(resp: &Response) -> String {
    match resp {
        Response::Checked { check_fp, .. } => check_fp.clone(),
        other => panic!("expected Checked, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Tentpole: restart-replay equivalence across a 100-step edit chain.
// ---------------------------------------------------------------------

/// The daemon-restart replay harness. Two runs over the same 100-step
/// edit chain:
///
/// - run A: one service, never restarted, no disk store;
/// - run B: a disk-backed service dropped and recreated every 10 steps
///   (the process-level equivalent of killing and restarting the
///   daemon), forcing a store restore and tier-3 seeded resume.
///
/// Every step must produce byte-identical solver fingerprints and
/// report fingerprints in both runs.
#[test]
fn restart_replay_100_step_edit_chain() {
    let bench = &suite::benchmarks()[0];
    let chain = suite::edit::edit_chain(bench.source, 0x9e37_79b9, 100);
    assert!(
        chain.len() >= 100,
        "edit chain too short: {} steps",
        chain.len()
    );

    let dir = temp_dir("restart-replay");
    let mut uninterrupted = memory_service();
    let mut restarted = Some(service(&dir));

    for (i, step) in chain.iter().enumerate() {
        // Kill and resurrect the disk-backed service every 10 steps.
        if i > 0 && i % 10 == 0 {
            drop(restarted.take());
            restarted = Some(service(&dir));
        }
        let jobs = vec![JobSpec {
            name: bench.name.to_string(),
            source: step.source.clone(),
            input: bench.input.to_vec(),
        }];
        let a = analyze(&mut uninterrupted, "chain", &jobs);
        let b = analyze(restarted.as_mut().unwrap(), "chain", &jobs);
        assert_eq!(
            fingerprints_of(&a),
            fingerprints_of(&b),
            "solver fingerprints diverged at step {i} ({})",
            step.edit.description
        );
        assert_eq!(
            report_fp_of(&a),
            report_fp_of(&b),
            "report fingerprint diverged at step {i} ({})",
            step.edit.description
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restoring from disk with unchanged source must replay to the exact
/// fingerprints of the original run, and flag itself as restored.
#[test]
fn restore_after_restart_matches_original() {
    let dir = temp_dir("restore-match");
    let jobs = suite_jobs(3);

    let mut svc = service(&dir);
    let first = analyze(&mut svc, "proj", &jobs);
    drop(svc);

    let mut svc = service(&dir);
    let second = analyze(&mut svc, "proj", &jobs);
    assert_eq!(fingerprints_of(&first), fingerprints_of(&second));
    assert_eq!(report_fp_of(&first), report_fp_of(&second));
    match &second {
        Response::Analyzed { serve, .. } => {
            assert!(serve.restored, "second service should restore from disk");
        }
        other => panic!("expected Analyzed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Check fingerprints also survive a restart: same diagnostics, same
/// bytes.
#[test]
fn check_fingerprint_survives_restart() {
    let dir = temp_dir("check-restart");
    let jobs = suite_jobs(2);
    let req = Request::Check {
        project: "proj".into(),
        jobs: jobs.clone(),
        analysis: "ci".into(),
        want_report: false,
    };

    let mut svc = service(&dir);
    let first = check_fp_of(&svc.handle(&req));
    drop(svc);

    let mut svc = service(&dir);
    let second = check_fp_of(&svc.handle(&req));
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `check` request's response for `project`.
fn check(svc: &mut Service, project: &str, jobs: &[JobSpec]) -> Response {
    svc.handle(&Request::Check {
        project: project.to_string(),
        jobs: jobs.to_vec(),
        analysis: "ci".into(),
        want_report: false,
    })
}

/// The stored entry of `bench` in `project`, as a restarted service
/// would load it.
fn stored_bench(dir: &Path, project: &str, bench: &str) -> serve::StoredBench {
    let LoadOutcome::Loaded(p) = Store::open(dir).unwrap().load(project) else {
        panic!("{project}: no loadable store file");
    };
    p.bench(bench)
        .unwrap_or_else(|| panic!("{project}: no stored {bench:?}"))
        .clone()
}

/// A check persists the source it checked. After analyzing v1 and then
/// checking v2, the stored entry must describe v2 (source, source_fp,
/// and v2's per-bench check fingerprint), so a restarted service
/// answers for v2. A project that is only ever checked must reach the
/// store too, and keep its check fingerprint across a restart.
#[test]
fn check_persists_the_checked_source() {
    let dir = temp_dir("check-persists");
    let v1 = vec![JobSpec {
        name: "prog".into(),
        source: "int main() { int x; int *p; p = &x; *p = 1; return *p; }".into(),
        input: Vec::new(),
    }];
    let mut v2 = v1.clone();
    v2[0].source = "int main() { int x; int y; int *p; p = &y; *p = 2; return *p; }".into();
    // v2's per-bench check fingerprint, from a plain in-process run.
    let mut run = engine::Engine::new()
        .run(&[engine::Job::new(&v2[0].name, &v2[0].source)])
        .expect("v2 analyzes");
    let checks = run.run_checks();
    let v2_check_fp = serve::service::check_fingerprint(&run.benches[0], &checks[0]);

    let mut svc = service(&dir);
    analyze(&mut svc, "edited", &v1);
    let checked = check_fp_of(&check(&mut svc, "edited", &v2));
    let checked_only = check_fp_of(&check(&mut svc, "checked", &v2));
    assert_eq!(checked, checked_only, "same source, same diagnostics");
    drop(svc);

    for project in ["edited", "checked"] {
        let b = stored_bench(&dir, project, "prog");
        assert_eq!(b.source, v2[0].source, "{project}: stale stored source");
        assert_eq!(
            b.source_fp,
            alias::fingerprint::fnv64(v2[0].source.as_bytes()),
            "{project}"
        );
        assert_eq!(b.check_fp, Some(v2_check_fp), "{project}: check_fp");
    }

    // The restarted service answers from the stored v2 source, and
    // re-checking v2 leaves the stored check fingerprint in place.
    let mut svc = service(&dir);
    let live = memory_service().handle(&Request::Query {
        project: "p".into(),
        bench: "prog".into(),
        analysis: "ci".into(),
        query: QueryKind::ReferentsAt { site: 0 },
        job: Some(v2[0].clone()),
    });
    let restored = svc.handle(&Request::Query {
        project: "edited".into(),
        bench: "prog".into(),
        analysis: "ci".into(),
        query: QueryKind::ReferentsAt { site: 0 },
        job: None,
    });
    assert_eq!(comparable(&restored), comparable(&live));
    assert_eq!(check_fp_of(&check(&mut svc, "checked", &v2)), checked);
    drop(svc);
    assert_eq!(
        stored_bench(&dir, "checked", "prog").check_fp,
        Some(v2_check_fp)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stored solution fingerprints are never trusted across a
/// restart. Reusing a stored fingerprint is sound only for a solution
/// replayed from this session's own artifacts, which a restored
/// session does not have; so a tampered (but validly checksummed)
/// fingerprint must be recomputed, not echoed.
#[test]
fn restored_solution_fingerprints_are_recomputed() {
    let dir = temp_dir("fp-trust");
    let jobs = suite_jobs(1);
    let first = analyze(&mut service(&dir), "proj", &jobs);

    let store = Store::open(&dir).unwrap();
    let LoadOutcome::Loaded(mut project) = store.load("proj") else {
        panic!("the written store must load");
    };
    let (analysis, fp) = &mut project.benches[0].solution_fps[0];
    let analysis = analysis.clone();
    let genuine = fp.expect("solved");
    *fp = Some(genuine ^ 1);
    store.save("proj", &project).unwrap();
    assert!(
        matches!(store.load("proj"), LoadOutcome::Loaded(_)),
        "checksum must stay valid"
    );

    let second = analyze(&mut service(&dir), "proj", &jobs);
    assert_eq!(fingerprints_of(&first), fingerprints_of(&second));
    let reported = fingerprints_of(&second)
        .into_iter()
        .find(|(_, a, _)| *a == analysis)
        .and_then(|(_, _, fp)| fp);
    assert_eq!(reported, Some(proto::fp_hex(genuine)), "{analysis}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Queries answered from a restored session (no analyze request in
/// this process lifetime) match queries against a live session.
#[test]
fn query_after_restart_matches_live() {
    let dir = temp_dir("query-restart");
    let jobs = suite_jobs(1);
    let bench = jobs[0].name.clone();
    let query = |svc: &mut Service| {
        svc.handle(&Request::Query {
            project: "proj".into(),
            bench: bench.clone(),
            analysis: "ci".into(),
            query: QueryKind::ReferentsAt { site: 0 },
            job: None,
        })
    };

    let mut svc = service(&dir);
    analyze(&mut svc, "proj", &jobs);
    let live = query(&mut svc);
    drop(svc);

    // The restored service sees only the disk store; the query must
    // demand-analyze from the stored source and then agree.
    let mut svc = service(&dir);
    let restored = query(&mut svc);
    match (&live, &restored) {
        (Response::QueryResult { answer: a, .. }, Response::QueryResult { answer: b, .. }) => {
            assert_eq!(a, b)
        }
        other => panic!("expected two QueryResults, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Satellite 3: disk-store robustness.
// ---------------------------------------------------------------------

/// Writes a valid project file, then clobbers it in `mutate`, and
/// asserts that (a) the store rejects it without panicking and (b) a
/// service over the damaged store cold-starts to the same fingerprints
/// as a pristine service.
fn assert_cold_start_fallback(tag: &str, mutate: impl FnOnce(&Path)) {
    let dir = temp_dir(tag);
    let jobs = suite_jobs(2);
    let mut svc = service(&dir);
    let clean = analyze(&mut svc, "proj", &jobs);
    drop(svc);

    let file = Store::open(&dir).expect("open store").path_of("proj");
    assert!(file.exists(), "expected a persisted project file");
    mutate(&file);

    let store = Store::open(&dir).expect("open store");
    match store.load("proj") {
        LoadOutcome::Loaded(_) => panic!("{tag}: damaged store file was accepted"),
        LoadOutcome::Missing | LoadOutcome::Rejected { .. } => {}
    }

    let mut svc = service(&dir);
    let fallback = analyze(&mut svc, "proj", &jobs);
    assert_eq!(
        fingerprints_of(&clean),
        fingerprints_of(&fallback),
        "{tag}: cold-start answers diverged from the clean run"
    );
    match &fallback {
        Response::Analyzed { serve, .. } => {
            assert!(
                !serve.restored,
                "{tag}: damaged store must not seed a session"
            );
        }
        other => panic!("expected Analyzed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_store_file_cold_starts() {
    assert_cold_start_fallback("truncate", |file| {
        let text = std::fs::read_to_string(file).unwrap();
        std::fs::write(file, &text[..text.len() / 2]).unwrap();
    });
}

#[test]
fn corrupted_store_payload_cold_starts() {
    assert_cold_start_fallback("corrupt", |file| {
        let mut bytes = std::fs::read(file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(file, bytes).unwrap();
    });
}

#[test]
fn version_mismatched_store_file_cold_starts() {
    assert_cold_start_fallback("version", |file| {
        let text = std::fs::read_to_string(file).unwrap();
        std::fs::write(file, text.replacen("ruf95-store v2 ", "ruf95-store v9 ", 1)).unwrap();
    });
}

/// A pre-unification `v1` store (CI-only summary schema) must be
/// rejected wholesale and cold-start, not half-decoded.
#[test]
fn v1_store_file_cold_starts() {
    assert_cold_start_fallback("v1", |file| {
        let text = std::fs::read_to_string(file).unwrap();
        std::fs::write(file, text.replacen("ruf95-store v2 ", "ruf95-store v1 ", 1)).unwrap();
    });
}

#[test]
fn garbage_store_file_cold_starts() {
    assert_cold_start_fallback("garbage", |file| {
        std::fs::write(file, "not a store file at all\n").unwrap();
    });
}

/// A `ruf95-store v2` file written by an earlier build: every solver's
/// summaries (all five vocabularies) and solution fingerprint for
/// `tests/fixtures/weakened_strong_update.c`.
const GOLDEN_V2: &str = include_str!("fixtures/store_v2_golden.json");

/// On-disk compatibility: the golden file loads, every payload decodes
/// to the vocabulary its key names, and re-saving — raw or decoded —
/// reproduces the file byte for byte.
#[test]
fn golden_v2_store_decodes_and_resaves_byte_identically() {
    let dir = temp_dir("golden-v2");
    let store = Store::open(&dir).unwrap();
    std::fs::write(store.path_of("golden"), GOLDEN_V2).unwrap();
    let LoadOutcome::Loaded(mut project) = store.load("golden") else {
        panic!("the golden v2 store must load");
    };
    store.save("golden", &project).unwrap();
    let raw = std::fs::read_to_string(store.path_of("golden")).unwrap();
    assert!(raw == GOLDEN_V2, "raw re-save moved bytes");

    let [bench] = &mut project.benches[..] else {
        panic!("one bench expected");
    };
    let decoded = bench.summaries.decoded();
    let mut names: Vec<&str> = decoded.keys().map(String::as_str).collect();
    names.sort_unstable();
    assert_eq!(names, ["ci", "cs", "k1", "steensgaard", "weihl"]);
    for (name, s) in decoded {
        assert_eq!(Some(s.vocab), SolverKind::by_name(name), "{name}");
        assert!(!s.funcs.is_empty(), "{name}: no functions decoded");
        for f in s.funcs.values() {
            let matches = match s.vocab {
                SolverKind::Ci => matches!(f.facts, FuncFacts::Ci(_)),
                SolverKind::Weihl => matches!(f.facts, FuncFacts::Weihl(_)),
                SolverKind::CallString1 => matches!(f.facts, FuncFacts::K1(_)),
                SolverKind::Cs => matches!(f.facts, FuncFacts::Cs { .. }),
                SolverKind::Steensgaard => matches!(f.facts, FuncFacts::Steens(_)),
            };
            assert!(matches, "{name}: facts of the wrong vocabulary");
        }
    }
    assert!(!decoded["weihl"].store.is_empty(), "weihl store relation");
    store.save("golden", &project).unwrap();
    let resaved = std::fs::read_to_string(store.path_of("golden")).unwrap();
    assert!(resaved == GOLDEN_V2, "decoded re-save moved bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A service restored from the golden store reproduces the solution
/// fingerprints it recorded: the spec key still matches, so the stored
/// summaries seed the run, and the answers are unchanged.
#[test]
fn golden_v2_store_restores_to_the_recorded_fingerprints() {
    let dir = temp_dir("golden-v2-restore");
    let store = Store::open(&dir).unwrap();
    std::fs::write(store.path_of("golden"), GOLDEN_V2).unwrap();
    let LoadOutcome::Loaded(project) = store.load("golden") else {
        panic!("the golden v2 store must load");
    };
    let bench = &project.benches[0];
    let recorded: Vec<(String, String, Option<String>)> = bench
        .solution_fps
        .iter()
        .map(|(a, fp)| (bench.name.clone(), a.clone(), fp.map(proto::fp_hex)))
        .collect();
    let jobs = vec![JobSpec {
        name: bench.name.clone(),
        source: include_str!("fixtures/weakened_strong_update.c").to_string(),
        input: Vec::new(),
    }];
    assert_eq!(jobs[0].source, bench.source);
    let resp = analyze(&mut service(&dir), "golden", &jobs);
    assert_eq!(fingerprints_of(&resp), recorded);
    let Response::Analyzed { benches, serve, .. } = &resp else {
        panic!("expected Analyzed, got {resp:?}");
    };
    assert!(serve.restored);
    for s in &benches[0].solvers {
        let mode = s.mode.as_deref().unwrap_or_default();
        assert!(!mode.starts_with("fresh"), "{}: {mode}", s.analysis);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The memoized summaries rendering behind the store write-through
/// cannot go stale. A stale memo would move no fingerprint (stale seeds
/// only cost reuse), so the check is on the store bytes: over a seeded
/// edit chain of one bench among three, with a check every few steps,
///
/// - a service that runs throughout (warm memos, reused across saves)
/// - and a service rebuilt from its own store before every request
///   (every memo cold: rendered from the raw disk form or from freshly
///   decoded maps)
///
/// write byte-identical store files after every step. Then the final
/// file, loaded and re-saved with every bench forced through
/// `StoredSummaries::decoded()`, must come back byte for byte.
#[test]
fn memoized_store_writes_match_cold_renders_byte_for_byte() {
    let jobs = suite_jobs(3);
    let edited = 1;
    let chain = suite::edit::edit_chain(&jobs[edited].source, 0x5eed_0014, 12);
    assert!(chain.len() >= 12, "edit chain too short: {}", chain.len());
    let (warm_dir, cold_dir) = (temp_dir("memo-warm"), temp_dir("memo-cold"));
    let file_in = |dir: &Path| Store::open(dir).expect("open store").path_of("proj");
    let mut warm = service(&warm_dir);
    let sources =
        std::iter::once(jobs[edited].source.clone()).chain(chain.iter().map(|s| s.source.clone()));
    for (i, source) in sources.enumerate() {
        let mut step_jobs = jobs.clone();
        step_jobs[edited].source = source;
        let req = if i % 4 == 3 {
            Request::Check {
                project: "proj".into(),
                jobs: step_jobs,
                analysis: "ci".into(),
                want_report: false,
            }
        } else {
            Request::Analyze {
                project: "proj".into(),
                jobs: step_jobs,
                fresh: false,
                want_report: false,
            }
        };
        for resp in [warm.handle(&req), service(&cold_dir).handle(&req)] {
            assert!(
                !matches!(resp, Response::Error { .. }),
                "step {i}: {resp:?}"
            );
        }
        let (a, b) = (
            std::fs::read(file_in(&warm_dir)).unwrap(),
            std::fs::read(file_in(&cold_dir)).unwrap(),
        );
        assert!(a == b, "step {i}: warm and cold store files differ");
    }

    let store = Store::open(&warm_dir).unwrap();
    let LoadOutcome::Loaded(mut project) = store.load("proj") else {
        panic!("the written store must load");
    };
    for b in &mut project.benches {
        b.summaries.decoded();
    }
    let resaved_dir = temp_dir("memo-decoded");
    Store::open(&resaved_dir)
        .unwrap()
        .save("proj", &project)
        .unwrap();
    assert!(
        std::fs::read(file_in(&resaved_dir)).unwrap() == std::fs::read(file_in(&warm_dir)).unwrap(),
        "re-encoding the decoded summaries moved bytes"
    );
    for dir in [warm_dir, cold_dir, resaved_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Stale stored summaries must never leak into answers for changed
/// source: the service recomputes everything the summaries merely seed.
#[test]
fn stale_store_cannot_leak_into_answers() {
    let dir = temp_dir("stale");
    let jobs_v1 = vec![JobSpec {
        name: "prog".into(),
        source: "int main() { int x; int *p; p = &x; *p = 1; return *p; }".into(),
        input: Vec::new(),
    }];
    let jobs_v2 = vec![JobSpec {
        name: "prog".into(),
        source: "int main() { int x; int y; int *p; p = &y; *p = 2; return *p; }".into(),
        input: Vec::new(),
    }];
    // Persist v1, then send v2 through a fresh service over the same
    // store: the stored v1 summaries must not leak into v2's answers.
    let mut svc = service(&dir);
    analyze(&mut svc, "proj", &jobs_v1);
    drop(svc);
    let mut stale = service(&dir);
    let stale_resp = analyze(&mut stale, "proj", &jobs_v2);
    let mut clean = memory_service();
    let clean_resp = analyze(&mut clean, "proj", &jobs_v2);
    assert_eq!(fingerprints_of(&stale_resp), fingerprints_of(&clean_resp));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Satellite 4: concurrent clients vs serial in-process.
// ---------------------------------------------------------------------

/// The per-client request script: analyze a project, query two sites,
/// check — returning the comparable parts of every response.
fn client_script(project: &str) -> Vec<Request> {
    let jobs = suite_jobs(2);
    let bench = jobs[0].name.clone();
    vec![
        Request::Analyze {
            project: project.to_string(),
            jobs: jobs.clone(),
            fresh: false,
            want_report: false,
        },
        Request::Query {
            project: project.to_string(),
            bench: bench.clone(),
            analysis: "ci".into(),
            query: QueryKind::MayAlias { a: 0, b: 1 },
            job: None,
        },
        Request::Query {
            project: project.to_string(),
            bench,
            analysis: "steensgaard".into(),
            query: QueryKind::ReferentsAt { site: 0 },
            job: None,
        },
        Request::Check {
            project: project.to_string(),
            jobs,
            analysis: "ci".into(),
            want_report: false,
        },
    ]
}

/// Strips the non-deterministic parts (latencies, replay counters) so
/// concurrent and serial responses compare equal.
fn comparable(resp: &Response) -> String {
    match resp {
        Response::Analyzed {
            project,
            benches,
            report_fp,
            ..
        } => format!("analyzed {project} {benches:?} {report_fp}"),
        Response::Checked {
            project,
            benches,
            check_fp,
            monotone_violation,
            refuted,
            ..
        } => {
            let solvers: Vec<_> = benches.iter().map(|b| (&b.name, &b.solvers)).collect();
            format!("checked {project} {solvers:?} {check_fp} {monotone_violation:?} {refuted:?}")
        }
        Response::QueryResult {
            bench,
            analysis,
            answer,
            ..
        } => format!("query {bench} {analysis} {answer:?}"),
        other => format!("{other:?}"),
    }
}

#[test]
fn concurrent_clients_match_serial_in_process() {
    const CLIENTS: usize = 4;
    let svc = memory_service();
    let handle = serve::daemon::spawn(svc, "127.0.0.1:0").expect("bind daemon");
    let addr = handle.addr();

    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let project = format!("proj{t}");
                let mut client = serve::Client::connect(addr).expect("connect");
                client_script(&project)
                    .iter()
                    .map(|req| comparable(&client.request(req).expect("request")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let concurrent: Vec<Vec<String>> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    serve::request(addr, &Request::Shutdown).expect("shutdown");
    handle.join();

    // Serial oracle: one fresh in-process service, same scripts.
    for (t, got) in concurrent.iter().enumerate() {
        let mut oracle = memory_service();
        let want: Vec<String> = client_script(&format!("proj{t}"))
            .iter()
            .map(|req| comparable(&oracle.handle(req)))
            .collect();
        assert_eq!(&want, got, "client {t} diverged from serial in-process run");
    }
}

/// Two projects sharing one service must not observe each other's
/// state: evicting one leaves the other's session (and answers) alone.
#[test]
fn project_sessions_are_isolated() {
    let mut svc = memory_service();
    let jobs = suite_jobs(1);
    let a1 = analyze(&mut svc, "alpha", &jobs);
    analyze(&mut svc, "beta", &jobs);
    match svc.handle(&Request::Evict {
        project: Some("beta".into()),
    }) {
        Response::Ok => {}
        other => panic!("expected Ok, got {other:?}"),
    }
    let a2 = analyze(&mut svc, "alpha", &jobs);
    assert_eq!(fingerprints_of(&a1), fingerprints_of(&a2));
    match svc.handle(&Request::Stats) {
        Response::Stats { projects, .. } => {
            let names: Vec<_> = projects.iter().map(|p| p.name.as_str()).collect();
            assert!(names.contains(&"alpha"));
            assert!(!names.contains(&"beta"), "beta should be evicted");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// Session eviction under a tiny memory budget must keep answers
/// correct (evicted projects transparently restore from disk).
#[test]
fn lru_eviction_under_budget_preserves_answers() {
    let dir = temp_dir("lru");
    let mut svc = Service::new(ServiceOptions {
        store_dir: Some(dir.to_path_buf()),
        mem_budget: 1, // absurdly small: every request evicts the rest
        threads: 0,
    })
    .expect("open service");
    let jobs = suite_jobs(1);
    let first = analyze(&mut svc, "alpha", &jobs);
    analyze(&mut svc, "beta", &jobs);
    analyze(&mut svc, "gamma", &jobs);
    let again = analyze(&mut svc, "alpha", &jobs);
    assert_eq!(fingerprints_of(&first), fingerprints_of(&again));
    match svc.handle(&Request::Stats) {
        Response::Stats { evictions, .. } => {
            assert!(evictions > 0, "budget of 1 byte must force evictions");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Protocol-level sanity over the socket.
// ---------------------------------------------------------------------

#[test]
fn malformed_frame_gets_error_not_disconnect() {
    use std::io::{BufRead, BufReader, Write};
    let svc = memory_service();
    let handle = serve::daemon::spawn(svc, "127.0.0.1:0").expect("bind daemon");
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    writer.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("error"),
        "expected an error frame, got {line:?}"
    );

    // The connection survives: a well-formed request still works.
    let mut client_line = proto::Request::Stats.to_value().render();
    client_line.push('\n');
    writer.write_all(client_line.as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("stats"),
        "expected a stats frame, got {line:?}"
    );

    drop(writer);
    serve::request(handle.addr(), &Request::Shutdown).expect("shutdown");
    handle.join();
}

#[test]
fn unknown_bench_and_bad_site_are_clean_errors() {
    let mut svc = memory_service();
    match svc.handle(&Request::Query {
        project: "proj".into(),
        bench: "nope".into(),
        analysis: "ci".into(),
        query: QueryKind::ReferentsAt { site: 0 },
        job: None,
    }) {
        Response::Error { message } => assert!(message.contains("analyze")),
        other => panic!("expected Error, got {other:?}"),
    }
    let jobs = suite_jobs(1);
    analyze(&mut svc, "proj", &jobs);
    match svc.handle(&Request::Query {
        project: "proj".into(),
        bench: jobs[0].name.clone(),
        analysis: "ci".into(),
        query: QueryKind::ReferentsAt { site: 100_000 },
        job: None,
    }) {
        Response::Error { message } => assert!(message.contains("out of range")),
        other => panic!("expected Error, got {other:?}"),
    }
    match svc.handle(&Request::Analyze {
        project: "../escape".into(),
        jobs,
        fresh: false,
        want_report: false,
    }) {
        Response::Error { message } => assert!(message.contains("invalid project")),
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn may_alias_is_symmetric_and_witnessed() {
    let mut svc = memory_service();
    let jobs = vec![JobSpec {
        name: "alias".into(),
        source: "int main() { int x; int *p; int *q; p = &x; q = &x; *p = 1; return *q; }".into(),
        input: Vec::new(),
    }];
    analyze(&mut svc, "proj", &jobs);
    let ask = |svc: &mut Service, a: usize, b: usize| -> (bool, Vec<String>) {
        match svc.handle(&Request::Query {
            project: "proj".into(),
            bench: "alias".into(),
            analysis: "ci".into(),
            query: QueryKind::MayAlias { a, b },
            job: None,
        }) {
            Response::QueryResult {
                answer:
                    QueryAnswer::MayAlias {
                        may_alias,
                        witnesses,
                        ..
                    },
                ..
            } => (may_alias, witnesses),
            other => panic!("expected MayAlias answer, got {other:?}"),
        }
    };
    let (ab, wit_ab) = ask(&mut svc, 0, 1);
    let (ba, wit_ba) = ask(&mut svc, 1, 0);
    assert!(ab, "*p and *q both point at x: must alias");
    assert_eq!(ab, ba, "may-alias must be symmetric");
    assert_eq!(wit_ab, wit_ba);
    assert!(
        wit_ab.iter().any(|w| w.contains('x')),
        "witness should name x, got {wit_ab:?}"
    );
}
