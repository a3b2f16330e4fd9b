//! Structured per-stage metrics for an engine run, serializable to JSON.
//!
//! The JSON schema (documented in `DESIGN.md` §"The engine") is stable
//! and hand-rolled — the workspace is dependency-free by design, and the
//! report is flat enough that a serializer library would be the only
//! reason to stop being so. All durations are reported twice: as
//! `*_ns` integer nanoseconds (exact) and implicitly via the
//! benchmark's stage order. A *fingerprint* is the rendering of the
//! [`EngineReport::canonical`] form of the report — the same document
//! with every fingerprint-exempt field scrubbed — so two runs can be
//! compared for semantic equality regardless of scheduling, thread
//! count, propagation discipline, cache state, or serving transport.
//! `canonical` is the **single authority** on which fields are exempt;
//! any new work-description field (daemon latency, cache-hit counters,
//! …) must be scrubbed there, and nowhere else, or it would silently
//! perturb fingerprints.

use proto::json::json_str;
use std::time::Duration;

/// Metrics for one solver on one benchmark.
#[derive(Debug, Clone)]
pub struct SolverMetrics {
    /// [`alias::SolverKind::name`] of the producing solver.
    pub analysis: String,
    /// Wall-clock time of the solve call.
    pub wall: Duration,
    /// Total points-to pairs (`None` for the unification solver) — the
    /// solution-size / peak-pair metric.
    pub pairs: Option<usize>,
    /// Transfer-function applications (worklist iterations). A seeded
    /// resume reaches the same fixpoint in fewer applications than a
    /// from-scratch solve, so the fingerprint nulls it.
    pub flow_ins: Option<u64>,
    /// Meet operations (work-dependent like `flow_ins`; nulled in the
    /// fingerprint).
    pub flow_outs: Option<u64>,
    /// Emission attempts deduplicated by the committed sets
    /// (scheduling-dependent; nulled in the fingerprint).
    pub dedup_hits: Option<u64>,
    /// Batched delta deliveries consumed under difference propagation
    /// (`None` under naive propagation; nulled in the fingerprint).
    pub delta_batches: Option<u64>,
    /// Worklist deliveries saved by delta batching:
    /// `flow_ins − delta_batches` (nulled in the fingerprint).
    pub deliveries_saved: Option<u64>,
    /// How an incremental run obtained this solution (`"replayed"`,
    /// `"seeded(..)"`, `"fresh(..)"`); `None` for plain runs. Describes
    /// the work done, not the solution, so the fingerprint nulls it.
    pub mode: Option<String>,
    /// Failure (e.g. a step-budget overflow), if the solve failed.
    pub error: Option<String>,
    /// Checker diagnostics under this solution, attached by
    /// [`crate::EngineRun::run_checks`]; `None` when the run skipped
    /// checking. Solution-derived and deterministic, so the fingerprint
    /// keeps it.
    pub checks: Option<CheckMetrics>,
}

/// Oracle-labeled checker counts for one solver on one benchmark (the
/// `--check` rows of a report).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckMetrics {
    /// Diagnostics per checker, in `checker::CheckKind::all()` order:
    /// use-after-free, double-free, dangling-local, uninit-read,
    /// null-deref, dead-store, data-race.
    pub diags: [usize; 7],
    /// Oracle-confirmed diagnostics.
    pub true_positives: usize,
    /// Diagnostics whose site executed without the defect.
    pub false_positives: usize,
    /// Diagnostics at sites the oracle run never reached.
    pub unreachable: usize,
    /// A runtime fault no diagnostic predicted — a checker+solver
    /// soundness failure. Must stay `false`.
    pub refuted: bool,
}

impl CheckMetrics {
    fn to_json(&self) -> String {
        format!(
            "{{\"diags\": [{}], \"true_positives\": {}, \"false_positives\": {}, \
             \"unreachable\": {}, \"refuted\": {}}}",
            self.diags
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            self.true_positives,
            self.false_positives,
            self.unreachable,
            self.refuted
        )
    }
}

/// Cache-effectiveness counters of one incremental run.
#[derive(Debug, Clone, Default)]
pub struct IncrementalStats {
    /// Benchmarks answered entirely from cache (source or graph
    /// fingerprint match).
    pub benches_replayed: usize,
    /// Benchmarks re-solved from a seeded dirty cone.
    pub benches_seeded: usize,
    /// Benchmarks solved from scratch.
    pub benches_fresh: usize,
    /// Function summaries reused across all benchmarks.
    pub funcs_reused: usize,
    /// Functions re-fingerprinted as dirty across all benchmarks.
    pub funcs_dirty: usize,
    /// Individual solver solutions replayed from cache.
    pub solutions_replayed: usize,
    /// Individual solver solutions obtained by a seeded resume
    /// (`reseeded(..)` or `seeded(..)` modes), across all solvers.
    pub solutions_resumed: usize,
}

/// Per-benchmark stage timings, sizes, and solver metrics.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// Benchmark name.
    pub name: String,
    /// Non-blank source lines.
    pub lines: usize,
    /// VDG nodes after lowering.
    pub nodes: usize,
    /// VDG outputs.
    pub outputs: usize,
    /// Indirect memory operations (the §4.3 comparison sites).
    pub indirect_refs: usize,
    /// Lex + parse + sema wall time.
    pub frontend: Duration,
    /// VDG lowering wall time.
    pub lowering: Duration,
    /// One entry per solver, in the engine's solver order.
    pub solvers: Vec<SolverMetrics>,
}

/// Serving-side counters the `ruf95 serve` daemon attaches to reports
/// it returns over the wire: how fast the request was handled and how
/// much of it came from the session cache. Pure work description —
/// [`EngineReport::canonical`] scrubs the whole block.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Wall time the service spent handling the request, microseconds,
    /// excluding the store write (`store_us`).
    pub latency_us: u64,
    /// Benchmarks replayed verbatim from the session cache.
    pub benches_replayed: usize,
    /// Individual solver solutions replayed from cache.
    pub solutions_replayed: usize,
    /// Whether the request warm-started its session from the disk
    /// store.
    pub restored: bool,
    /// Queries answered from the demand-solved region.
    pub demand_hits: u64,
    /// Queries answered from the exhaustive fallback solution.
    pub demand_fallbacks: u64,
    /// Demand queries that exhausted a slice or step budget.
    pub demand_budget_exhausted: u64,
    /// Microseconds the session has spent restoring from the disk
    /// store (initial load plus lazy per-bench decode), cumulative.
    pub restore_us: u64,
    /// Microseconds the request spent writing its project to the disk
    /// store.
    pub store_us: u64,
}

/// The full result of an engine run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Worker threads the run actually used.
    pub threads: usize,
    /// End-to-end wall time of the run, all stages included.
    pub total_wall: Duration,
    /// One entry per benchmark, in job order.
    pub benchmarks: Vec<BenchmarkReport>,
    /// Cache-effectiveness counters, for incremental runs only. Like
    /// the timings, these describe the work done rather than the
    /// solution, so the fingerprint nulls them.
    pub incremental: Option<IncrementalStats>,
    /// Serving counters, attached only by the `ruf95 serve` daemon.
    /// Work description like `incremental`; fingerprint-exempt.
    pub serve: Option<ServeStats>,
}

impl EngineReport {
    /// Serializes the report to a self-contained JSON document.
    pub fn to_json(&self) -> String {
        self.render()
    }

    /// The timing-free canonical form: identical across runs whenever
    /// the analysis *results* are identical, whatever the parallelism.
    pub fn fingerprint(&self) -> String {
        self.canonical().render()
    }

    /// Scrubs every fingerprint-exempt field — the one place in the
    /// workspace that decides what the fingerprint ignores. Exempt are
    /// the fields that describe the *work done* rather than the
    /// solution computed: timings and thread count, the fixpoint work
    /// counters (`flow_ins`, `flow_outs`) and delta-batch scheduling
    /// counters (`dedup_hits`, `delta_batches`, `deliveries_saved`) —
    /// a seeded resume reaches the same fixpoint with less work — the
    /// incremental `mode` strings and cache counters, and the daemon's
    /// [`ServeStats`]. Everything else — sizes, pair counts, checker
    /// diagnostics, errors — is solution-derived and must survive.
    ///
    /// Adding a field to the report? If it can differ between two runs
    /// that computed identical solutions, scrub it here, or restart
    /// replay and cross-run equivalence comparisons will break.
    pub fn canonical(&self) -> EngineReport {
        let mut r = self.clone();
        r.threads = 0;
        r.total_wall = Duration::ZERO;
        r.incremental = None;
        r.serve = None;
        for b in &mut r.benchmarks {
            b.frontend = Duration::ZERO;
            b.lowering = Duration::ZERO;
            for s in &mut b.solvers {
                s.wall = Duration::ZERO;
                s.flow_ins = None;
                s.flow_outs = None;
                s.dedup_hits = None;
                s.delta_batches = None;
                s.deliveries_saved = None;
                s.mode = None;
            }
        }
        r
    }

    /// Sum of one solver's wall time across all benchmarks.
    pub fn solver_wall(&self, analysis: &str) -> Duration {
        self.benchmarks
            .iter()
            .flat_map(|b| &b.solvers)
            .filter(|s| s.analysis == analysis)
            .map(|s| s.wall)
            .sum()
    }

    /// Renders exactly what the struct holds — no field is scrubbed
    /// here. Exemption decisions all live in [`EngineReport::canonical`].
    fn render(&self) -> String {
        let ns = |d: Duration| d.as_nanos();
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let inc = match &self.incremental {
            Some(s) => format!(
                "{{\"benches_replayed\": {}, \"benches_seeded\": {}, \"benches_fresh\": {}, \
                 \"funcs_reused\": {}, \"funcs_dirty\": {}, \"solutions_replayed\": {}, \
                 \"solutions_resumed\": {}}}",
                s.benches_replayed,
                s.benches_seeded,
                s.benches_fresh,
                s.funcs_reused,
                s.funcs_dirty,
                s.solutions_replayed,
                s.solutions_resumed
            ),
            None => "null".into(),
        };
        let serve = match &self.serve {
            Some(s) => format!(
                "{{\"latency_us\": {}, \"benches_replayed\": {}, \
                 \"solutions_replayed\": {}, \"restored\": {}, \
                 \"demand_hits\": {}, \"demand_fallbacks\": {}, \
                 \"demand_budget_exhausted\": {}, \"restore_us\": {}, \"store_us\": {}}}",
                s.latency_us,
                s.benches_replayed,
                s.solutions_replayed,
                s.restored,
                s.demand_hits,
                s.demand_fallbacks,
                s.demand_budget_exhausted,
                s.restore_us,
                s.store_us
            ),
            None => "null".into(),
        };
        out.push_str(&format!(
            "  \"threads\": {},\n  \"total_wall_ns\": {},\n  \"incremental\": {},\n  \
             \"serve\": {},\n  \"benchmarks\": [\n",
            self.threads,
            ns(self.total_wall),
            inc,
            serve
        ));
        for (i, b) in self.benchmarks.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"lines\": {}, \"nodes\": {}, \"outputs\": {}, \
                 \"indirect_refs\": {}, \"frontend_ns\": {}, \"lowering_ns\": {}, \
                 \"solvers\": [\n",
                json_str(&b.name),
                b.lines,
                b.nodes,
                b.outputs,
                b.indirect_refs,
                ns(b.frontend),
                ns(b.lowering)
            ));
            for (j, s) in b.solvers.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"analysis\": {}, \"wall_ns\": {}, \"pairs\": {}, \
                     \"flow_ins\": {}, \"flow_outs\": {}, \"dedup_hits\": {}, \
                     \"delta_batches\": {}, \"deliveries_saved\": {}, \
                     \"mode\": {}, \"error\": {}, \"checks\": {}}}{}\n",
                    json_str(&s.analysis),
                    ns(s.wall),
                    json_opt(s.pairs.map(|v| v.to_string())),
                    json_opt(s.flow_ins.map(|v| v.to_string())),
                    json_opt(s.flow_outs.map(|v| v.to_string())),
                    json_opt(s.dedup_hits.map(|v| v.to_string())),
                    json_opt(s.delta_batches.map(|v| v.to_string())),
                    json_opt(s.deliveries_saved.map(|v| v.to_string())),
                    json_opt_str(s.mode.as_deref()),
                    json_opt_str(s.error.as_deref()),
                    json_opt(s.checks.as_ref().map(CheckMetrics::to_json)),
                    if j + 1 < b.solvers.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if i + 1 < self.benchmarks.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_opt(v: Option<String>) -> String {
    v.unwrap_or_else(|| "null".into())
}

fn json_opt_str(v: Option<&str>) -> String {
    v.map(json_str).unwrap_or_else(|| "null".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineReport {
        EngineReport {
            threads: 4,
            total_wall: Duration::from_millis(12),
            benchmarks: vec![BenchmarkReport {
                name: "span".into(),
                lines: 100,
                nodes: 500,
                outputs: 700,
                indirect_refs: 9,
                frontend: Duration::from_micros(80),
                lowering: Duration::from_micros(200),
                solvers: vec![
                    SolverMetrics {
                        analysis: "ci".into(),
                        wall: Duration::from_micros(300),
                        pairs: Some(1234),
                        flow_ins: Some(5000),
                        flow_outs: Some(800),
                        dedup_hits: Some(42),
                        delta_batches: Some(700),
                        deliveries_saved: Some(4300),
                        mode: Some("seeded(dirty=1/5)".into()),
                        error: None,
                        checks: Some(CheckMetrics {
                            diags: [1, 0, 2, 0, 0, 3, 1],
                            true_positives: 4,
                            false_positives: 1,
                            unreachable: 1,
                            refuted: false,
                        }),
                    },
                    SolverMetrics {
                        analysis: "steensgaard".into(),
                        wall: Duration::from_micros(40),
                        pairs: None,
                        flow_ins: None,
                        flow_outs: None,
                        dedup_hits: None,
                        delta_batches: None,
                        deliveries_saved: None,
                        mode: None,
                        error: None,
                        checks: None,
                    },
                ],
            }],
            incremental: Some(IncrementalStats {
                benches_seeded: 1,
                funcs_reused: 4,
                funcs_dirty: 1,
                ..IncrementalStats::default()
            }),
            serve: Some(ServeStats {
                latency_us: 740,
                benches_replayed: 1,
                solutions_replayed: 5,
                restored: true,
                demand_hits: 2,
                demand_fallbacks: 1,
                demand_budget_exhausted: 0,
                restore_us: 120,
                store_us: 310,
            }),
        }
    }

    #[test]
    fn json_has_all_fields_and_nulls() {
        let j = sample().to_json();
        for needle in [
            "\"threads\": 4",
            "\"name\": \"span\"",
            "\"pairs\": 1234",
            "\"flow_ins\": null",
            "\"error\": null",
            "\"indirect_refs\": 9",
            "\"dedup_hits\": 42",
            "\"delta_batches\": 700",
            "\"deliveries_saved\": 4300",
            "\"mode\": \"seeded(dirty=1/5)\"",
            "\"funcs_reused\": 4",
            "\"serve\": {\"latency_us\": 740, \"benches_replayed\": 1, \
             \"solutions_replayed\": 5, \"restored\": true, \
             \"demand_hits\": 2, \"demand_fallbacks\": 1, \
             \"demand_budget_exhausted\": 0, \"restore_us\": 120, \"store_us\": 310}",
            "\"checks\": {\"diags\": [1, 0, 2, 0, 0, 3, 1], \"true_positives\": 4, \
             \"false_positives\": 1, \"unreachable\": 1, \"refuted\": false}",
            "\"checks\": null",
        ] {
            assert!(j.contains(needle), "missing {needle} in\n{j}");
        }
    }

    #[test]
    fn fingerprint_nulls_delta_batch_counters() {
        let mut a = sample();
        let mut b = sample();
        // Different propagation schedules: different dedup/batch stats,
        // different transfer-application counts...
        a.benchmarks[0].solvers[0].dedup_hits = Some(1);
        a.benchmarks[0].solvers[0].delta_batches = None;
        a.benchmarks[0].solvers[0].deliveries_saved = None;
        a.benchmarks[0].solvers[0].flow_ins = Some(7);
        b.benchmarks[0].solvers[0].dedup_hits = Some(9000);
        // ...same fingerprint, as long as the solutions agree.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.fingerprint().contains("\"dedup_hits\": 1"));
        // Work-description fields are nulled too: an incremental run and
        // a plain run that computed the same fixpoint must agree.
        assert!(a.fingerprint().contains("\"mode\": null"));
        assert!(a.fingerprint().contains("\"incremental\": null"));
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn fingerprint_scrubs_serve_stats() {
        let mut a = sample();
        let mut b = sample();
        a.serve = Some(ServeStats {
            latency_us: 3,
            store_us: 4200,
            ..ServeStats::default()
        });
        b.serve = None;
        // A warm daemon answer and a plain in-process run of the same
        // solutions must fingerprint identically.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().contains("\"serve\": null"));
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn canonical_is_idempotent_and_authoritative() {
        let r = sample();
        let c = r.canonical();
        // Rendering the canonical form directly IS the fingerprint:
        // no second scrubbing pass hides an exemption elsewhere.
        assert_eq!(c.to_json(), r.fingerprint());
        assert_eq!(c.canonical().to_json(), r.fingerprint());
    }

    #[test]
    fn fingerprint_zeroes_every_timing() {
        let mut a = sample();
        let mut b = sample();
        a.threads = 1;
        a.total_wall = Duration::from_secs(9);
        a.benchmarks[0].frontend = Duration::from_secs(1);
        a.benchmarks[0].solvers[0].wall = Duration::from_secs(2);
        b.threads = 16;
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
