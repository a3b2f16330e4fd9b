//! The benchmark's own tests: a tiny-size smoke of every workload with
//! its output checks, a corrupted expected fingerprint that must count
//! as a failed operation, traced runs whose exact counters must agree
//! with the untraced pass, and `BENCHMARK.json` in step with the code.

use proto::json::Value;
use ruf95_perfbench::{report, run_workload, Config, Size, WORKLOADS};

fn tiny(workload: &str, tag: &str) -> Config {
    Config::new(1, 0.5, Size::Tiny, &format!("test-{workload}-{tag}"))
}

fn run(workload: &str, tag: &str, traced: bool) -> ruf95_perfbench::BenchResult {
    let cfg = tiny(workload, tag);
    let r = run_workload(workload, &cfg, traced).expect("workload runs");
    ruf95_perfbench::remove_dir(&cfg.work_dir);
    r
}

/// The end-to-end metric names of `BENCHMARK.json`, sorted.
fn end_to_end_names() -> Vec<String> {
    let v = benchmark_json();
    let mut names: Vec<String> = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

#[test]
fn every_workload_passes_its_output_checks_at_tiny_size() {
    let names = end_to_end_names();
    for w in WORKLOADS {
        let r = run(w, "smoke", false);
        assert!(r.attempted > 0, "{w}: nothing attempted");
        assert_eq!(r.failed, 0, "{w}: {:?}", r.notes);
        let mut got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
        got.sort();
        assert_eq!(got, names, "{w} prints every end-to-end metric");
        for m in &r.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }
        assert!(r.to_json().starts_with("{\"correct\": true"));
    }
}

#[test]
fn a_corrupted_expected_fingerprint_is_a_failed_operation() {
    let mut cfg = tiny("spectrum", "corrupt");
    let slot = cfg
        .expected
        .fps
        .get_mut(&("span".to_string(), "cs".to_string()))
        .expect("span/cs is committed");
    *slot = slot.map(|fp| fp ^ 1);
    let r = run_workload("spectrum", &cfg, false).expect("workload runs");
    assert!(r.failed >= 1, "corruption went unnoticed");
    assert!(r.to_json().starts_with("{\"correct\": false"));
    assert!(r.notes.iter().any(|n| n.contains("span")), "{:?}", r.notes);
}

#[test]
fn a_corrupted_campaign_digest_is_a_failed_operation() {
    let mut cfg = tiny("campaign", "corrupt");
    let slot = cfg
        .expected
        .digests
        .get_mut(&("campaign".to_string(), "tiny".to_string(), 1))
        .expect("campaign tiny 1 is committed");
    *slot ^= 1;
    let r = run_workload("campaign", &cfg, false).expect("workload runs");
    ruf95_perfbench::remove_dir(&cfg.work_dir);
    assert!(r.failed >= 1, "corruption went unnoticed");
}

#[test]
fn traced_runs_report_the_untraced_work_counters() {
    for w in WORKLOADS {
        let r = run(w, "traced", true);
        // The traced run fails an operation whenever an exact counter
        // differs between its untraced pass and its detailed passes, or
        // between the two detailed passes.
        assert_eq!(r.failed, 0, "{w}: {:?}", r.notes);
        assert!(!r.counters.is_empty(), "{w}: no counters");
        let names: Vec<String> = report::per_layer().into_iter().map(|(n, _)| n).collect();
        let got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(got, names, "{w} prints every per-layer metric");
        let value = |n: &str| r.value(n).unwrap_or(0.0);
        assert!(value("trace.untraced_ms") > 0.0, "{w}");
        assert!(value("trace.wall_ms") > 0.0, "{w}");
    }
}

#[test]
fn traced_spectrum_counts_the_solver_work() {
    let r = run("spectrum", "counters", true);
    for c in [
        "vdg.nodes",
        "alias.ci.flow_ins",
        "alias.cs.pairs",
        "alias.k1.flow_outs",
    ] {
        assert!(r.counters.get(c).copied().unwrap_or(0) > 0, "{c}");
    }
    let layers: f64 = report::LAYERS
        .iter()
        .map(|l| r.value(&format!("{l}.self_ms")).unwrap_or(0.0))
        .sum();
    let unattributed = r.value("trace.unattributed_ms").unwrap_or(0.0);
    let untraced = r.value("trace.untraced_ms").unwrap_or(0.0);
    assert!(
        (layers + unattributed - untraced).abs() < 1e-6 * untraced.max(1.0),
        "layer self times plus unattributed must account for the untraced wall"
    );
}

#[test]
fn benchmark_json_lists_every_per_layer_metric() {
    let v = benchmark_json();
    let listed: Vec<(String, String)> = v
        .get("per_layer")
        .and_then(Value::as_arr)
        .expect("per_layer")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    let code: Vec<(String, String)> = report::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed, code);
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn default_and_held_out_seeds_have_committed_outputs() {
    let e = ruf95_perfbench::expected::Expected::committed();
    for w in WORKLOADS {
        let default = e.seed(w, "default").expect("default seed");
        let held_out = e.seed(w, "held-out").expect("held-out seed");
        assert_ne!(default, held_out, "{w}");
        for seed in [default, held_out] {
            match w {
                "spectrum" => {
                    for program in [
                        "allroots",
                        &format!("chain-128-s{}", ruf95_perfbench::spectrum::SWEEPS * seed),
                    ] {
                        assert!(e.fp(program, "cs").is_some(), "{w} {program}");
                    }
                }
                _ => {
                    for size in ["full", "tiny"] {
                        assert!(e.digest(w, size, seed).is_some(), "{w} {size} {seed}");
                    }
                }
            }
        }
    }
}
