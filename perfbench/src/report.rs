//! The per-layer metric list and the fold from traced phases to metrics.
//!
//! Every traced run prints every metric of [`per_layer`], in order; a
//! layer a workload never calls reads 0. `BENCHMARK.json` lists the same
//! names (a test keeps the two in step).

use crate::trace::Profile;
use crate::BenchResult;

/// Layers whose self time is reported as `<layer>.self_ms`.
pub const LAYERS: [&str; 26] = [
    "cfront",
    "cfront.pretty",
    "vdg",
    "alias.ci",
    "alias.cs",
    "alias.k1",
    "alias.weihl",
    "alias.steensgaard",
    "alias.naive",
    "alias.covers",
    "alias.demand",
    "alias.index",
    "alias.compare",
    "checker",
    "checker.race",
    "interp.run",
    "interp.check",
    "interp.races",
    "engine",
    "engine.incremental",
    "suite.generator",
    "suite.edit",
    "serve",
    "serve.rpc",
    "proto.encode",
    "proto.decode",
];

/// Exact work counters: identical on every run of one seed, traced or
/// not, so they can gate a change. Reported as `<name>` with unit
/// `count`.
pub const COUNTERS: [&str; 27] = [
    "vdg.nodes",
    "alias.ci.flow_ins",
    "alias.ci.flow_outs",
    "alias.ci.pairs",
    "alias.ci.dedup_hits",
    "alias.cs.flow_ins",
    "alias.cs.flow_outs",
    "alias.cs.pairs",
    "alias.cs.dedup_hits",
    "alias.k1.flow_ins",
    "alias.k1.flow_outs",
    "alias.k1.pairs",
    "alias.k1.dedup_hits",
    "alias.weihl.flow_ins",
    "alias.weihl.flow_outs",
    "alias.weihl.pairs",
    "alias.weihl.dedup_hits",
    "alias.naive.flow_ins",
    "alias.demand.queries",
    "alias.demand.hits",
    "alias.demand.fallbacks",
    "alias.demand.steps",
    "checker.diagnostics",
    "interp.run.steps",
    "engine.incremental.replayed",
    "engine.incremental.seeded",
    "engine.incremental.fresh",
];

/// Every per-layer metric with its unit, in print order. Self times,
/// then exact counters, then ratios, serve-side figures and the trace
/// accounting.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|l| (format!("{l}.self_ms"), "ms"))
        .collect();
    v.push(("bench.self_ms".into(), "ms"));
    v.extend(COUNTERS.iter().map(|c| (c.to_string(), "count")));
    for (name, unit) in [
        ("alias.demand.hit_ratio", "ratio"),
        ("engine.incremental.reuse_ratio", "ratio"),
        ("analyze_ms_geomean", "ms"),
        ("serve.analyze.service_ms_p50", "ms"),
        ("serve.analyze.wait_ms_p50", "ms"),
        ("serve.query.us_p50", "us"),
        ("serve.query.us_p99", "us"),
        ("serve.query.alone_us_p50", "us"),
        ("serve.store.bytes", "bytes"),
        ("serve.restore_us", "us"),
        ("serve.editor.late_ms_p99", "ms"),
        ("proto.encode_us_p50", "us"),
        ("proto.decode_us_p50", "us"),
        ("trace.untraced_ms", "ms"),
        ("trace.wall_ms", "ms"),
        ("trace.unattributed_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "spans"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

/// Checks counter determinism and adds the layer metrics of a traced
/// run: `untraced` is the phase measured with layer spans off, `first`
/// and `second` the two detailed phases over the same work.
///
/// Each exact counter must agree between the two detailed phases, and
/// every counter the untraced phase counted must agree with the first
/// detailed one; every disagreement is a failed operation.
pub fn layers(r: &mut BenchResult, untraced: &Profile, first: &Profile, second: &Profile) {
    for (name, a) in &first.counters {
        let b = second.counter(name);
        if *a != b {
            r.fail(format!(
                "counter {name} differs between traced passes: {a} vs {b}"
            ));
        }
    }
    for (name, u) in &untraced.counters {
        let a = first.counter(name);
        if *u != a {
            r.fail(format!(
                "counter {name} differs untraced vs traced: {u} vs {a}"
            ));
        }
    }
    let avg = |f: &dyn Fn(&Profile) -> f64| (f(first) + f(second)) / 2.0;
    let mut layers_ms = 0.0;
    for layer in LAYERS {
        let ms = avg(&|p: &Profile| p.self_ms(layer));
        layers_ms += ms;
        r.metric(&format!("{layer}.self_ms"), ms, "ms");
    }
    r.metric(
        "bench.self_ms",
        avg(&|p: &Profile| p.root_self_ns as f64 / 1e6),
        "ms",
    );
    for (name, v) in &first.counters {
        r.counters.insert(name.clone(), *v);
        r.metric(name, *v as f64, "count");
    }
    let c = |n: &str| first.counter(n) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    r.metric(
        "alias.demand.hit_ratio",
        ratio(c("alias.demand.hits"), c("alias.demand.queries")),
        "ratio",
    );
    let benches = c("engine.incremental.replayed")
        + c("engine.incremental.seeded")
        + c("engine.incremental.fresh");
    r.metric(
        "engine.incremental.reuse_ratio",
        ratio(
            c("engine.incremental.replayed") + c("engine.incremental.seeded"),
            benches,
        ),
        "ratio",
    );
    let untraced_ms = untraced.accounted_ns as f64 / 1e6;
    let traced_ms = avg(&|p: &Profile| p.accounted_ns as f64 / 1e6);
    r.metric("trace.untraced_ms", untraced_ms, "ms");
    r.metric("trace.wall_ms", traced_ms, "ms");
    r.metric("trace.unattributed_ms", untraced_ms - layers_ms, "ms");
    r.metric(
        "trace.overhead_pct",
        (ratio(traced_ms, untraced_ms) - 1.0) * 100.0,
        "%",
    );
    r.metric(
        "trace.spans",
        (first.spans + second.spans) as f64 / 2.0,
        "spans",
    );
}

/// Puts the metrics of a traced run in [`per_layer`] order, adding 0
/// for every layer metric the workload never produced and dropping
/// anything not in the list.
pub fn finish_traced(r: &mut BenchResult) {
    let have = std::mem::take(&mut r.metrics);
    for (name, unit) in per_layer() {
        let value = have
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        r.metric(&name, value, unit);
    }
}
