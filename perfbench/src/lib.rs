//! Outside-in benchmark of the ruf95 analysis stack.
//!
//! Three workloads call the workspace crates' public functions the way
//! a user of the system would:
//!
//! - [`spectrum`]: fresh whole-program analysis under all five solvers,
//!   one `engine::Engine` call per program, over the 13 paper programs
//!   plus the seeded scaling sweep.
//! - [`campaign`]: `engine::campaign::run` over a fixed seed range with
//!   one worker thread; three quarters of the seeds use the campaign
//!   generator preset, the rest the threaded preset.
//! - [`serve`]: an in-process `serve` daemon driven over TCP by an
//!   open-loop editor connection and a closed-loop query connection.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics. A
//! traced run (`--trace 1`) runs a fixed amount of the same work once
//! untraced and twice with spans around every call into a layer
//! ([`trace`]), checks that the exact work counters of the two traced
//! passes agree, and reports per-layer self times and counters.
//! Every workload checks its outputs; a mismatch is a failed operation.

pub mod calib;
pub mod campaign;
pub mod expected;
pub mod report;
pub mod serve;
pub mod spectrum;
pub mod stats;
pub mod trace;

use expected::Expected;
use std::path::{Path, PathBuf};

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the end-to-end measurement runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Print the expected-output lines for this seed instead of
    /// measuring (used to regenerate `expected.txt`).
    pub emit_expected: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1
    /// [--emit-expected]`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut emit_expected = false;
        while let Some(flag) = it.next() {
            if flag == "--emit-expected" {
                emit_expected = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (want one of {WORKLOADS:?})"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            emit_expected,
        })
    }
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["spectrum", "campaign", "serve"];

/// Input size. `Full` is what the benchmark measures; `Tiny` is the
/// smoke size the benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few programs, seeds and requests.
    Tiny,
}

impl Size {
    /// Stable name, used as a key in `expected.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// Everything one workload run needs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// End-to-end measurement length.
    pub seconds: f64,
    /// Input size.
    pub size: Size,
    /// Committed expected outputs.
    pub expected: Expected,
    /// Scratch directory for state (campaign journals, serve store).
    pub work_dir: PathBuf,
    /// Where a traced run writes the spans of its first detailed pass.
    pub trace_out: Option<PathBuf>,
}

impl Config {
    /// A configuration with the committed expected outputs and a
    /// scratch directory under `.perfbench/` in the current directory.
    pub fn new(seed: u64, seconds: f64, size: Size, tag: &str) -> Config {
        Config {
            seed,
            seconds,
            size,
            expected: Expected::committed(),
            work_dir: PathBuf::from(".perfbench").join(format!("{tag}-{}", std::process::id())),
            trace_out: None,
        }
    }

    /// Folds one traced-run pass, first writing its spans out when
    /// `write` is set and a trace file is configured.
    pub fn fold(&self, parts: Vec<trace::Recorded>, write: bool) -> trace::Profile {
        if let (true, Some(path)) = (write, &self.trace_out) {
            if let Err(e) = trace::write_spans(path, &parts) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
        trace::Profile::fold(parts)
    }
}

/// One metric of a result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (first failures, phase summaries), printed
    /// to standard error.
    pub notes: Vec<String>,
    /// Exact work counters of the run (used by the traced-vs-untraced
    /// and determinism checks).
    pub counters: std::collections::BTreeMap<String, u64>,
}

impl BenchResult {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The named metric's value, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records one failed output check with a note (only the first few
    /// notes are kept).
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("check failed: {note}"));
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Renders a float with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which no metric should
/// produce) become 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Runs the workload the arguments name, in a scratch directory under
/// `.perfbench/` that is removed afterwards.
///
/// # Errors
///
/// Returns a message when the workload could not run at all (scratch
/// directory, socket or daemon failure). Failed output checks are not
/// errors: they are counted in [`BenchResult::failed`].
pub fn run(args: &Args) -> Result<BenchResult, String> {
    let mut cfg = Config::new(args.seed, args.seconds, Size::Full, &args.workload);
    if args.trace {
        cfg.trace_out = Some(
            PathBuf::from(".perfbench")
                .join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
        );
    }
    let out = if args.emit_expected {
        emit_expected(&args.workload, &cfg).map(|lines| BenchResult {
            notes: lines,
            ..BenchResult::default()
        })
    } else {
        run_workload(&args.workload, &cfg, args.trace)
    };
    remove_dir(&cfg.work_dir);
    out
}

/// Runs one workload at the configured size.
///
/// # Errors
///
/// See [`run`].
pub fn run_workload(workload: &str, cfg: &Config, traced: bool) -> Result<BenchResult, String> {
    let mut r = match (workload, traced) {
        ("spectrum", false) => Ok(spectrum::measure(cfg)),
        ("spectrum", true) => Ok(spectrum::traced(cfg)),
        ("campaign", false) => campaign::measure(cfg),
        ("campaign", true) => campaign::traced(cfg),
        ("serve", false) => serve::measure(cfg),
        ("serve", true) => serve::traced(cfg),
        _ => Err(format!("unknown workload {workload:?}")),
    }?;
    if traced {
        report::finish_traced(&mut r);
    }
    Ok(r)
}

/// The expected-output lines of one workload for the configured seed
/// and size.
///
/// # Errors
///
/// See [`run`].
pub fn emit_expected(workload: &str, cfg: &Config) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for size in [Size::Full, Size::Tiny] {
        let cfg = Config {
            size,
            ..cfg.clone()
        };
        lines.extend(match workload {
            "spectrum" => spectrum::expected_lines(&cfg),
            "campaign" => campaign::expected_lines(&cfg)?,
            "serve" => serve::expected_lines(&cfg)?,
            _ => return Err(format!("unknown workload {workload:?}")),
        });
    }
    lines.sort();
    lines.dedup();
    Ok(lines)
}

/// Best-effort recursive removal of a scratch directory (and of
/// `.perfbench/` itself once it is empty).
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}
