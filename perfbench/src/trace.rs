//! In-memory spans and work counters, recorded by the benchmark around
//! its own calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Root spans (`op`) and idle spans
//! are recorded in both modes, so an untraced pass still knows how much
//! time its operations took; layer spans (`span`) are recorded only when
//! the tracer is detailed. A span's self time is its duration minus the
//! durations of its direct children. [`Profile`] folds the spans of one
//! or more tracers into per-layer self times.
//!
//! Probe spans handle a layer that a public call runs internally:
//! `checker::run_checks` runs the race checker itself, so the benchmark
//! re-runs `checker::race::check_races` on the same inputs as a probe
//! directly under the `checker` span. The probe's time is moved out of
//! its parent's self time into its own layer and removed from the
//! accounted time, so the probe never inflates the traced totals.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the spans that mark time a connection spent waiting on its
/// own schedule (an open-loop generator between due times).
pub const IDLE: &str = "idle";

/// What one tracer recorded: its spans and its counters.
pub type Recorded = (Vec<Span>, BTreeMap<String, u64>);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`alias.cs`, `vdg`, ...), or `bench.*` for roots.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The root operation this span belongs to.
    pub op: u64,
    /// Whether this is a probe span (see the module docs).
    pub probe: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
    counters: BTreeMap<String, u64>,
}

/// A per-thread span and counter recorder.
pub struct Tracer {
    detailed: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer; `detailed` turns on layer spans.
    pub fn new(detailed: bool) -> Tracer {
        Tracer {
            detailed,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Whether layer spans are recorded.
    pub fn detailed(&self) -> bool {
        self.detailed
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(&self, name: &'static str, probe: bool, new_op: bool) -> usize {
        let start_ns = self.ns(Instant::now());
        let mut g = self.inner.borrow_mut();
        let parent = g.stack.last().copied();
        let op = match parent {
            Some(p) if !new_op => g.spans[p].op,
            _ => {
                g.next_op += 1;
                g.next_op
            }
        };
        let idx = g.spans.len();
        g.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            probe,
        });
        g.stack.push(idx);
        idx
    }

    fn close(&self, idx: usize) {
        let end_ns = self.ns(Instant::now());
        let mut g = self.inner.borrow_mut();
        let top = g.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
        g.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` as one root operation (recorded in both modes).
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name, false, true);
        let r = f();
        self.close(idx);
        r
    }

    /// Runs `f` inside a layer span (recorded when detailed).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.detailed {
            return f();
        }
        let idx = self.open(name, false, false);
        let r = f();
        self.close(idx);
        r
    }

    /// Runs `f` as a probe span (recorded when detailed; skipped
    /// entirely otherwise, so untraced runs never pay for probes).
    pub fn probe(&self, name: &'static str, f: impl FnOnce()) {
        if !self.detailed {
            return;
        }
        let idx = self.open(name, true, false);
        f();
        self.close(idx);
    }

    /// Runs `f` inside a layer span and also returns the span's index,
    /// for [`Tracer::record`] (`None` when not detailed).
    pub fn span_indexed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        if !self.detailed {
            return (f(), None);
        }
        let idx = self.open(name, false, false);
        let r = f();
        self.close(idx);
        (r, Some(idx))
    }

    /// Records a span whose interval was measured elsewhere (a stage
    /// time the program reports about itself) under span `parent`;
    /// returns its index.
    pub fn record(&self, name: &'static str, parent: usize, start_ns: u64, end_ns: u64) -> usize {
        let mut g = self.inner.borrow_mut();
        let op = g.spans[parent].op;
        let idx = g.spans.len();
        g.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
            probe: false,
        });
        idx
    }

    /// Start and end of a recorded span, nanoseconds since the epoch.
    pub fn bounds(&self, idx: usize) -> (u64, u64) {
        let g = self.inner.borrow();
        (g.spans[idx].start_ns, g.spans[idx].end_ns)
    }

    /// Sleeps until `until`, recording the wait as an idle span.
    pub fn idle_until(&self, until: Instant) {
        let now = Instant::now();
        if until <= now {
            return;
        }
        let idx = self.open(IDLE, false, true);
        std::thread::sleep(until - now);
        self.close(idx);
    }

    /// Adds `v` to the named exact work counter (both modes).
    pub fn count(&self, name: &str, v: u64) {
        let mut g = self.inner.borrow_mut();
        *g.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// The recorded spans and counters.
    pub fn finish(self) -> Recorded {
        let g = self.inner.into_inner();
        debug_assert!(g.stack.is_empty(), "unclosed span");
        (g.spans, g.counters)
    }
}

/// Per-layer self times folded from one pass's tracers.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Self time per layer name, nanoseconds (roots and idle excluded).
    pub layer_self_ns: BTreeMap<&'static str, i128>,
    /// Self time of the root spans: benchmark glue between layer calls.
    pub root_self_ns: i128,
    /// Accounted time: root durations minus probe durations.
    pub accounted_ns: i128,
    /// Every span's duration per name, for percentiles.
    pub durations_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Exact counters, summed over tracers.
    pub counters: BTreeMap<String, u64>,
    /// Spans folded.
    pub spans: usize,
}

impl Profile {
    /// Folds the output of one or more tracers (one per thread).
    pub fn fold(parts: Vec<Recorded>) -> Profile {
        let mut p = Profile::default();
        for (spans, counters) in parts {
            for (k, v) in counters {
                *p.counters.entry(k).or_insert(0) += v;
            }
            p.spans += spans.len();
            let mut self_ns: Vec<i128> = spans.iter().map(|s| s.dur_ns() as i128).collect();
            for s in &spans {
                if let Some(parent) = s.parent {
                    self_ns[parent] -= s.dur_ns() as i128;
                }
            }
            for (i, s) in spans.iter().enumerate() {
                p.durations_ns.entry(s.name).or_default().push(s.dur_ns());
                if s.name == IDLE {
                    continue;
                }
                if s.probe {
                    // Move the probe's time out of its parent's self time
                    // and out of the accounted total.
                    if let Some(parent) = s.parent {
                        *p.layer_self_ns.entry(spans[parent].name).or_insert(0) -=
                            s.dur_ns() as i128;
                    }
                    p.accounted_ns -= s.dur_ns() as i128;
                }
                if s.parent.is_none() {
                    p.root_self_ns += self_ns[i];
                    p.accounted_ns += s.dur_ns() as i128;
                } else {
                    *p.layer_self_ns.entry(s.name).or_insert(0) += self_ns[i];
                }
            }
        }
        p
    }

    /// Sum of every layer's self time, nanoseconds.
    pub fn layers_total_ns(&self) -> i128 {
        self.layer_self_ns.values().sum()
    }

    /// One layer's self time in milliseconds (0 when it never ran).
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// One counter (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Most spans [`write_spans`] writes; the rest are counted in a final
/// line.
const MAX_WRITTEN: usize = 50_000;

/// Writes spans as JSON lines, one per span: `{"thread", "name",
/// "start_ns", "end_ns", "parent", "op", "probe"}`. `thread` indexes
/// `parts` (one tracer per thread); `parent` indexes that thread's spans.
///
/// # Errors
///
/// Propagates the write error.
pub fn write_spans(path: &std::path::Path, parts: &[Recorded]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    let mut skipped = 0;
    for (thread, (spans, _)) in parts.iter().enumerate() {
        for s in spans {
            if written == MAX_WRITTEN {
                skipped += 1;
                continue;
            }
            written += 1;
            writeln!(
                w,
                "{{\"thread\": {thread}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}, \"probe\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.probe
            )?;
        }
    }
    if skipped > 0 {
        writeln!(w, "{{\"skipped\": {skipped}}}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_probes() {
        let t = Tracer::new(true);
        t.op("bench.op", || {
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                t.span("b", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                t.probe("p", || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
            });
        });
        t.count("c", 3);
        let p = Profile::fold(vec![t.finish()]);
        assert_eq!(p.counter("c"), 3);
        assert_eq!(p.spans, 4);
        // Layers plus root self account for the accounted time exactly.
        assert_eq!(p.layers_total_ns() + p.root_self_ns, p.accounted_ns);
        assert!(p.self_ms("b") >= 2.0);
        assert!(p.self_ms("p") >= 1.0);
    }

    #[test]
    fn untraced_tracer_keeps_roots_and_counters_only() {
        let t = Tracer::new(false);
        t.op("bench.op", || t.span("a", || ()));
        t.count("c", 1);
        let p = Profile::fold(vec![t.finish()]);
        assert_eq!(p.spans, 1);
        assert!(p.layer_self_ns.is_empty());
        assert_eq!(p.counter("c"), 1);
    }
}
