//! Machine-speed calibration.
//!
//! The boxes the benchmark runs on are shared, and the speed of their
//! memory system swings with the neighbours' load: over ten-second
//! windows the same paper-suite pass took from 30 to 47 ms within a few
//! minutes, while a register-only loop kept its speed to within 5% and
//! thread CPU time tracked wall time. Neither CPU time nor longer runs
//! take such a swing out. A [`Calib`] therefore runs a fixed reference
//! kernel between the program's operations and records how long each
//! run of it took. A time measured in the run is reported at the
//! reference speed: multiplied by [`REF_MS`] over the run's median
//! kernel time. One factor per run, from a median over 120 to 240
//! samples, is steadier than a factor per operation from the samples
//! nearest it: single samples move with the cache state the preceding
//! operation left behind.
//!
//! The kernel mixes two kinds of work the analyses do, in about equal
//! shares of its time: hash-map inserts and a sort. Measured over those
//! windows on a 2-vCPU VM, the paper-suite pass time over this mix kept
//! a quartile spread of 4%, against 28% unscaled. The kernel touches
//! only buffers it allocated up front, so nothing the program does to
//! the heap changes its cost, and the program's own speed-ups and
//! slow-downs pass through the scaling unchanged. (Dependent loads over
//! a large table tracked the scaling programs a little better, but
//! their speed depended on whether the process got huge pages; small
//! allocations into a B-tree map tracked as well as the sort, but their
//! speed followed the state of the program's heap. Both differed from
//! run to run.)

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference kernel time in milliseconds: a round figure within
/// the kernel's run medians (0.5 to 1.5 ms) on the 2-vCPU VM the
/// benchmark was written on. The kernel runs in whatever cache state a
/// workload leaves behind, so scaled times are meant for comparing runs
/// of one workload.
pub const REF_MS: f64 = 1.0;

/// Least time between two samples taken by [`Calib::tick`].
const GAP: Duration = Duration::from_millis(50);

const KEYS: usize = 16_384;

/// The reference kernel and its samples.
pub struct Calib {
    keys: Vec<u64>,
    map: HashMap<u64, u32>,
    /// Kernel times in ms.
    samples: Vec<f64>,
    /// End of the last sample.
    last: Option<Instant>,
    /// Whether [`Calib::sample`] runs the kernel at all.
    active: bool,
}

impl Default for Calib {
    fn default() -> Self {
        Self::new()
    }
}

impl Calib {
    /// Allocates the kernel's buffers and runs it twice untimed.
    pub fn new() -> Calib {
        let mut c = Calib {
            keys: vec![0; KEYS],
            map: HashMap::with_capacity(KEYS),
            samples: Vec::new(),
            last: None,
            active: true,
        };
        for _ in 0..2 {
            black_box(c.kernel());
        }
        c
    }

    /// A calibration that never samples, for passes whose times are not
    /// reported end to end, or are timed as a whole with their ticks
    /// inside; its scale is 1.
    pub fn idle() -> Calib {
        Calib {
            keys: Vec::new(),
            map: HashMap::new(),
            samples: Vec::new(),
            last: None,
            active: false,
        }
    }

    fn kernel(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.map.clear();
        for _ in 0..KEYS {
            *self.map.entry(next() & 0xffff).or_insert(0) += 1;
        }
        for k in self.keys.iter_mut() {
            *k = next();
        }
        self.keys.sort_unstable();
        self.keys[KEYS / 2] ^ self.map.len() as u64
    }

    /// Runs the kernel once and records its time.
    pub fn sample(&mut self) {
        if !self.active {
            return;
        }
        let t = Instant::now();
        black_box(self.kernel());
        let end = Instant::now();
        self.samples.push((end - t).as_secs_f64() * 1e3);
        self.last = Some(end);
    }

    /// Samples when at least [`GAP`] has passed since the last sample;
    /// called between operations, it costs about 2% of the run.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|end| end.elapsed() >= GAP) {
            self.sample();
        }
    }

    /// Samples taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Median kernel time over all samples, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Factor that brings a time measured in this run to the reference
    /// speed: [`REF_MS`] over the median kernel time; 1 when there are
    /// no samples.
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REF_MS / self.median_ms()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_is_the_reference_over_the_median_sample() {
        let mut c = Calib::new();
        assert_eq!(c.scale(), 1.0);
        for _ in 0..5 {
            c.sample();
        }
        assert_eq!(c.len(), 5);
        assert!(c.scale() > 0.0 && c.scale().is_finite());
        c.samples = vec![2.0, 0.5, 4.0];
        assert_eq!(c.scale(), REF_MS / 2.0);
        // `tick` samples at most once per `GAP`.
        c.last = None;
        c.tick();
        c.tick();
        assert_eq!(c.len(), 4);
        let mut idle = Calib::idle();
        idle.sample();
        idle.tick();
        assert!(idle.is_empty());
        assert_eq!(idle.scale(), 1.0);
    }
}
