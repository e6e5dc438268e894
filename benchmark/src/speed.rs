//! Host speed, measured between jobs with a calibration loop that belongs
//! to the benchmark, not to the programs under test.
//!
//! The reference host's speed drifts by up to 2× over tens of seconds
//! (README "Noise and bounds"), so a job's wall time says as much about
//! the host as about the program.  A campaign workload therefore samples
//! this loop between jobs and divides its job times by the run's
//! [`Speed::factor`]: the median sample over the run ÷ [`REFERENCE_S`].
//! A slower program still reads slower, because the loop does not change
//! with the repository's code; a slower host reads about the same.
//!
//! The loop does what a campaign process does to the memory system: it
//! takes fresh pages from the kernel and it walks a table larger than L2
//! with random loads and stores.

use div_sim::stats::median;
use std::time::{Duration, Instant};

/// Threads the loop runs on: the reference host's cores, and the engine
/// threads of every campaign workload.
const THREADS: usize = 2;

/// Table entries per thread: 2 MiB of `u16`, beyond one core's L2, like
/// the sharded workload's graph.
const TABLE: usize = 1 << 20;

/// Walk steps per thread in one sample.
const STEPS: u64 = 800_000;

/// Fresh memory each thread takes and touches, page by page, per sample.
const FRESH_BYTES: usize = 32 << 20;

/// The smallest gap between two samples: the campaign loop samples
/// before a job only once this much time has passed since the last one.
const SAMPLE_EVERY: Duration = Duration::from_millis(500);

/// One sample's seconds at the reference speed: the median measured on
/// the reference host (README "Noise and bounds").  Only ratios between
/// runs matter; this constant keeps the rescaled times close to the ones
/// measured there.
const REFERENCE_S: f64 = 0.035;

/// Calibration samples taken during one run.
#[derive(Debug)]
pub struct Speed {
    tables: Vec<Vec<u16>>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed {
            tables: vec![vec![0; TABLE]; THREADS],
            samples: Vec::new(),
            last: None,
        }
    }
}

impl Speed {
    /// Times one pass of the loop on every thread.
    fn sample(&mut self) {
        let start = Instant::now();
        std::thread::scope(|s| {
            for (k, table) in self.tables.iter_mut().enumerate() {
                s.spawn(move || {
                    touch_fresh_pages();
                    std::hint::black_box(walk(table, k as u64 + 1))
                });
            }
        });
        self.samples.push(start.elapsed().as_secs_f64());
        self.last = Some(Instant::now());
    }

    /// Samples unless the last sample is younger than [`SAMPLE_EVERY`].
    pub fn sample_if_due(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= SAMPLE_EVERY) {
            self.sample();
        }
    }

    /// How much slower than the reference the host ran: the median sample
    /// ÷ [`REFERENCE_S`]; NaN before the first sample.
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            median(&self.samples) / REFERENCE_S
        }
    }

    /// Samples taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// Allocates [`FRESH_BYTES`] and writes one byte per page, so the kernel
/// maps and zeroes every page, then returns the memory.
fn touch_fresh_pages() {
    let mut fresh = vec![0u8; FRESH_BYTES];
    for page in fresh.iter_mut().step_by(4096) {
        *page = 1;
    }
    std::hint::black_box(&fresh);
}

/// A lazy-voting walk over `table`: each step draws two entries with
/// xorshift and moves the first one toward the second, so the loop has
/// the engines' mix of random loads, compares and stores.
fn walk(table: &mut [u16], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let mut s = seed;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let (i, j) = (s as usize & mask, (s >> 32) as usize & mask);
        let (a, b) = (table[i], table[j]);
        match a.cmp(&b) {
            std::cmp::Ordering::Less => table[i] = a + 1,
            std::cmp::Ordering::Greater => table[i] = a - 1,
            std::cmp::Ordering::Equal => table[j] = b.wrapping_add((s >> 60) as u16 & 1),
        }
        acc = acc.wrapping_add(u64::from(a));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_sample_over_the_reference() {
        let mut speed = Speed::default();
        assert!(speed.factor().is_nan());
        speed.samples = vec![3.0 * REFERENCE_S, REFERENCE_S, 2.0 * REFERENCE_S];
        assert!((speed.factor() - 2.0).abs() < 1e-12);
        speed.sample();
        assert_eq!(speed.len(), 4);
        assert!(speed.samples[3] > 0.0);
        // A sample was just taken, so none is due yet.
        speed.sample_if_due();
        assert_eq!(speed.len(), 4);
    }
}
