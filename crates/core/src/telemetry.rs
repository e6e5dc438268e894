//! Structured run telemetry: zero-cost observer hooks for both engines.
//!
//! The paper's convergence claims (Theorem 1's eq. (4) bound, the
//! Lemma 3 martingales, the Azuma tail (5)) are statements about
//! *trajectories*, not terminal states.  This module defines the
//! [`Observer`] hook both stepping engines thread through their run
//! loops — [`crate::DivProcess::run_observed`] samples every step, while
//! [`crate::FastProcess::run_observed`] keeps its block stepping and
//! samples only at stride boundaries, still reporting phase transitions
//! (k opinions → two adjacent → consensus) at their **exact** first-hit
//! steps via the block-snapshot replay.
//!
//! The hook is zero-cost when disabled: [`Observer::ENABLED`] is an
//! associated `const`, so a run instantiated with [`NullObserver`]
//! monomorphises to the unobserved loop — no samples are computed, no
//! branches added (`perf_smoke --check-overhead` enforces this stays
//! under 5%).
//!
//! Built-in observers:
//!
//! * [`RingRecorder`] — a decimating in-memory recorder with bounded
//!   capacity: when full it drops every other sample and doubles its
//!   decimation factor, so an arbitrarily long run is covered by a
//!   bounded, evenly spaced subset of the stride lattice.
//! * [`JsonlExporter`] / [`CsvExporter`] — streaming file export for
//!   offline analysis (`divlab run --telemetry out.jsonl`).
//!
//! Observers compose: a 2-tuple `(A, B)` of observers is itself an
//! observer that forwards every event to both.

use std::io::{self, Write};
use std::time::Duration;

use crate::FaultStats;

/// One sampled point of a DIV trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// The step the sample was taken at (0 = the initial state).
    pub step: u64,
    /// `S(t) = Σ_v X_v` — the edge-process martingale (Lemma 3 (i)).
    pub sum: i64,
    /// `Z(t) = n·Σ_v π_v X_v` — the vertex-process martingale
    /// (Lemma 3 (ii)).
    pub z_weight: f64,
    /// The smallest opinion currently held.
    pub min: i64,
    /// The largest opinion currently held.
    pub max: i64,
    /// The number of distinct opinions currently held.
    pub distinct: usize,
}

impl TelemetrySample {
    /// The live opinion range width `max − min`.
    pub fn width(&self) -> i64 {
        self.max - self.min
    }
}

/// A phase of a DIV trajectory, in the order the paper's analysis
/// traverses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// At most two adjacent opinions remain (the paper's `τ`); from here
    /// the process is exactly two-opinion pull voting.
    TwoAdjacent,
    /// All vertices agree; the state is absorbing (fault-free).
    Consensus,
}

impl Phase {
    /// Stable lower-case label (used by the exporters).
    pub fn label(self) -> &'static str {
        match self {
            Phase::TwoAdjacent => "two-adjacent",
            Phase::Consensus => "consensus",
        }
    }
}

/// A phase transition, located at its exact first-hit step.
///
/// Fault-free runs have monotone phases (the opinion range never
/// expands), so the step is the unique first hit.  Under fault plans the
/// range can re-expand; observed faulty runs report only the *first*
/// entry into each phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Which phase was entered.
    pub phase: Phase,
    /// The exact step at which it was first entered.
    pub step: u64,
}

/// A telemetry sink threaded through an observed run.
///
/// All methods default to no-ops, so an observer implements only what it
/// needs.  [`Observer::ENABLED`] lets the engines compile the hook out
/// entirely: when it is `false` the observed entry points delegate to the
/// unobserved loops and none of the sampling machinery is instantiated.
pub trait Observer {
    /// Whether this observer receives events at all.  [`NullObserver`]
    /// sets this to `false`; everything else should leave the default.
    const ENABLED: bool = true;

    /// The initial state, before any step of this run.
    fn on_start(&mut self, _sample: &TelemetrySample) {}

    /// A stride-boundary sample (strictly increasing steps).
    fn on_sample(&mut self, _sample: &TelemetrySample) {}

    /// A phase transition at its exact first-hit step.
    fn on_phase(&mut self, _event: &PhaseEvent) {}

    /// Cumulative fault-injection counters (faulty runs only, emitted
    /// once just before [`Observer::on_finish`]).
    fn on_faults(&mut self, _stats: &FaultStats) {}

    /// The final state and the wall-clock time the run took.  Emitted
    /// exactly once, on every exit path (stop predicate or step budget).
    fn on_finish(&mut self, _sample: &TelemetrySample, _elapsed: Duration) {}
}

/// The disabled observer: compiles observed runs down to the plain ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;
}

/// Two observers side by side; every event goes to both.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_start(&mut self, sample: &TelemetrySample) {
        self.0.on_start(sample);
        self.1.on_start(sample);
    }

    fn on_sample(&mut self, sample: &TelemetrySample) {
        self.0.on_sample(sample);
        self.1.on_sample(sample);
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        self.0.on_phase(event);
        self.1.on_phase(event);
    }

    fn on_faults(&mut self, stats: &FaultStats) {
        self.0.on_faults(stats);
        self.1.on_faults(stats);
    }

    fn on_finish(&mut self, sample: &TelemetrySample, elapsed: Duration) {
        self.0.on_finish(sample, elapsed);
        self.1.on_finish(sample, elapsed);
    }
}

/// A borrowed observer: lets a batch step watch lanes whose observers
/// live elsewhere (a lane pool keeps each with its trial).
impl<O: Observer> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn on_start(&mut self, sample: &TelemetrySample) {
        (**self).on_start(sample);
    }

    fn on_sample(&mut self, sample: &TelemetrySample) {
        (**self).on_sample(sample);
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        (**self).on_phase(event);
    }

    fn on_faults(&mut self, stats: &FaultStats) {
        (**self).on_faults(stats);
    }

    fn on_finish(&mut self, sample: &TelemetrySample, elapsed: Duration) {
        (**self).on_finish(sample, elapsed);
    }
}

/// An observer that may be absent: `None` drops every event, so trials
/// whose sink could not be opened run beside observed ones under one
/// observer type.
impl<O: Observer> Observer for Option<O> {
    const ENABLED: bool = O::ENABLED;

    fn on_start(&mut self, sample: &TelemetrySample) {
        if let Some(o) = self {
            o.on_start(sample);
        }
    }

    fn on_sample(&mut self, sample: &TelemetrySample) {
        if let Some(o) = self {
            o.on_sample(sample);
        }
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        if let Some(o) = self {
            o.on_phase(event);
        }
    }

    fn on_faults(&mut self, stats: &FaultStats) {
        if let Some(o) = self {
            o.on_faults(stats);
        }
    }

    fn on_finish(&mut self, sample: &TelemetrySample, elapsed: Duration) {
        if let Some(o) = self {
            o.on_finish(sample, elapsed);
        }
    }
}

/// Euclid's gcd, with `gcd(0, x) = x` (used to infer the sample stride).
fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A decimating adaptor: forwards samples on a coarsened lattice.
///
/// The batch and sharded engines naturally offer samples at *their*
/// boundaries (step blocks, reconciliation rounds), which can be far
/// denser than a sink wants to pay for — each forwarded sample costs the
/// sink a write or an `O(P)` combine.  `SampledObserver` infers the
/// engine's step lattice with the same gcd rule as [`RingRecorder`] and
/// forwards only samples whose step lies on the smallest lattice
/// multiple `≥ min_gap` steps, so the sink sees an evenly spaced subset
/// regardless of the engine's internal block size.
///
/// Start, phase, fault and finish events are **never** decimated — exact
/// first-hit phase steps and the final state always reach the sink.
#[derive(Debug, Clone)]
pub struct SampledObserver<O> {
    inner: O,
    min_gap: u64,
    unit: u64,
}

impl<O: Observer> SampledObserver<O> {
    /// Wraps `inner`, forwarding samples at most once per `min_gap`
    /// steps (`0` behaves like `1`: every offered sample forwards).
    pub fn new(inner: O, min_gap: u64) -> Self {
        SampledObserver {
            inner,
            min_gap,
            unit: 0,
        }
    }

    /// A reference to the wrapped sink.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the sink (to e.g. call an exporter's `finish`).
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Observer> Observer for SampledObserver<O> {
    const ENABLED: bool = O::ENABLED;

    fn on_start(&mut self, sample: &TelemetrySample) {
        self.inner.on_start(sample);
    }

    fn on_sample(&mut self, sample: &TelemetrySample) {
        self.unit = gcd(self.unit, sample.step);
        // The forwarding lattice: the smallest multiple of the inferred
        // engine stride that is ≥ min_gap.
        let lattice = if self.unit == 0 {
            0
        } else {
            self.unit * self.min_gap.div_ceil(self.unit).max(1)
        };
        if lattice == 0 || sample.step.is_multiple_of(lattice) {
            self.inner.on_sample(sample);
        }
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        self.inner.on_phase(event);
    }

    fn on_faults(&mut self, stats: &FaultStats) {
        self.inner.on_faults(stats);
    }

    fn on_finish(&mut self, sample: &TelemetrySample, elapsed: Duration) {
        self.inner.on_finish(sample, elapsed);
    }
}

/// A bounded in-memory trajectory recorder with geometric decimation.
///
/// Samples arrive on the engine's stride lattice; the recorder keeps at
/// most `capacity` of them.  When the buffer fills it drops every other
/// retained sample and doubles its internal decimation factor, so the
/// kept steps always lie on the lattice `stride · factor · ℕ` — a run of
/// any length is summarised by an evenly spaced subset plus the exact
/// phase events, which are never decimated.
///
/// # Examples
///
/// ```
/// use div_core::{init, FastProcess, FastRng, FastScheduler, RingRecorder};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = div_graph::generators::complete(60)?;
/// let mut rng = FastRng::seed_from_u64(1);
/// let mut p = FastProcess::new(&g, init::blocks(&[(1, 30), (5, 30)])?, FastScheduler::Edge)?;
/// let mut rec = RingRecorder::new(1024);
/// p.run_observed(10_000_000, &mut rng, 64, &mut rec);
/// assert_eq!(rec.samples()[0].step, 0);
/// assert!(rec.consensus_step().is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RingRecorder {
    capacity: usize,
    factor: u64,
    unit: u64,
    samples: Vec<TelemetrySample>,
    phases: Vec<PhaseEvent>,
    faults: Option<FaultStats>,
    final_sample: Option<TelemetrySample>,
    elapsed: Option<Duration>,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` samples (≥ 2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (decimation needs room to halve).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "capacity must be at least 2");
        RingRecorder {
            capacity,
            factor: 1,
            unit: 0,
            samples: Vec::new(),
            phases: Vec::new(),
            faults: None,
            final_sample: None,
            elapsed: None,
        }
    }

    /// The retained samples, in step order (always starts with step 0's
    /// initial sample when the recorder observed a full run).
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// The recorded phase transitions, in step order.
    pub fn phases(&self) -> &[PhaseEvent] {
        &self.phases
    }

    /// Fault counters, when the observed run was a faulty one.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref()
    }

    /// The final state of the run (set by `on_finish`).
    pub fn final_sample(&self) -> Option<&TelemetrySample> {
        self.final_sample.as_ref()
    }

    /// Wall-clock duration of the observed run.
    pub fn elapsed(&self) -> Option<Duration> {
        self.elapsed
    }

    /// The current decimation factor: retained samples lie on the
    /// lattice `engine stride × this`.
    pub fn decimation_factor(&self) -> u64 {
        self.factor
    }

    /// The exact first step with at most two adjacent opinions, when the
    /// run crossed it.
    pub fn two_adjacent_step(&self) -> Option<u64> {
        self.phases
            .iter()
            .find(|e| e.phase == Phase::TwoAdjacent)
            .map(|e| e.step)
    }

    /// The exact consensus step, when the run reached consensus.
    pub fn consensus_step(&self) -> Option<u64> {
        self.phases
            .iter()
            .find(|e| e.phase == Phase::Consensus)
            .map(|e| e.step)
    }

    /// The largest `|S(t) − S(0)|` over the retained samples (including
    /// the final one) — the excursion bounded by the Azuma tail (5).
    pub fn max_sum_deviation(&self) -> i64 {
        let Some(first) = self.samples.first() else {
            return 0;
        };
        self.samples
            .iter()
            .chain(self.final_sample.iter())
            .map(|s| (s.sum - first.sum).abs())
            .max()
            .unwrap_or(0)
    }

    fn push(&mut self, sample: TelemetrySample) {
        self.samples.push(sample);
        if self.samples.len() >= self.capacity {
            // Decimate: keep even indices.  Retained samples sat on the
            // lattice `stride·factor·ℕ` at positions 0, 1, 2, …, so the
            // survivors sit on `stride·2·factor·ℕ` — still evenly spaced.
            let mut keep = 0usize;
            self.samples.retain(|_| {
                let k = keep.is_multiple_of(2);
                keep += 1;
                k
            });
            self.factor *= 2;
        }
    }
}

impl Observer for RingRecorder {
    fn on_start(&mut self, sample: &TelemetrySample) {
        self.push(*sample);
    }

    fn on_sample(&mut self, sample: &TelemetrySample) {
        // Engines offer samples at consecutive multiples of their stride,
        // so the gcd of offered steps converges to the stride after two
        // offers; gating on the *absolute* step lattice (rather than an
        // offer counter) keeps acceptance aligned with the retained
        // samples across decimations.
        self.unit = gcd(self.unit, sample.step);
        let lattice = self.unit.saturating_mul(self.factor);
        if lattice == 0 || sample.step.is_multiple_of(lattice) {
            self.push(*sample);
        }
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        self.phases.push(*event);
    }

    fn on_faults(&mut self, stats: &FaultStats) {
        self.faults = Some(*stats);
    }

    fn on_finish(&mut self, sample: &TelemetrySample, elapsed: Duration) {
        self.final_sample = Some(*sample);
        self.elapsed = Some(elapsed);
    }
}

/// Streams telemetry events as JSON Lines (one object per line).
///
/// Events carry a `"type"` discriminator: `sample` (also used for the
/// start and finish records, flagged `"final": true` on finish), `phase`
/// and `faults`.  IO errors are latched — the first one stops all
/// subsequent writes and is returned by [`JsonlExporter::finish`].
#[derive(Debug)]
pub struct JsonlExporter<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonlExporter<W> {
    /// Wraps a writer (consider a `BufWriter` for file targets).
    pub fn new(out: W) -> Self {
        JsonlExporter { out, error: None }
    }

    /// Flushes and returns the writer, or the first latched IO error.
    ///
    /// # Errors
    ///
    /// The first IO error hit while writing or flushing.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn write_line(&mut self, mut line: String) {
        if self.error.is_some() {
            return;
        }
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn sample_line(sample: &TelemetrySample, final_marker: bool) -> String {
        format!(
            "{{\"type\":\"sample\",\"step\":{},\"sum\":{},\"z\":{},\"min\":{},\"max\":{},\"distinct\":{}{}}}",
            sample.step,
            sample.sum,
            sample.z_weight,
            sample.min,
            sample.max,
            sample.distinct,
            if final_marker { ",\"final\":true" } else { "" }
        )
    }
}

impl<W: Write> Observer for JsonlExporter<W> {
    fn on_start(&mut self, sample: &TelemetrySample) {
        self.write_line(Self::sample_line(sample, false));
    }

    fn on_sample(&mut self, sample: &TelemetrySample) {
        self.write_line(Self::sample_line(sample, false));
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        self.write_line(format!(
            "{{\"type\":\"phase\",\"phase\":\"{}\",\"step\":{}}}",
            event.phase.label(),
            event.step
        ));
    }

    fn on_faults(&mut self, stats: &FaultStats) {
        self.write_line(format!(
            "{{\"type\":\"faults\",\"delivered\":{},\"dropped\":{},\"suppressed\":{},\"stale\":{},\"noisy\":{},\"crashes\":{}}}",
            stats.delivered,
            stats.dropped,
            stats.suppressed,
            stats.stale_reads,
            stats.noisy,
            stats.crash_events
        ));
    }

    fn on_finish(&mut self, sample: &TelemetrySample, elapsed: Duration) {
        self.write_line(Self::sample_line(sample, true));
        self.write_line(format!(
            "{{\"type\":\"finish\",\"step\":{},\"elapsed_ns\":{}}}",
            sample.step,
            elapsed.as_nanos()
        ));
    }
}

/// Streams the sampled trajectory as CSV.
///
/// The header is `step,sum,z,min,max,distinct,event`; sample rows leave
/// `event` empty, phase rows carry the phase label (and repeat the last
/// sampled aggregates blank).  Fault counters and timings are not
/// representable in the rectangular format — use [`JsonlExporter`] when
/// those matter.
#[derive(Debug)]
pub struct CsvExporter<W: Write> {
    out: W,
    error: Option<io::Error>,
    wrote_header: bool,
}

impl<W: Write> CsvExporter<W> {
    /// Wraps a writer (consider a `BufWriter` for file targets).
    pub fn new(out: W) -> Self {
        CsvExporter {
            out,
            error: None,
            wrote_header: false,
        }
    }

    /// Flushes and returns the writer, or the first latched IO error.
    ///
    /// # Errors
    ///
    /// The first IO error hit while writing or flushing.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn write_line(&mut self, mut line: String) {
        if self.error.is_some() {
            return;
        }
        if !self.wrote_header {
            self.wrote_header = true;
            if let Err(e) = self.out.write_all(b"step,sum,z,min,max,distinct,event\n") {
                self.error = Some(e);
                return;
            }
        }
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn sample_line(&mut self, sample: &TelemetrySample, event: &str) {
        self.write_line(format!(
            "{},{},{},{},{},{},{event}",
            sample.step, sample.sum, sample.z_weight, sample.min, sample.max, sample.distinct
        ));
    }
}

impl<W: Write> Observer for CsvExporter<W> {
    fn on_start(&mut self, sample: &TelemetrySample) {
        self.sample_line(sample, "");
    }

    fn on_sample(&mut self, sample: &TelemetrySample) {
        self.sample_line(sample, "");
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        self.write_line(format!("{},,,,,,{}", event.step, event.phase.label()));
    }

    fn on_finish(&mut self, sample: &TelemetrySample, _elapsed: Duration) {
        self.sample_line(sample, "final");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64, sum: i64) -> TelemetrySample {
        TelemetrySample {
            step,
            sum,
            z_weight: sum as f64,
            min: 0,
            max: 3,
            distinct: 2,
        }
    }

    #[test]
    fn null_observer_is_disabled() {
        const {
            assert!(!NullObserver::ENABLED);
            assert!(RingRecorder::ENABLED);
            assert!(<(NullObserver, RingRecorder) as Observer>::ENABLED);
            assert!(!<(NullObserver, NullObserver) as Observer>::ENABLED);
        }
    }

    #[test]
    fn ring_recorder_decimates_on_overflow() {
        let mut rec = RingRecorder::new(8);
        rec.on_start(&sample(0, 10));
        for i in 1..=64u64 {
            rec.on_sample(&sample(i * 16, 10 + i as i64));
        }
        assert!(rec.samples().len() < 8, "capacity respected");
        assert!(rec.decimation_factor() > 1);
        // Retained steps stay evenly spaced on the decimated lattice.
        let lattice = 16 * rec.decimation_factor();
        for s in rec.samples() {
            assert_eq!(s.step % lattice, 0, "step {} off lattice {lattice}", s.step);
        }
        // Step 0 survives every decimation.
        assert_eq!(rec.samples()[0].step, 0);
    }

    #[test]
    fn ring_recorder_accessors() {
        let mut rec = RingRecorder::new(16);
        rec.on_start(&sample(0, 100));
        rec.on_sample(&sample(64, 103));
        rec.on_phase(&PhaseEvent {
            phase: Phase::TwoAdjacent,
            step: 70,
        });
        rec.on_phase(&PhaseEvent {
            phase: Phase::Consensus,
            step: 90,
        });
        rec.on_finish(&sample(90, 95), Duration::from_millis(1));
        assert_eq!(rec.two_adjacent_step(), Some(70));
        assert_eq!(rec.consensus_step(), Some(90));
        assert_eq!(rec.max_sum_deviation(), 5, "final sample counts");
        assert_eq!(rec.final_sample().unwrap().step, 90);
        assert!(rec.elapsed().is_some());
        assert!(rec.fault_stats().is_none());
        assert_eq!(rec.phases().len(), 2);
    }

    #[test]
    fn sampled_observer_decimates_to_the_requested_gap() {
        let mut obs = SampledObserver::new(RingRecorder::new(4096), 200);
        obs.on_start(&sample(0, 5));
        for i in 1..=64u64 {
            obs.on_sample(&sample(i * 64, 5));
        }
        obs.on_phase(&PhaseEvent {
            phase: Phase::Consensus,
            step: 4101,
        });
        obs.on_finish(&sample(4101, 5), Duration::ZERO);
        // Engine stride 64, min gap 200 → forwarding lattice 256.
        let steps: Vec<u64> = obs.inner().samples().iter().map(|s| s.step).collect();
        let expected: Vec<u64> = (0..=16).map(|i| i * 256).collect();
        assert_eq!(steps, expected);
        // Phase and finish events pass through undecimated.
        assert_eq!(obs.inner().consensus_step(), Some(4101));
        let rec = obs.into_inner();
        assert_eq!(rec.final_sample().unwrap().step, 4101);
    }

    #[test]
    fn sampled_observer_zero_gap_forwards_everything() {
        let mut obs = SampledObserver::new(RingRecorder::new(4096), 0);
        obs.on_start(&sample(0, 1));
        for i in 1..=10u64 {
            obs.on_sample(&sample(i * 8192, 1));
        }
        assert_eq!(obs.inner().samples().len(), 11);
        const {
            assert!(!<SampledObserver<NullObserver> as Observer>::ENABLED);
            assert!(<SampledObserver<RingRecorder> as Observer>::ENABLED);
        }
    }

    #[test]
    fn empty_recorder_deviation_is_zero() {
        assert_eq!(RingRecorder::new(4).max_sum_deviation(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 2")]
    fn tiny_capacity_rejected() {
        let _ = RingRecorder::new(1);
    }

    #[test]
    fn jsonl_exporter_emits_typed_lines() {
        let mut ex = JsonlExporter::new(Vec::new());
        ex.on_start(&sample(0, 7));
        ex.on_sample(&sample(64, 8));
        ex.on_phase(&PhaseEvent {
            phase: Phase::Consensus,
            step: 80,
        });
        ex.on_faults(&FaultStats::default());
        ex.on_finish(&sample(80, 8), Duration::from_nanos(1234));
        let text = String::from_utf8(ex.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"type\":\"sample\"") && lines[0].contains("\"step\":0"));
        assert!(lines[2].contains("\"phase\":\"consensus\""));
        assert!(lines[3].contains("\"type\":\"faults\""));
        assert!(lines[4].contains("\"final\":true"));
        assert!(lines[5].contains("\"elapsed_ns\":1234"));
        assert!(text.contains("\"final\":true"));
    }

    #[test]
    fn csv_exporter_emits_header_and_rows() {
        let mut ex = CsvExporter::new(Vec::new());
        ex.on_start(&sample(0, 7));
        ex.on_phase(&PhaseEvent {
            phase: Phase::TwoAdjacent,
            step: 9,
        });
        ex.on_finish(&sample(12, 8), Duration::ZERO);
        let text = String::from_utf8(ex.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "step,sum,z,min,max,distinct,event");
        assert!(lines[1].starts_with("0,7,"));
        assert!(lines[2].ends_with(",two-adjacent"));
        assert!(lines[3].ends_with(",final"));
    }

    /// A writer that fails after the first write, to exercise latching.
    #[derive(Debug)]
    struct FailAfterOne {
        writes: usize,
    }

    impl Write for FailAfterOne {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.writes > 1 {
                Err(io::Error::other("disk full"))
            } else {
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn exporter_latches_first_io_error() {
        let mut ex = JsonlExporter::new(FailAfterOne { writes: 0 });
        ex.on_start(&sample(0, 1));
        ex.on_sample(&sample(64, 2)); // fails
        ex.on_sample(&sample(128, 3)); // silently skipped
        let err = ex.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    /// A writer with an N-byte capacity: the write that crosses it fails,
    /// modelling a disk filling up mid-export.
    #[derive(Debug)]
    struct FailAfterBytes {
        written: usize,
        capacity: usize,
    }

    impl Write for FailAfterBytes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() > self.capacity {
                Err(io::Error::new(io::ErrorKind::StorageFull, "no space left"))
            } else {
                self.written += buf.len();
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn byte_capacity_overflow_is_latched_and_surfaced_by_finish() {
        for capacity in [0usize, 10, 60, 120] {
            let mut ex = JsonlExporter::new(FailAfterBytes {
                written: 0,
                capacity,
            });
            for i in 0..8u64 {
                ex.on_sample(&sample(i * 64, i as i64));
            }
            // Eight sample lines always overflow these capacities; the
            // first failing write must be the one finish() reports.
            let err = ex.finish().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "cap {capacity}");
            assert_eq!(err.to_string(), "no space left");
        }
        // Under a large enough capacity everything fits and finish is Ok.
        let mut ex = CsvExporter::new(FailAfterBytes {
            written: 0,
            capacity: 4096,
        });
        ex.on_start(&sample(0, 1));
        assert!(ex.finish().is_ok());
    }
}
