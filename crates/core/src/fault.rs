//! Fault injection: a composable adversary model for DIV runs.
//!
//! A [`FaultPlan`] describes which faults a run is subjected to; a
//! [`FaultSession`] is the per-run mutable state (crash timers, stale
//! snapshots, counters) derived from a plan.  The same session type plugs
//! into both the observable reference process
//! ([`crate::DivProcess::step_faulty`]) and the high-throughput engine
//! ([`crate::FastProcess::step_faulty`]), so fault campaigns run at engine
//! speed while the reference implementation stays the oracle.
//!
//! # Fault taxonomy
//!
//! * **Message drop** (`drop:Q`) — each interaction is lost independently
//!   with probability `Q`; the updater keeps its opinion, the clock still
//!   advances.  Drops are an unbiased thinning of the schedule, so the
//!   winner law is invariant and only time dilates by `1/(1−Q)`
//!   ([`FaultPlan::drop_only`] builds a plan with this fault alone).
//! * **Observation noise** (`noise:P:D`) — with probability `P` the read
//!   value is perturbed by `±D` (sign uniform), then clamped to the
//!   initial opinion span (a bounded-sensor model; the clamp keeps the
//!   state space finite, matching DIV's non-expanding range).
//! * **Stale reads** (`stale:P:AGE`) — with probability `P` the updater
//!   observes the neighbour's opinion from a snapshot at most `AGE` steps
//!   old (the snapshot refreshes whenever it ages out), modelling cached
//!   or delayed gossip.
//! * **Stubborn vertices** (`stubborn:K`) — vertices `0..K` never update
//!   (Byzantine-lite: they keep broadcasting their initial value).  A
//!   stubborn bloc breaks the martingale and biases the consensus toward
//!   its value.
//! * **Crash–recover** (`crash:P:OUTAGE`) — whenever a vertex is selected
//!   to update, with probability `P` it crashes for the next `OUTAGE`
//!   steps: while crashed it neither updates nor answers reads (observing
//!   a crashed vertex counts as a drop).
//!
//! # Which faults keep the range
//!
//! A delivered DIV step moves the updater one unit toward a *live*
//! opinion, so the live range `[min, max]` can only shrink.  Drop and
//! stubborn faults merely delete steps from the schedule: they keep that
//! invariant, so "range width ≤ w" stays monotone and the fast engine
//! runs such plans on its block engine (bare thinned toward-steps, one
//! min/max scan per block, an exact rewind to the first hit).  Noise and
//! stale reads deliver values that need not be live, so they can
//! re-expand the range; crash–recover keeps it but its timers depend on
//! the step.  Plans with any of those three step one at a time.
//!
//! # Determinism
//!
//! A session consumes randomness from the *caller's* RNG in a fixed,
//! documented order (see [`FaultSession::filter`]), and decision draws are
//! only taken for faults that are actually enabled.  Hence the same seed
//! and the same plan always yield the same trajectory, and a trivial plan
//! consumes no randomness at all — a faulty run with [`FaultPlan::none`]
//! is RNG-for-RNG identical to a fault-free run.

use rand::Rng;

use crate::DivError;

/// Observation noise: with probability `prob` the read value is perturbed
/// by `±magnitude` (sign uniform) and clamped to the initial span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseFault {
    /// Per-delivered-read perturbation probability, in `[0, 1]`.
    pub prob: f64,
    /// Perturbation magnitude (≥ 1).
    pub magnitude: i64,
}

/// Stale reads: with probability `prob` the updater observes a snapshot of
/// bounded age instead of the live opinion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleFault {
    /// Per-delivered-read staleness probability, in `[0, 1]`.
    pub prob: f64,
    /// Maximum snapshot age in steps (≥ 1); the snapshot refreshes when it
    /// ages out.
    pub age: u64,
}

/// Crash–recover faults: an updating vertex crashes with probability
/// `prob` and stays silent for `outage` steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFault {
    /// Per-selection crash probability, in `[0, 1]`.
    pub prob: f64,
    /// Silence duration in steps (≥ 1).
    pub outage: u64,
}

/// A declarative fault model for a DIV run; see the module docs for the
/// taxonomy.
///
/// # Examples
///
/// ```
/// use div_core::FaultPlan;
///
/// let plan = FaultPlan::parse("drop:0.1,noise:0.05:1,stubborn:3").unwrap();
/// assert!((plan.drop - 0.1).abs() < 1e-12);
/// assert_eq!(plan.stubborn, 3);
/// assert!(!plan.is_trivial());
/// assert!(FaultPlan::none().is_trivial());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-interaction message-drop probability, in `[0, 1)`.
    pub drop: f64,
    /// Observation noise, if enabled.
    pub noise: Option<NoiseFault>,
    /// Stale reads, if enabled.
    pub stale: Option<StaleFault>,
    /// Number of stubborn vertices (vertices `0..stubborn` never update).
    pub stubborn: usize,
    /// Crash–recover faults, if enabled.
    pub crash: Option<CrashFault>,
}

impl FaultPlan {
    /// The empty plan: no faults, no randomness consumed.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A drop-only plan: each interaction is lost with probability
    /// `drop`, nothing else is injected.
    ///
    /// # Errors
    ///
    /// Returns [`DivError::InvalidFault`] unless `drop ∈ [0, 1)`.
    pub fn drop_only(drop: f64) -> Result<Self, DivError> {
        let plan = FaultPlan {
            drop,
            ..FaultPlan::default()
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Whether the plan injects no faults at all.
    pub fn is_trivial(&self) -> bool {
        self.drop == 0.0
            && self.noise.is_none()
            && self.stale.is_none()
            && self.stubborn == 0
            && self.crash.is_none()
    }

    /// Whether every fault in the plan only deletes steps (drop and
    /// stubborn), so the live opinion range never re-expands and the
    /// per-step work needs no step clock (see the module docs).
    pub(crate) fn preserves_range(&self) -> bool {
        self.noise.is_none() && self.stale.is_none() && self.crash.is_none()
    }

    /// The drop draw as an integer compare: for any word `x`,
    /// `(x >> 11) < drop_threshold()` exactly when the `f64` that
    /// [`FaultSession::filter`] draws from `x` (`(x >> 11)·2⁻⁵³`) is below
    /// `drop`.  Scaling by `2⁵³` is exact, so the threshold is
    /// `⌈drop·2⁵³⌉`, and it is 0 exactly when `drop` is 0.
    pub(crate) fn drop_threshold(&self) -> u64 {
        (self.drop * (1u64 << 53) as f64).ceil() as u64
    }

    /// Parses a comma-separated fault spec, e.g.
    /// `drop:0.1,noise:0.05:1,stale:0.2:64,stubborn:3,crash:0.001:500`.
    /// The literal `none` denotes the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown clauses, wrong arity,
    /// duplicate clauses, or out-of-range parameters.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        if spec == "none" {
            return Ok(plan);
        }
        let bad = |msg: String| format!("bad fault spec {spec:?}: {msg}");
        let prob = |s: &str| -> Result<f64, String> {
            s.parse::<f64>()
                .map_err(|_| bad(format!("expected a probability, got {s:?}")))
        };
        let int = |s: &str| -> Result<u64, String> {
            s.parse::<u64>()
                .map_err(|_| bad(format!("expected an integer, got {s:?}")))
        };
        let mut seen: Vec<&str> = Vec::new();
        for clause in spec.split(',') {
            let parts: Vec<&str> = clause.split(':').collect();
            let kind = parts[0];
            if seen.contains(&kind) {
                return Err(bad(format!("duplicate clause {kind:?}")));
            }
            seen.push(kind);
            match (kind, parts.len()) {
                ("drop", 2) => plan.drop = prob(parts[1])?,
                ("noise", 3) => {
                    let magnitude = int(parts[2])?;
                    plan.noise = Some(NoiseFault {
                        prob: prob(parts[1])?,
                        magnitude: i64::try_from(magnitude).map_err(|_| {
                            bad(format!(
                                "noise magnitude must be at most {}, got {magnitude}",
                                i64::MAX
                            ))
                        })?,
                    })
                }
                ("stale", 3) => {
                    plan.stale = Some(StaleFault {
                        prob: prob(parts[1])?,
                        age: int(parts[2])?,
                    })
                }
                ("stubborn", 2) => plan.stubborn = int(parts[1])? as usize,
                ("crash", 3) => {
                    plan.crash = Some(CrashFault {
                        prob: prob(parts[1])?,
                        outage: int(parts[2])?,
                    })
                }
                _ => {
                    return Err(bad(format!(
                        "unknown clause {clause:?} (use drop:Q noise:P:D stale:P:AGE stubborn:K crash:P:OUTAGE)"
                    )))
                }
            }
        }
        plan.validate().map_err(|e| bad(e.to_string()))?;
        Ok(plan)
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DivError::InvalidFault`] for probabilities outside their
    /// ranges or zero magnitudes/ages/outages.
    pub fn validate(&self) -> Result<(), DivError> {
        if !(0.0..1.0).contains(&self.drop) {
            return Err(DivError::invalid_fault(format!(
                "drop probability must be in [0, 1), got {}",
                self.drop
            )));
        }
        if let Some(n) = &self.noise {
            if !(0.0..=1.0).contains(&n.prob) || !n.prob.is_finite() {
                return Err(DivError::invalid_fault(format!(
                    "noise probability must be in [0, 1], got {}",
                    n.prob
                )));
            }
            if n.magnitude < 1 {
                return Err(DivError::invalid_fault(format!(
                    "noise magnitude must be >= 1, got {}",
                    n.magnitude
                )));
            }
        }
        if let Some(s) = &self.stale {
            if !(0.0..=1.0).contains(&s.prob) || !s.prob.is_finite() {
                return Err(DivError::invalid_fault(format!(
                    "stale probability must be in [0, 1], got {}",
                    s.prob
                )));
            }
            if s.age == 0 {
                return Err(DivError::invalid_fault(
                    "stale age must be >= 1".to_string(),
                ));
            }
        }
        if let Some(c) = &self.crash {
            if !(0.0..=1.0).contains(&c.prob) || !c.prob.is_finite() {
                return Err(DivError::invalid_fault(format!(
                    "crash probability must be in [0, 1], got {}",
                    c.prob
                )));
            }
            if c.outage == 0 {
                return Err(DivError::invalid_fault(
                    "crash outage must be >= 1".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Builds the per-run mutable [`FaultSession`] for a process starting
    /// from `initial_opinions`.
    ///
    /// # Errors
    ///
    /// Returns [`DivError::InvalidFault`] if the plan is invalid, the
    /// opinion vector is empty, or `stubborn` exceeds the vertex count.
    pub fn session(&self, initial_opinions: &[i64]) -> Result<FaultSession, DivError> {
        self.validate()?;
        if initial_opinions.is_empty() {
            return Err(DivError::invalid_fault(
                "fault session needs a non-empty opinion vector".to_string(),
            ));
        }
        if self.stubborn > initial_opinions.len() {
            return Err(DivError::invalid_fault(format!(
                "{} stubborn vertices exceed the {} vertices present",
                self.stubborn,
                initial_opinions.len()
            )));
        }
        let clamp_lo = *initial_opinions.iter().min().expect("non-empty");
        let clamp_hi = *initial_opinions.iter().max().expect("non-empty");
        Ok(FaultSession {
            plan: self.clone(),
            crash_until: vec![0; initial_opinions.len()],
            snapshot: initial_opinions.to_vec(),
            snapshot_step: 0,
            clamp_lo,
            clamp_hi,
            stats: FaultStats::default(),
        })
    }
}

/// Counters recording what a [`FaultSession`] did to a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Interactions delivered (possibly noisy or stale).
    pub delivered: u64,
    /// Interactions lost to message drop or a crashed neighbour.
    pub dropped: u64,
    /// Interactions suppressed because the updater was stubborn or down.
    pub suppressed: u64,
    /// Crash events triggered.
    pub crash_events: u64,
    /// Delivered reads answered from the stale snapshot.
    pub stale_reads: u64,
    /// Delivered reads perturbed by noise.
    pub noisy: u64,
}

/// Per-run fault state derived from a [`FaultPlan`]; plug into
/// [`crate::DivProcess::step_faulty`] or [`crate::FastProcess::step_faulty`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSession {
    plan: FaultPlan,
    /// `crash_until[v] > step` means `v` is down at `step`.
    crash_until: Vec<u64>,
    snapshot: Vec<i64>,
    snapshot_step: u64,
    clamp_lo: i64,
    clamp_hi: i64,
    stats: FaultStats,
}

impl FaultSession {
    /// The plan this session was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Whether vertex `v` is stubborn under this plan.
    pub fn is_stubborn(&self, v: usize) -> bool {
        v < self.plan.stubborn
    }

    /// Books `steps` interactions filtered outside [`FaultSession::filter`]
    /// (the thinned block engine of a range-preserving plan), of which
    /// `dropped` were lost and `suppressed` had a stubborn updater.
    pub(crate) fn record_thinned(&mut self, steps: u64, dropped: u64, suppressed: u64) {
        self.stats.dropped += dropped;
        self.stats.suppressed += suppressed;
        self.stats.delivered += steps - dropped - suppressed;
    }

    /// Filters one interaction at clock `step` where `v` observes `w`:
    /// returns `Some(effective observed opinion)` when the interaction is
    /// delivered, `None` when the step must be a no-op.  `current(u)` must
    /// report vertex `u`'s live opinion (used for the read and for stale
    /// snapshot refreshes).
    ///
    /// RNG draws happen in a fixed order, and only for enabled faults:
    /// drop (one `f64`), crash trigger (one `f64`), stale (one `f64`),
    /// noise (one `f64` + one sign draw when it fires).  Stubborn and
    /// already-crashed checks consume no randomness.
    pub fn filter<R, L>(
        &mut self,
        step: u64,
        v: usize,
        w: usize,
        current: L,
        rng: &mut R,
    ) -> Option<i64>
    where
        R: Rng + ?Sized,
        L: Fn(usize) -> i64,
    {
        // 1. A stubborn updater never moves (no randomness consumed).
        if self.is_stubborn(v) {
            self.stats.suppressed += 1;
            return None;
        }
        if let Some(c) = self.plan.crash {
            // 2. A crashed updater is silent.
            if self.crash_until[v] > step {
                self.stats.suppressed += 1;
                return None;
            }
            // 3. Reading a crashed neighbour: the message is lost.
            if self.crash_until[w] > step {
                self.stats.dropped += 1;
                return None;
            }
            let _ = c;
        }
        // 4. Plain message loss.
        if self.plan.drop > 0.0 && rng.gen::<f64>() < self.plan.drop {
            self.stats.dropped += 1;
            return None;
        }
        // 5. The updater may crash mid-read, losing this interaction too.
        if let Some(c) = self.plan.crash {
            if c.prob > 0.0 && rng.gen::<f64>() < c.prob {
                self.crash_until[v] = step.saturating_add(c.outage);
                self.stats.crash_events += 1;
                return None;
            }
        }
        // 6. The delivered value: live, stale, then possibly noisy.
        let mut x = current(w);
        if let Some(s) = self.plan.stale {
            if step.saturating_sub(self.snapshot_step) >= s.age {
                for (u, slot) in self.snapshot.iter_mut().enumerate() {
                    *slot = current(u);
                }
                self.snapshot_step = step;
            }
            if s.prob > 0.0 && rng.gen::<f64>() < s.prob {
                x = self.snapshot[w];
                self.stats.stale_reads += 1;
            }
        }
        if let Some(n) = self.plan.noise {
            if n.prob > 0.0 && rng.gen::<f64>() < n.prob {
                let sign = if rng.gen_range(0..2u32) == 0 { 1 } else { -1 };
                // Saturating: a magnitude near `i64::MAX` lands on the
                // clamp on the side of its sign instead of wrapping.
                x = x
                    .saturating_add(sign * n.magnitude)
                    .clamp(self.clamp_lo, self.clamp_hi);
                self.stats.noisy += 1;
            }
        }
        self.stats.delivered += 1;
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, DivProcess, EdgeScheduler};
    use div_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parse_full_spec() {
        let plan =
            FaultPlan::parse("drop:0.1,noise:0.05:2,stale:0.2:64,stubborn:3,crash:0.001:500")
                .unwrap();
        assert!((plan.drop - 0.1).abs() < 1e-12);
        let n = plan.noise.unwrap();
        assert!((n.prob - 0.05).abs() < 1e-12);
        assert_eq!(n.magnitude, 2);
        let s = plan.stale.unwrap();
        assert!((s.prob - 0.2).abs() < 1e-12);
        assert_eq!(s.age, 64);
        assert_eq!(plan.stubborn, 3);
        let c = plan.crash.unwrap();
        assert!((c.prob - 0.001).abs() < 1e-12);
        assert_eq!(c.outage, 500);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for spec in [
            "drop",
            "drop:x",
            "drop:1.0",
            "drop:-0.1",
            "noise:0.5",
            "noise:0.5:0",
            "noise:1.5:1",
            "stale:0.5:0",
            "crash:0.5:0",
            "stubborn:x",
            "wibble:1",
            "drop:0.1,drop:0.2",
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "spec {spec:?} accepted");
        }
        assert!(FaultPlan::parse("none").unwrap().is_trivial());
        // The typed constructor enforces the same `[0, 1)` drop range.
        for q in [1.0, -0.1, f64::NAN] {
            assert!(FaultPlan::drop_only(q).is_err(), "drop {q} accepted");
        }
        assert!(FaultPlan::drop_only(0.0).unwrap().is_trivial());
    }

    #[test]
    fn session_validates_inputs() {
        let plan = FaultPlan::parse("stubborn:5").unwrap();
        assert!(plan.session(&[1, 2, 3]).is_err());
        assert!(plan.session(&[1; 5]).is_ok());
        assert!(FaultPlan::none().session(&[]).is_err());
    }

    #[test]
    fn trivial_plan_consumes_no_randomness() {
        let mut session = FaultPlan::none().session(&[1, 2, 3, 4]).unwrap();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for step in 1..200u64 {
            let x = session.filter(step, 0, 1, |u| u as i64, &mut a);
            assert_eq!(x, Some(1));
        }
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64(), "no draw may have been taken");
        assert_eq!(session.stats().delivered, 199);

        // So a zero-drop run replays `DivProcess::step` event for event.
        let g = generators::wheel(15).unwrap();
        let opinions = init::spread(15, 6).unwrap();
        let mut plain = DivProcess::new(&g, opinions.clone(), EdgeScheduler::new()).unwrap();
        let mut faulty = DivProcess::new(&g, opinions.clone(), EdgeScheduler::new()).unwrap();
        let mut session = FaultPlan::drop_only(0.0)
            .unwrap()
            .session(&opinions)
            .unwrap();
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..5000 {
            assert_eq!(
                plain.step(&mut ra),
                faulty.step_faulty(&mut session, &mut rb)
            );
        }
        assert_eq!(plain.state(), faulty.state());
    }

    #[test]
    fn stubborn_updater_is_suppressed_without_randomness() {
        let plan = FaultPlan::parse("stubborn:2").unwrap();
        let mut session = plan.session(&[7, 7, 1, 1]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(session.filter(1, 0, 2, |_| 1, &mut rng), None);
        assert_eq!(session.filter(2, 1, 3, |_| 1, &mut rng), None);
        // Non-stubborn vertices still observe stubborn ones.
        assert_eq!(session.filter(3, 2, 0, |_| 7, &mut rng), Some(7));
        assert_eq!(session.stats().suppressed, 2);
        assert_eq!(session.stats().delivered, 1);
    }

    #[test]
    fn drop_rate_is_respected() {
        let plan = FaultPlan::drop_only(0.4).unwrap();
        let mut session = plan.session(&[0; 8]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut delivered = 0u64;
        let total = 40_000u64;
        for step in 1..=total {
            if session.filter(step, 0, 1, |_| 5, &mut rng).is_some() {
                delivered += 1;
            }
        }
        let rate = 1.0 - delivered as f64 / total as f64;
        assert!((rate - 0.4).abs() < 0.02, "drop rate {rate}");
        assert_eq!(session.stats().dropped + delivered, total);

        // The same rate through a process, whose step count includes the
        // dropped interactions.
        let g = generators::complete(20).unwrap();
        let opinions = init::spread(20, 5).unwrap();
        let mut p = DivProcess::new(&g, opinions.clone(), EdgeScheduler::new()).unwrap();
        let mut session = plan.session(&opinions).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20_000 {
            p.step_faulty(&mut session, &mut rng);
        }
        let rate = session.stats().dropped as f64 / p.steps() as f64;
        assert!((rate - 0.4).abs() < 0.02, "process drop rate {rate}");
        p.state().check_invariants();
    }

    #[test]
    fn drop_threshold_matches_the_float_draw() {
        /// Hands out one fixed word, so `gen::<f64>()` sees exactly `x`.
        struct Fixed(u64);
        impl rand::RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                (self.0 >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        let mut qs = vec![2f64.powi(-53), 0.1, 0.5, 1.0 - 2f64.powi(-53)];
        let mut rng = StdRng::seed_from_u64(7);
        qs.extend((0..8).map(|_| rng.gen::<f64>()));
        assert_eq!(FaultPlan::none().drop_threshold(), 0);
        for q in qs {
            let t = FaultPlan::drop_only(q).unwrap().drop_threshold();
            assert!(t > 0, "q = {q} must draw");
            for m in [t - 1, t, t + 1] {
                // `x >> 11` ranges over [0, 2⁵³).
                if m >= 1 << 53 {
                    continue;
                }
                for low in [0, 0x7FF] {
                    let x = m << 11 | low;
                    assert_eq!(
                        (x >> 11) < t,
                        Fixed(x).gen::<f64>() < q,
                        "q = {q}, word {x:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn drop_only_converges_and_dilates_time() {
        // Drops thin the schedule without biasing it, so consensus time
        // dilates by 1/(1−q): 2 at q = 0.5, within Monte-Carlo noise.
        let g = generators::complete(40).unwrap();
        let spec = [(1i64, 20), (5, 20)];
        let trials = 40;
        let mean_time = |q: f64, master: u64| -> f64 {
            let plan = FaultPlan::drop_only(q).unwrap();
            let mut total = 0u64;
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(master + t);
                let opinions = init::shuffled_blocks(&spec, &mut rng).unwrap();
                let mut session = plan.session(&opinions).unwrap();
                let mut p = DivProcess::new(&g, opinions, EdgeScheduler::new()).unwrap();
                let status = p.run_faulty_to_consensus(u64::MAX, &mut session, &mut rng);
                assert!(status.consensus_opinion().is_some());
                total += status.steps();
            }
            total as f64 / trials as f64
        };
        let ratio = mean_time(0.5, 200) / mean_time(0.0, 100);
        assert!((1.5..3.0).contains(&ratio), "dilation ratio {ratio}");
    }

    #[test]
    fn noise_perturbs_and_clamps_to_initial_span() {
        let plan = FaultPlan::parse("noise:1.0:3").unwrap();
        let mut session = plan.session(&[0, 10]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen_up = false;
        let mut seen_down = false;
        for step in 1..2000u64 {
            let x = session.filter(step, 0, 1, |_| 5, &mut rng).unwrap();
            assert!(x == 2 || x == 8, "noisy read {x}");
            seen_up |= x == 8;
            seen_down |= x == 2;
            // At the boundary the perturbation clamps to the span.
            let y = session.filter(step, 0, 1, |_| 9, &mut rng).unwrap();
            assert!(y == 6 || y == 10, "clamped read {y}");
        }
        assert!(seen_up && seen_down, "both signs must occur");
    }

    #[test]
    fn extreme_noise_magnitude_saturates_to_the_span() {
        // `x + D` overflows for D near `i64::MAX`: it must land on the
        // clamp of its sign's side, both signs, never wrap.
        let plan = FaultPlan::parse("noise:1:9223372036854775807").unwrap();
        assert_eq!(plan.noise.unwrap().magnitude, i64::MAX);
        let mut session = plan.session(&[1, 5, 9]).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let (mut up, mut down) = (0, 0);
        for step in 1..200u64 {
            match session.filter(step, 0, 1, |_| 5, &mut rng) {
                Some(9) => up += 1,
                Some(1) => down += 1,
                other => panic!("noisy read {other:?} off the clamp"),
            }
        }
        assert!(up > 0 && down > 0, "both signs: {up} up, {down} down");
        // The same from a negative opinion at the bottom of the span.
        let mut session = plan.session(&[-7, 0, 3]).unwrap();
        for step in 1..50u64 {
            let x = session.filter(step, 0, 1, |_| -7, &mut rng).unwrap();
            assert!(x == -7 || x == 3, "noisy read {x}");
        }
    }

    #[test]
    fn noise_magnitude_above_i64_max_is_a_range_error() {
        let err = FaultPlan::parse("noise:0.5:9223372036854775808").unwrap_err();
        assert!(
            err.contains("at most 9223372036854775807"),
            "unexpected message: {err}"
        );
        assert!(!err.contains("-1"), "wrapped magnitude in: {err}");
        let err = FaultPlan::parse("noise:0.5:18446744073709551615").unwrap_err();
        assert!(err.contains("at most"), "unexpected message: {err}");
    }

    #[test]
    fn extreme_crash_outage_saturates() {
        // `step + OUTAGE` overflows for OUTAGE near `u64::MAX`: the vertex
        // must simply stay down for the rest of the run.
        let plan = FaultPlan::parse("crash:1:18446744073709551615").unwrap();
        let mut session = plan.session(&[0; 4]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(session.filter(7, 0, 1, |_| 3, &mut rng), None);
        assert_eq!(session.stats().crash_events, 1);
        for step in [8, 1 << 40, u64::MAX - 1] {
            assert_eq!(session.filter(step, 0, 1, |_| 3, &mut rng), None);
            assert_eq!(session.filter(step, 1, 0, |_| 3, &mut rng), None);
        }
        assert_eq!(session.stats().suppressed, 3);
        assert_eq!(session.stats().dropped, 3);
    }

    #[test]
    fn stale_reads_serve_bounded_age_snapshots() {
        let plan = FaultPlan::parse("stale:1.0:10").unwrap();
        let mut session = plan.session(&[1, 1]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // Live value moves to 9 immediately, but the snapshot (age 10,
        // taken at step 0) still answers 1 until it refreshes at step 10.
        for step in 1..10u64 {
            assert_eq!(session.filter(step, 0, 1, |_| 9, &mut rng), Some(1));
        }
        assert_eq!(session.filter(10, 0, 1, |_| 9, &mut rng), Some(9));
        assert_eq!(session.stats().stale_reads, 10);
    }

    #[test]
    fn crash_silences_vertex_for_outage_window() {
        let plan = FaultPlan::parse("crash:1.0:5").unwrap();
        let mut session = plan.session(&[0; 4]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        // Step 1: vertex 0 is selected and crashes (interaction lost).
        assert_eq!(session.filter(1, 0, 1, |_| 3, &mut rng), None);
        assert_eq!(session.stats().crash_events, 1);
        // Steps 2..=5: vertex 0 is down — silent as updater and as target.
        assert_eq!(session.filter(2, 0, 1, |_| 3, &mut rng), None);
        assert_eq!(session.filter(3, 1, 0, |_| 3, &mut rng), None);
        assert_eq!(session.stats().suppressed, 1);
        assert_eq!(session.stats().dropped, 1);
        // Step 6: recovered, but crash:1.0 crashes it again on selection.
        assert_eq!(session.filter(6, 0, 1, |_| 3, &mut rng), None);
        assert_eq!(session.stats().crash_events, 2);
    }
}
