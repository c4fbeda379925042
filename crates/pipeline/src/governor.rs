//! On-line per-domain DVFS control — the paper's stated future work.
//!
//! §6: "Our current analysis uses an off-line algorithm … Future work will
//! involve developing effective on-line algorithms." The authors' follow-up
//! (Semeraro et al., MICRO 2002) controlled each domain from its issue-queue
//! utilization with an *attack/decay* rule; [`AttackDecay`] implements that
//! scheme against this simulator's machinery, and the [`Governor`] trait
//! lets users plug in their own policies.
//!
//! The pipeline samples per-domain utilization continuously and hands the
//! governor a [`ControlSample`] at the end of every control interval; the
//! governor returns frequency requests which the machine applies through
//! the normal DVFS transition model (ramps, re-locks and all).

use std::fmt;

use mcd_time::{Femtos, Frequency, FrequencyGrid};

use crate::domains::DomainId;

/// Sanitizes one utilization sample before a policy consumes it.
///
/// Occupancy is a fraction of capacity, so anything outside `[0, 1]` is a
/// measurement artifact, and a NaN would poison every decayed target it
/// touches. Infinities clamp to the nearest bound; NaN falls back to the
/// previous interval's value (no swing — the policy sees a stable queue).
fn sanitize_utilization(util: f64, prev: f64) -> f64 {
    if util.is_nan() {
        prev
    } else {
        util.clamp(0.0, 1.0)
    }
}

/// Utilization observed in one control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSample {
    /// Interval start time.
    pub start: Femtos,
    /// Interval end time.
    pub end: Femtos,
    /// Mean occupancy of each domain's issue structure over the interval,
    /// as a fraction of capacity (integer IQ, FP IQ, LSQ; the front-end
    /// entry holds fetch-queue occupancy).
    pub queue_utilization: [f64; DomainId::COUNT],
    /// Operations issued in each domain during the interval.
    pub issued: [u64; DomainId::COUNT],
    /// Instructions committed during the interval.
    pub committed: u64,
}

/// A per-domain frequency decision: `None` leaves the domain alone.
pub type ControlDecision = [Option<Frequency>; DomainId::COUNT];

/// An on-line DVFS policy.
///
/// Implementations are called once per control interval with fresh
/// utilization statistics and may request new frequencies for any domain.
pub trait Governor {
    /// Decides frequency changes for the coming interval.
    fn decide(&mut self, sample: &ControlSample) -> ControlDecision;

    /// The control interval length.
    fn interval(&self) -> Femtos;
}

/// Boxed governors forward to their contents, so callers holding a
/// `Box<dyn Governor>` (or a boxed concrete policy) can hand it to
/// [`simulate_governed`](crate::simulate_governed) unchanged.
impl<G: Governor + ?Sized> Governor for Box<G> {
    fn decide(&mut self, sample: &ControlSample) -> ControlDecision {
        (**self).decide(sample)
    }

    fn interval(&self) -> Femtos {
        (**self).interval()
    }
}

/// The attack/decay rule of the authors' follow-up work.
///
/// Per scaled domain and interval: if the queue utilization moved by more
/// than `deviation_threshold` since the previous interval, the frequency is
/// changed *aggressively* in the same direction (attack); otherwise it
/// decays gently downward, continually probing for energy savings. The
/// front end is never scaled, matching the paper.
///
/// # Example
///
/// ```
/// use mcd_pipeline::governor::{AttackDecay, ControlSample, Governor};
/// use mcd_time::Femtos;
///
/// let mut governor = AttackDecay::paper_like();
/// let sample = ControlSample {
///     start: Femtos::ZERO,
///     end: governor.interval(),
///     queue_utilization: [0.2, 0.9, 0.0, 0.4],
///     issued: [0, 4000, 0, 1500],
///     committed: 5_000,
/// };
/// let decision = governor.decide(&sample);
/// // The completely idle FP domain is sent straight to the 250 MHz floor;
/// // the near-saturated integer domain is already at 1 GHz and stays there.
/// assert!(decision[2].is_some());
/// assert!(decision[1].is_none());
/// ```
#[derive(Debug, Clone)]
pub struct AttackDecay {
    interval: Femtos,
    /// Utilization swing that triggers an attack.
    deviation_threshold: f64,
    /// Multiplicative attack step (e.g. 0.07 = 7 %).
    attack: f64,
    /// Multiplicative decay step applied when utilization is stable.
    decay: f64,
    /// Previous interval's utilization.
    prev_util: [f64; DomainId::COUNT],
    /// Current *continuous* frequency targets (tracked, since requests are
    /// asynchronous). The attack/decay law runs on these so that sub-step
    /// decays accumulate; only the emitted decisions are quantized.
    target_hz: [f64; DomainId::COUNT],
    /// The grid decisions are snapped to: every emitted frequency is one
    /// the hardware model can actually express.
    grid: FrequencyGrid,
    /// Last grid point requested per domain, so a target drifting within
    /// one grid step does not re-emit the same frequency.
    requested: [Frequency; DomainId::COUNT],
    f_min: f64,
    f_max: f64,
}

impl AttackDecay {
    /// Parameters in the spirit of the follow-up paper: 10 µs intervals,
    /// ±1.75 % utilization deviation threshold, 7 % attack, 0.5 % decay.
    pub fn paper_like() -> Self {
        AttackDecay::new(Femtos::from_micros(10), 0.0175, 0.07, 0.005)
    }

    /// Creates a governor with custom parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-finite or out of `(0, 1)` where a
    /// fraction is expected.
    pub fn new(interval: Femtos, deviation_threshold: f64, attack: f64, decay: f64) -> Self {
        assert!(interval > Femtos::ZERO, "control interval must be positive");
        for (name, v) in [
            ("deviation_threshold", deviation_threshold),
            ("attack", attack),
            ("decay", decay),
        ] {
            assert!(v.is_finite() && v > 0.0 && v < 1.0, "invalid {name}: {v}");
        }
        AttackDecay {
            interval,
            deviation_threshold,
            attack,
            decay,
            prev_util: [0.0; DomainId::COUNT],
            target_hz: [1e9; DomainId::COUNT],
            grid: FrequencyGrid::paper32(),
            requested: [Frequency::GHZ; DomainId::COUNT],
            f_min: 250e6,
            f_max: 1e9,
        }
    }
}

impl Governor for AttackDecay {
    fn decide(&mut self, sample: &ControlSample) -> ControlDecision {
        let mut decision: ControlDecision = [None; DomainId::COUNT];
        for d in &DomainId::ALL[1..] {
            let i = d.index();
            let util = sanitize_utilization(sample.queue_utilization[i], self.prev_util[i]);
            let delta = util - self.prev_util[i];
            self.prev_util[i] = util;
            let current = self.target_hz[i];
            let next = if sample.issued[i] == 0 && util < 1e-3 {
                // Completely idle domain: go straight to the floor.
                self.f_min
            } else if delta.abs() > self.deviation_threshold {
                // Attack in the direction utilization moved.
                if delta > 0.0 {
                    current * (1.0 + self.attack)
                } else {
                    current * (1.0 - self.attack)
                }
            } else if util > 0.85 {
                // Near-saturated queue: climb even without a swing.
                current * (1.0 + self.attack)
            } else {
                // Stable: decay gently, probing for savings.
                current * (1.0 - self.decay)
            };
            // Track the continuous target, but snap the emitted decision to
            // the 32-point grid: the DVFS models (step counts, voltage
            // lookups) are only defined on grid frequencies, and re-emitting
            // a request the hardware cannot distinguish from the current one
            // would charge phantom transitions.
            self.target_hz[i] = next.clamp(self.f_min, self.f_max);
            let snapped = self.grid.snap(self.target_hz[i]).frequency;
            if snapped != self.requested[i] {
                self.requested[i] = snapped;
                decision[i] = Some(snapped);
            }
        }
        decision
    }

    fn interval(&self) -> Femtos {
        self.interval
    }
}

/// A proportional–integral controller holding each queue at a setpoint.
///
/// Per scaled domain and interval: the error is the occupancy's distance
/// from `setpoint` (a fuller queue means the domain is falling behind and
/// should speed up); the frequency target moves multiplicatively by
/// `kp * error + ki * integral`, with the integral clamped so a long
/// saturation spell cannot wind up an unbounded correction. A completely
/// idle domain drops straight to the floor and its integral resets. Like
/// [`AttackDecay`], emitted decisions are snapped to the 32-point grid and
/// deduplicated, and the front end is never scaled.
#[derive(Debug, Clone)]
pub struct QueuePi {
    interval: Femtos,
    /// Target queue occupancy in `(0, 1)`.
    setpoint: f64,
    /// Proportional gain (per unit occupancy error, per interval).
    kp: f64,
    /// Integral gain.
    ki: f64,
    /// Accumulated error per domain, clamped to [`QueuePi::WINDUP_CAP`].
    integral: [f64; DomainId::COUNT],
    /// Previous interval's utilization (for NaN fallback only).
    prev_util: [f64; DomainId::COUNT],
    /// Continuous frequency targets; emitted decisions are quantized.
    target_hz: [f64; DomainId::COUNT],
    grid: FrequencyGrid,
    requested: [Frequency; DomainId::COUNT],
    f_min: f64,
    f_max: f64,
}

impl QueuePi {
    /// Anti-windup bound on the accumulated error.
    const WINDUP_CAP: f64 = 2.0;
    /// Largest per-interval multiplicative step, so one interval can never
    /// jump the target across the whole operating region.
    const MAX_STEP: f64 = 0.25;

    /// Default tuning: 10 µs intervals, 50 % occupancy setpoint, gains
    /// chosen so a saturated queue recovers to 1 GHz within a few dozen
    /// intervals without oscillating at the setpoint.
    pub fn default_tuning() -> Self {
        QueuePi::new(Femtos::from_micros(10), 0.5, 0.5, 0.05)
    }

    /// Creates a controller with custom tuning.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero, `setpoint` is outside `(0, 1)`,
    /// either gain is negative or non-finite, or both gains are zero.
    pub fn new(interval: Femtos, setpoint: f64, kp: f64, ki: f64) -> Self {
        assert!(interval > Femtos::ZERO, "control interval must be positive");
        assert!(
            setpoint.is_finite() && setpoint > 0.0 && setpoint < 1.0,
            "invalid setpoint: {setpoint}"
        );
        for (name, v) in [("kp", kp), ("ki", ki)] {
            assert!(v.is_finite() && v >= 0.0, "invalid {name}: {v}");
        }
        assert!(kp > 0.0 || ki > 0.0, "at least one gain must be positive");
        QueuePi {
            interval,
            setpoint,
            kp,
            ki,
            integral: [0.0; DomainId::COUNT],
            prev_util: [0.0; DomainId::COUNT],
            target_hz: [1e9; DomainId::COUNT],
            grid: FrequencyGrid::paper32(),
            requested: [Frequency::GHZ; DomainId::COUNT],
            f_min: 250e6,
            f_max: 1e9,
        }
    }
}

impl Governor for QueuePi {
    fn decide(&mut self, sample: &ControlSample) -> ControlDecision {
        let mut decision: ControlDecision = [None; DomainId::COUNT];
        for d in &DomainId::ALL[1..] {
            let i = d.index();
            let util = sanitize_utilization(sample.queue_utilization[i], self.prev_util[i]);
            self.prev_util[i] = util;
            if sample.issued[i] == 0 && util < 1e-3 {
                // Completely idle domain: floor it and forget the history,
                // so the next active phase starts from a neutral controller.
                self.integral[i] = 0.0;
                self.target_hz[i] = self.f_min;
            } else {
                let error = util - self.setpoint;
                self.integral[i] =
                    (self.integral[i] + error).clamp(-Self::WINDUP_CAP, Self::WINDUP_CAP);
                let control = (self.kp * error + self.ki * self.integral[i])
                    .clamp(-Self::MAX_STEP, Self::MAX_STEP);
                self.target_hz[i] =
                    (self.target_hz[i] * (1.0 + control)).clamp(self.f_min, self.f_max);
            }
            let snapped = self.grid.snap(self.target_hz[i]).frequency;
            if snapped != self.requested[i] {
                self.requested[i] = snapped;
                decision[i] = Some(snapped);
            }
        }
        decision
    }

    fn interval(&self) -> Femtos {
        self.interval
    }
}

/// Policy identifiers the registry can instantiate, in registry order.
pub const POLICY_IDS: &[&str] = &["attack-decay", "queue-pi"];

/// A declarative on-line policy: registry id plus explicit parameter
/// overrides, parsed from the `id[:key=value,…]` grammar used by cell
/// specs, the campaign CLI, and the check harness.
///
/// The spec is *canonical*: parameters are sorted by name and rejected on
/// duplicates, so two specs describing the same instantiation render (and
/// therefore hash, label, and cache) identically.
///
/// ```
/// use mcd_pipeline::governor::PolicySpec;
///
/// let p = PolicySpec::parse("attack-decay:decay=0.01,attack=0.1").unwrap();
/// assert_eq!(p.canonical(), "attack-decay:attack=0.1,decay=0.01");
/// let mut governor = p.build().unwrap();
/// assert!(governor.interval() > mcd_time::Femtos::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PolicySpec {
    /// Registry identifier (one of [`POLICY_IDS`]).
    pub id: String,
    /// Explicit parameter overrides, sorted by name. Values are kept as
    /// their canonical shortest-round-trip rendering so equality and
    /// ordering need no float comparisons.
    pub params: Vec<(String, String)>,
}

impl PolicySpec {
    /// Parses `id` or `id:key=value,key=value`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown id, malformed or
    /// duplicate parameter, or non-finite value.
    pub fn parse(spec: &str) -> Result<PolicySpec, String> {
        let (id, rest) = match spec.split_once(':') {
            Some((id, rest)) => (id, Some(rest)),
            None => (spec, None),
        };
        if !POLICY_IDS.contains(&id) {
            return Err(format!(
                "unknown policy {id:?}; known policies: {}",
                POLICY_IDS.join(", ")
            ));
        }
        let mut params: Vec<(String, String)> = Vec::new();
        if let Some(rest) = rest {
            for pair in rest.split(',') {
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(format!("malformed parameter {pair:?} (want key=value)"));
                };
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("parameter {key}={value:?} is not a number"))?;
                if !parsed.is_finite() {
                    return Err(format!("parameter {key}={value} must be finite"));
                }
                if params.iter().any(|(k, _)| k == key) {
                    return Err(format!("duplicate parameter {key:?}"));
                }
                params.push((key.to_string(), format!("{parsed:?}")));
            }
        }
        params.sort();
        let spec = PolicySpec {
            id: id.to_string(),
            params,
        };
        spec.build()?; // Validate names and ranges eagerly.
        Ok(spec)
    }

    /// The canonical `id[:key=value,…]` rendering ([`PolicySpec::parse`] of
    /// it round-trips to `self`).
    pub fn canonical(&self) -> String {
        if self.params.is_empty() {
            return self.id.clone();
        }
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}:{}", self.id, params.join(","))
    }

    fn param(&self, key: &str, default: f64) -> f64 {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.parse().expect("canonical value round-trips"))
            .unwrap_or(default)
    }

    fn interval(&self) -> Result<Femtos, String> {
        let us = self.param("interval-us", 10.0);
        if !(us.is_finite() && us >= 1.0 && us.fract() == 0.0 && us <= 1e6) {
            return Err(format!(
                "interval-us={us} must be a whole number of microseconds in [1, 1e6]"
            ));
        }
        Ok(Femtos::from_micros(us as u64))
    }

    fn check_params(&self, known: &[&str]) -> Result<(), String> {
        for (key, _) in &self.params {
            if !known.contains(&key.as_str()) {
                return Err(format!(
                    "policy {:?} has no parameter {key:?}; known: {}",
                    self.id,
                    known.join(", ")
                ));
            }
        }
        Ok(())
    }

    /// Instantiates the governor this spec describes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown parameter name or
    /// out-of-range value.
    pub fn build(&self) -> Result<Box<dyn Governor>, String> {
        let fraction = |key: &str, default: f64| -> Result<f64, String> {
            let v = self.param(key, default);
            if v > 0.0 && v < 1.0 {
                Ok(v)
            } else {
                Err(format!("{key}={v} must lie in (0, 1)"))
            }
        };
        match self.id.as_str() {
            "attack-decay" => {
                self.check_params(&["interval-us", "threshold", "attack", "decay"])?;
                Ok(Box::new(AttackDecay::new(
                    self.interval()?,
                    fraction("threshold", 0.0175)?,
                    fraction("attack", 0.07)?,
                    fraction("decay", 0.005)?,
                )))
            }
            "queue-pi" => {
                self.check_params(&["interval-us", "setpoint", "kp", "ki"])?;
                let gain = |key: &str, default: f64| -> Result<f64, String> {
                    let v = self.param(key, default);
                    if v.is_finite() && v >= 0.0 {
                        Ok(v)
                    } else {
                        Err(format!("{key}={v} must be non-negative"))
                    }
                };
                let (kp, ki) = (gain("kp", 0.5)?, gain("ki", 0.05)?);
                if kp == 0.0 && ki == 0.0 {
                    return Err("queue-pi needs at least one positive gain".to_string());
                }
                Ok(Box::new(QueuePi::new(
                    self.interval()?,
                    fraction("setpoint", 0.5)?,
                    kp,
                    ki,
                )))
            }
            other => Err(format!(
                "unknown policy {other:?}; known policies: {}",
                POLICY_IDS.join(", ")
            )),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

impl std::str::FromStr for PolicySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicySpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(util: [f64; 4], issued: [u64; 4]) -> ControlSample {
        ControlSample {
            start: Femtos::ZERO,
            end: Femtos::from_micros(10),
            queue_utilization: util,
            issued,
            committed: 1000,
        }
    }

    #[test]
    fn idle_domain_drops_to_the_floor() {
        let mut g = AttackDecay::paper_like();
        let d = g.decide(&sample([0.0, 0.5, 0.0, 0.5], [0, 100, 0, 100]));
        assert_eq!(
            d[DomainId::FloatingPoint.index()],
            Some(Frequency::MIN_SCALED)
        );
    }

    #[test]
    fn rising_utilization_attacks_upward() {
        let mut g = AttackDecay::paper_like();
        // Establish a baseline, decay a few steps, then spike.
        g.decide(&sample([0.0, 0.3, 0.3, 0.3], [1, 1, 1, 1]));
        for _ in 0..20 {
            g.decide(&sample([0.0, 0.3, 0.3, 0.3], [1, 1, 1, 1]));
        }
        let before = g.target_hz[DomainId::Integer.index()];
        let d = g.decide(&sample([0.0, 0.6, 0.3, 0.3], [1, 1, 1, 1]));
        let after = g.target_hz[DomainId::Integer.index()];
        assert!(after > before, "attack should raise the target");
        assert!(d[DomainId::Integer.index()].is_some());
    }

    #[test]
    fn stable_utilization_decays_slowly() {
        let mut g = AttackDecay::paper_like();
        g.decide(&sample([0.0, 0.4, 0.4, 0.4], [1, 1, 1, 1]));
        let before = g.target_hz[DomainId::Integer.index()];
        g.decide(&sample([0.0, 0.4, 0.4, 0.4], [1, 1, 1, 1]));
        let after = g.target_hz[DomainId::Integer.index()];
        assert!(after < before);
        assert!(after > before * 0.99, "decay is gentle");
    }

    #[test]
    fn front_end_is_never_touched() {
        let mut g = AttackDecay::paper_like();
        for util in [0.0, 0.9, 0.1] {
            let d = g.decide(&sample([util, 0.5, 0.5, 0.5], [9, 9, 9, 9]));
            assert_eq!(d[DomainId::FrontEnd.index()], None);
        }
    }

    #[test]
    fn targets_stay_inside_the_operating_region() {
        let mut g = AttackDecay::paper_like();
        // Hammer the decay for a long time: must clamp at 250 MHz.
        for _ in 0..2_000 {
            g.decide(&sample([0.0, 0.4, 0.4, 0.4], [1, 1, 1, 1]));
        }
        for d in &DomainId::ALL[1..] {
            assert!(g.target_hz[d.index()] >= 250e6 - 1.0);
        }
        // And saturate upward: must clamp at 1 GHz.
        for step in 0..2_000 {
            let u = if step % 2 == 0 { 0.95 } else { 0.9 };
            g.decide(&sample([0.0, u, u, u], [9, 9, 9, 9]));
        }
        for d in &DomainId::ALL[1..] {
            assert!(g.target_hz[d.index()] <= 1e9 + 1.0);
        }
    }

    #[test]
    fn every_decision_lies_on_the_32_point_grid() {
        // Regression: the governor used to emit `next.round()` — arbitrary
        // Hz between grid points, which neither DVFS model can express.
        let grid = FrequencyGrid::paper32();
        let on_grid = |f: Frequency| grid.points().iter().any(|p| p.frequency == f);
        let mut g = AttackDecay::paper_like();
        // A deterministic pseudo-random utilization walk: idle spells,
        // spikes, saturation, and gentle drift all mixed together.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut emitted = 0usize;
        for _ in 0..5_000 {
            let util = [rnd(), rnd(), rnd() * rnd(), rnd()];
            let issued = [1, 1, u64::from(util[2] > 0.05), 1];
            for f in g.decide(&sample(util, issued)).into_iter().flatten() {
                emitted += 1;
                assert!(on_grid(f), "off-grid decision: {} Hz", f.as_hz());
            }
        }
        assert!(emitted > 100, "walk should exercise many decisions");
    }

    #[test]
    fn unchanged_grid_point_is_not_re_emitted() {
        let mut g = AttackDecay::paper_like();
        // The first sample attacks upward and clamps at the 1 GHz ceiling —
        // the snapped point equals the initial request, so nothing is
        // emitted. After that, each gentle decay moves the continuous
        // target by only 0.5 % (≈5 MHz at 1 GHz) — within one 24.19 MHz
        // grid step — so decisions appear only when a grid midpoint is
        // crossed.
        let d = g.decide(&sample([0.0, 0.4, 0.4, 0.4], [1, 1, 1, 1]));
        assert!(
            d[DomainId::Integer.index()].is_none(),
            "clamped attack stays at the current grid point"
        );
        // Keep decaying: eventually the snapped point moves and is emitted
        // exactly once per crossed grid point.
        let mut seen = Vec::new();
        for _ in 0..40 {
            let d = g.decide(&sample([0.0, 0.4, 0.4, 0.4], [1, 1, 1, 1]));
            if let Some(f) = d[DomainId::Integer.index()] {
                seen.push(f);
            }
        }
        assert!(!seen.is_empty());
        let mut dedup = seen.clone();
        dedup.dedup();
        assert_eq!(seen, dedup, "no consecutive duplicate requests");
    }

    #[test]
    #[should_panic(expected = "invalid attack")]
    fn bad_parameters_rejected() {
        let _ = AttackDecay::new(Femtos::from_micros(10), 0.02, 1.5, 0.005);
    }

    #[test]
    fn nan_utilization_does_not_poison_the_target() {
        // Regression: a NaN occupancy sample used to propagate into
        // `prev_util` and `target_hz`, after which every later decision was
        // NaN-driven. A NaN now reads as "unchanged" (the stable/decay
        // path) and the targets stay finite and in range.
        let mut g = AttackDecay::paper_like();
        g.decide(&sample([0.0, 0.4, 0.4, 0.4], [1, 1, 1, 1]));
        let before = g.target_hz;
        g.decide(&sample([0.0, f64::NAN, 0.4, 0.4], [1, 1, 1, 1]));
        let i = DomainId::Integer.index();
        assert!(g.prev_util[i].is_finite());
        assert!(g.target_hz[i].is_finite());
        assert!(
            g.target_hz[i] < before[i],
            "NaN reads as a stable queue, so the target decays"
        );
        // And the governor keeps operating normally afterwards.
        let d = g.decide(&sample([0.0, 0.0, 0.4, 0.4], [0, 0, 1, 1]));
        assert_eq!(d[i], Some(Frequency::MIN_SCALED));
    }

    #[test]
    fn infinite_utilization_clamps_to_the_unit_interval() {
        let mut g = AttackDecay::paper_like();
        g.decide(&sample(
            [0.0, f64::INFINITY, f64::NEG_INFINITY, 0.4],
            [1; 4],
        ));
        assert_eq!(g.prev_util[DomainId::Integer.index()], 1.0);
        assert_eq!(g.prev_util[DomainId::FloatingPoint.index()], 0.0);
        for d in &DomainId::ALL[1..] {
            assert!(g.target_hz[d.index()].is_finite());
        }
    }

    #[test]
    fn queue_pi_raises_frequency_above_setpoint_and_lowers_it_below() {
        let mut g = QueuePi::default_tuning();
        // Decay well below the ceiling first, so upward motion is visible.
        for _ in 0..40 {
            g.decide(&sample([0.0, 0.2, 0.2, 0.2], [1, 1, 1, 1]));
        }
        let i = DomainId::Integer.index();
        let low = g.target_hz[i];
        assert!(low < 1e9, "below-setpoint occupancy lowers the target");
        for _ in 0..40 {
            g.decide(&sample([0.0, 0.9, 0.2, 0.2], [1, 1, 1, 1]));
        }
        assert!(
            g.target_hz[i] > low,
            "above-setpoint occupancy raises the target"
        );
    }

    #[test]
    fn queue_pi_is_grid_snapped_deduplicated_and_leaves_the_front_end() {
        let grid = FrequencyGrid::paper32();
        let on_grid = |f: Frequency| grid.points().iter().any(|p| p.frequency == f);
        let mut g = QueuePi::default_tuning();
        let mut x: u64 = 0x0123_4567_89AB_CDEF;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut last: [Option<Frequency>; DomainId::COUNT] = [None; DomainId::COUNT];
        let mut emitted = 0usize;
        for _ in 0..5_000 {
            let util = [rnd(), rnd(), rnd() * rnd(), rnd()];
            let issued = [1, 1, u64::from(util[2] > 0.05), 1];
            let d = g.decide(&sample(util, issued));
            assert_eq!(d[DomainId::FrontEnd.index()], None);
            for (i, f) in d.iter().enumerate() {
                if let Some(f) = f {
                    emitted += 1;
                    assert!(on_grid(*f), "off-grid decision: {} Hz", f.as_hz());
                    assert_ne!(last[i], Some(*f), "consecutive duplicate request");
                    last[i] = Some(*f);
                }
            }
        }
        assert!(emitted > 100, "walk should exercise many decisions");
    }

    #[test]
    fn queue_pi_integral_never_winds_up_unbounded() {
        let mut g = QueuePi::default_tuning();
        for _ in 0..10_000 {
            g.decide(&sample([0.0, 1.0, 1.0, 1.0], [9, 9, 9, 9]));
        }
        for d in &DomainId::ALL[1..] {
            let i = d.index();
            assert!(g.integral[i].abs() <= QueuePi::WINDUP_CAP + 1e-12);
            assert!(g.target_hz[i] <= 1e9 + 1.0);
        }
    }

    #[test]
    fn policy_spec_parses_and_canonicalizes() {
        let p = PolicySpec::parse("attack-decay").expect("bare id parses");
        assert_eq!(p.canonical(), "attack-decay");
        let p = PolicySpec::parse("queue-pi:ki=0.1,setpoint=0.6").expect("params parse");
        assert_eq!(p.canonical(), "queue-pi:ki=0.1,setpoint=0.6");
        // Parameter order never matters: the rendering is sorted.
        let swapped = PolicySpec::parse("queue-pi:setpoint=0.6,ki=0.1").expect("parses");
        assert_eq!(p, swapped);
        // Canonical strings round-trip.
        assert_eq!(PolicySpec::parse(&p.canonical()).expect("round-trips"), p);
    }

    #[test]
    fn policy_spec_rejects_bad_input_with_context() {
        assert!(PolicySpec::parse("banana").unwrap_err().contains("banana"));
        assert!(PolicySpec::parse("attack-decay:attack")
            .unwrap_err()
            .contains("key=value"));
        assert!(PolicySpec::parse("attack-decay:attack=high")
            .unwrap_err()
            .contains("not a number"));
        assert!(PolicySpec::parse("attack-decay:attack=0.1,attack=0.2")
            .unwrap_err()
            .contains("duplicate"));
        assert!(PolicySpec::parse("attack-decay:banana=1")
            .unwrap_err()
            .contains("no parameter"));
        assert!(PolicySpec::parse("attack-decay:attack=1.5")
            .unwrap_err()
            .contains("(0, 1)"));
        assert!(PolicySpec::parse("queue-pi:kp=0,ki=0")
            .unwrap_err()
            .contains("gain"));
        assert!(PolicySpec::parse("queue-pi:interval-us=0.5")
            .unwrap_err()
            .contains("interval-us"));
    }

    #[test]
    fn registry_builds_every_known_policy() {
        for id in POLICY_IDS {
            let p = PolicySpec::parse(id).expect("known id parses");
            let g = p.build().expect("known id builds");
            assert!(g.interval() > Femtos::ZERO);
        }
    }

    #[test]
    fn registry_parameters_reach_the_governor() {
        let p = PolicySpec::parse("attack-decay:interval-us=20").expect("parses");
        assert_eq!(
            p.build().expect("builds").interval(),
            Femtos::from_micros(20)
        );
    }
}
