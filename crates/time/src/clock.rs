//! Per-domain clock edge generation.
//!
//! Each clock domain owns a [`DomainClock`] that produces a strictly
//! increasing stream of rising-edge times. Edges advance by the current
//! period plus a per-cycle jitter sample, exactly as §3.1 of the paper
//! describes ("the domain cycle time is added to the starting time, and the
//! jitter for that cycle … is added to this sum"). Clock phases are
//! randomized at start-up.
//!
//! A clock may optionally be driven by a [`VoltageController`]; pending DVFS
//! micro-steps are applied as their times come due, and PLL re-lock windows
//! suppress edges entirely (the domain is idle).

use crate::dvfs::{DvfsModel, VoltageController};
use crate::femtos::Femtos;
use crate::freq::{Frequency, Voltage};
use crate::jitter::{JitterModel, JitterTape};
use crate::rng::SimRng;
use crate::vf::VfTable;

/// A jittery, optionally DVFS-scaled clock for one domain.
///
/// # Example
///
/// ```
/// use mcd_time::{DomainClock, Frequency, JitterModel};
///
/// let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 42);
/// let e1 = clk.next_edge();
/// let e2 = clk.next_edge();
/// assert_eq!((e2 - e1).as_femtos(), 1_000_000);
/// assert_eq!(clk.cycles(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DomainClock {
    jitter: JitterModel,
    seed: u64,
    rng: SimRng,
    /// Recorded jitter draws this clock reads instead of sampling (see
    /// [`DomainClock::replay_jitter`]).
    replay: Option<JitterReplay>,
    controller: Option<VoltageController>,
    frequency: Frequency,
    voltage: Voltage,
    last_edge: Femtos,
    cycles: u64,
    v2_cycle_sum: f64,
    idle_total: Femtos,
    /// The most recent PLL re-lock window, kept until an observer takes it
    /// (see [`DomainClock::take_relock`]). Purely observational: never read
    /// by the edge generator itself.
    last_relock: Option<(Femtos, Femtos)>,
    // Derived from `frequency`, cached so the per-edge path avoids a divide;
    // refreshed on every frequency assignment (same operands, so the cached
    // values are bit-identical to recomputing them each edge).
    period_f: f64,
    max_jitter: f64,
}

impl DomainClock {
    /// Creates a fixed-frequency clock at nominal voltage (1.2 V).
    ///
    /// The first edge lands at a random phase within the first period, per
    /// the paper's randomized clock start times.
    pub fn new(frequency: Frequency, jitter: JitterModel, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let phase = rng.below(frequency.period().as_femtos().max(1));
        let period_f = frequency.period_femtos_f64();
        DomainClock {
            jitter,
            seed,
            rng,
            replay: None,
            controller: None,
            frequency,
            voltage: Voltage::NOMINAL,
            last_edge: Femtos::from_femtos(phase),
            cycles: 0,
            v2_cycle_sum: 0.0,
            idle_total: Femtos::ZERO,
            last_relock: None,
            period_f,
            max_jitter: period_f * 0.45,
        }
    }

    /// Creates a DVFS-capable clock driven by `controller`.
    pub fn with_controller(controller: VoltageController, jitter: JitterModel, seed: u64) -> Self {
        let point = controller.current();
        let mut clk = DomainClock::new(point.frequency, jitter, seed);
        clk.voltage = point.voltage;
        clk.controller = Some(controller);
        clk
    }

    /// Creates a clock whose voltage is looked up from `table` (fixed
    /// frequency, no controller).
    pub fn fixed_point(
        frequency: Frequency,
        table: &VfTable,
        jitter: JitterModel,
        seed: u64,
    ) -> Self {
        let mut clk = DomainClock::new(frequency, jitter, seed);
        clk.voltage = table.voltage_for(frequency);
        clk
    }

    /// The seed this clock was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replays `tape`'s recorded jitter draws instead of sampling them.
    ///
    /// Edges are bit-identical to a sampling clock's. Draws past the end of
    /// the tape are sampled live from the exact generator state at that
    /// position and appended to the tape. A draw the tape cannot serve — the
    /// Transmeta PLL lock time in [`DomainClock::request_frequency`] —
    /// restores the generator the same way, and the clock samples live for
    /// the rest of its life. [`DomainClock::take_jitter_tape`] hands the
    /// (possibly extended) tape back.
    ///
    /// # Panics
    ///
    /// Panics if the clock has already drawn from its generator (produced
    /// an edge or planned a frequency transition), or if `tape` records
    /// another stream (a different seed or jitter model).
    pub fn replay_jitter(&mut self, tape: JitterTape) {
        assert!(
            self.cycles == 0
                && self
                    .controller
                    .as_ref()
                    .is_none_or(|c| c.transitions() == 0),
            "jitter replay must start before the clock draws anything"
        );
        assert!(
            tape.seed() == self.seed && tape.model() == self.jitter,
            "jitter tape records another clock stream"
        );
        self.replay = Some(JitterReplay {
            tape,
            pos: 0,
            rng_at: 0,
            live: false,
        });
    }

    /// Removes the tape attached by [`DomainClock::replay_jitter`], with
    /// every draw this clock recorded onto it.
    pub fn take_jitter_tape(&mut self) -> Option<JitterTape> {
        self.replay.take().map(|r| r.tape)
    }

    /// Current clock frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Current supply voltage.
    pub fn voltage(&self) -> Voltage {
        self.voltage
    }

    /// Current period.
    pub fn period(&self) -> Femtos {
        self.frequency.period()
    }

    /// Time of the most recently produced edge.
    pub fn last_edge(&self) -> Femtos {
        self.last_edge
    }

    /// Number of edges produced so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Σ over produced edges of the instantaneous `V²` (volts²·cycles);
    /// multiplied by an effective clock-tree capacitance this is the
    /// clock-distribution energy of the domain.
    pub fn v2_cycle_sum(&self) -> f64 {
        self.v2_cycle_sum
    }

    /// Total time this clock spent idle in PLL re-lock windows.
    pub fn idle_total(&self) -> Femtos {
        self.idle_total
    }

    /// Takes the `(start, end)` of the most recent PLL re-lock window, if
    /// one occurred since the last call. Trace observers poll this after
    /// each edge; when nobody polls, the slot is simply overwritten by the
    /// next re-lock.
    pub fn take_relock(&mut self) -> Option<(Femtos, Femtos)> {
        self.last_relock.take()
    }

    /// The DVFS controller, if this clock is scalable.
    pub fn controller(&self) -> Option<&VoltageController> {
        self.controller.as_ref()
    }

    /// Requests a frequency change effective from time `now`.
    ///
    /// Returns `false` (and does nothing) for fixed-frequency clocks.
    pub fn request_frequency(&mut self, now: Femtos, target: Frequency) -> bool {
        // Split borrows: pull the controller out while planning.
        let Some(mut ctl) = self.controller.take() else {
            return false;
        };
        if ctl.model() == DvfsModel::Transmeta {
            // The PLL lock time is drawn from the jitter generator, so the
            // stream leaves the recording here.
            if let Some(r) = self.replay.as_mut() {
                r.go_live(&mut self.rng);
            }
        }
        ctl.request(now, target, &mut self.rng);
        self.controller = Some(ctl);
        true
    }

    /// Produces the next rising edge, applying any due DVFS steps and
    /// skipping PLL re-lock idle windows.
    pub fn next_edge(&mut self) -> Femtos {
        // Apply controller steps that came due at or before the last edge.
        // (Borrowed in place: this runs once per simulated clock edge, so it
        // must not shuffle the controller through an `Option` round-trip.)
        if let Some(ctl) = self.controller.as_mut() {
            if let Some(idle_until) = ctl.advance_to(self.last_edge) {
                self.idle_total += idle_until - self.last_edge;
                self.last_relock = Some((self.last_edge, idle_until));
                self.last_edge = idle_until;
                ctl.advance_to(self.last_edge);
            }
            let point = ctl.current();
            if point.frequency != self.frequency {
                self.frequency = point.frequency;
                self.period_f = point.frequency.period_femtos_f64();
                self.max_jitter = self.period_f * 0.45;
            }
            self.voltage = point.voltage;
        }
        let raw = match self.replay.as_mut() {
            Some(r) if !r.live => r.next(&mut self.rng),
            _ => self.jitter.sample(&mut self.rng),
        };
        let j = raw.clamp(-self.max_jitter, self.max_jitter);
        let advance = (self.period_f + j).max(1.0).round() as u64;
        self.last_edge += Femtos::from_femtos(advance);
        self.cycles += 1;
        let v = self.voltage.as_volts();
        self.v2_cycle_sum += v * v;
        self.last_edge
    }
}

/// A clock's position on a [`JitterTape`].
#[derive(Debug, Clone)]
struct JitterReplay {
    tape: JitterTape,
    /// Jitter draws this clock has consumed.
    pos: usize,
    /// The draw position the clock's generator is at; it lags `pos` while
    /// draws come off the tape.
    rng_at: usize,
    /// Set once the generator served a draw the tape does not record: from
    /// then on the clock samples live and the tape only rides along.
    live: bool,
}

impl JitterReplay {
    /// The next jitter draw: off the tape while it lasts, then sampled
    /// (and recorded) live.
    #[inline]
    fn next(&mut self, rng: &mut SimRng) -> f64 {
        if let Some(v) = self.tape.get(self.pos) {
            self.pos += 1;
            return v;
        }
        self.sync(rng);
        let v = self.tape.record(rng);
        self.pos += 1;
        self.rng_at += 1;
        v
    }

    /// Brings `rng` to the state it would have after `pos` live draws.
    fn sync(&mut self, rng: &mut SimRng) {
        if self.rng_at != self.pos {
            *rng = self.tape.state_at(self.pos);
            self.rng_at = self.pos;
        }
    }

    /// Hands the generator back to live sampling for good.
    fn go_live(&mut self, rng: &mut SimRng) {
        if !self.live {
            self.sync(rng);
            self.live = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::DvfsModel;
    use crate::pll::PllModel;

    #[test]
    fn edges_are_strictly_increasing() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::paper(), 7);
        let mut prev = Femtos::ZERO;
        for _ in 0..10_000 {
            let e = clk.next_edge();
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn jitterless_clock_is_periodic() {
        let mut clk = DomainClock::new(Frequency::from_mhz(500), JitterModel::disabled(), 1);
        let e1 = clk.next_edge();
        for i in 2..100u64 {
            let e = clk.next_edge();
            assert_eq!((e - e1).as_femtos(), (i - 1) * 2_000_000);
        }
    }

    #[test]
    fn mean_period_matches_frequency_under_jitter() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::paper(), 99);
        let first = clk.next_edge();
        let n = 100_000u64;
        let mut last = first;
        for _ in 0..n {
            last = clk.next_edge();
        }
        let mean_period = (last - first).as_femtos() as f64 / n as f64;
        assert!(
            (mean_period - 1_000_000.0).abs() < 2_000.0,
            "mean {mean_period}"
        );
    }

    #[test]
    fn phase_randomization_differs_by_seed() {
        let mut a = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 1);
        let mut b = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 2);
        assert_ne!(a.next_edge(), b.next_edge());
    }

    #[test]
    fn v2_sum_tracks_voltage() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 3);
        for _ in 0..10 {
            clk.next_edge();
        }
        assert!((clk.v2_cycle_sum() - 10.0 * 1.2 * 1.2).abs() < 1e-9);
    }

    #[test]
    fn dvfs_clock_slows_down_after_request() {
        let ctl = VoltageController::new(
            DvfsModel::XScale,
            VfTable::paper(),
            PllModel::paper(),
            Frequency::GHZ,
        );
        let mut clk = DomainClock::with_controller(ctl, JitterModel::disabled(), 5);
        let start = clk.next_edge();
        clk.request_frequency(start, Frequency::MIN_SCALED);
        // Run well past the ~55 µs ramp.
        let mut e = start;
        while e < start + Femtos::from_micros(100) {
            e = clk.next_edge();
        }
        assert_eq!(clk.frequency(), Frequency::MIN_SCALED);
        assert!((clk.voltage().as_volts() - 0.65).abs() < 1e-6);
        let e2 = clk.next_edge();
        assert_eq!((e2 - e).as_femtos(), 4_000_000); // 250 MHz period
    }

    #[test]
    fn transmeta_relock_stalls_edges() {
        let ctl = VoltageController::new(
            DvfsModel::Transmeta,
            VfTable::paper(),
            PllModel::paper(),
            Frequency::GHZ,
        );
        let mut clk = DomainClock::with_controller(ctl, JitterModel::disabled(), 6);
        let start = clk.next_edge();
        clk.request_frequency(start, Frequency::from_mhz(500));
        let next = clk.next_edge();
        // The very next edge is delayed by the 10–20 µs re-lock.
        assert!(next - start >= Femtos::from_micros(10));
        assert!(next - start <= Femtos::from_micros(21));
        assert!(clk.idle_total() >= Femtos::from_micros(10));
        assert_eq!(clk.frequency(), Frequency::from_mhz(500));
    }

    /// Edge times of a Transmeta clock asked for `requests` (at edge index,
    /// target) along the way, optionally replaying `tape`.
    fn transmeta_edges(
        tape: Option<JitterTape>,
        edges: usize,
        requests: &[(usize, Frequency)],
    ) -> (Vec<Femtos>, Option<JitterTape>) {
        let ctl = VoltageController::new(
            DvfsModel::Transmeta,
            VfTable::paper(),
            PllModel::paper(),
            Frequency::GHZ,
        );
        let mut clk = DomainClock::with_controller(ctl, JitterModel::paper(), 31);
        if let Some(tape) = tape {
            clk.replay_jitter(tape);
        }
        let mut out = Vec::with_capacity(edges);
        for i in 0..edges {
            for &(at, f) in requests {
                if at == i {
                    clk.request_frequency(clk.last_edge(), f);
                }
            }
            out.push(clk.next_edge());
        }
        (out, clk.take_jitter_tape())
    }

    #[test]
    fn replayed_jitter_is_bit_identical_to_sampling() {
        let (live, none) = transmeta_edges(None, 500, &[]);
        assert!(none.is_none());
        // Record 300 draws, then replay them and run 200 past the end.
        let (recorded, tape) =
            transmeta_edges(Some(JitterTape::new(31, JitterModel::paper())), 300, &[]);
        assert_eq!(recorded, live[..300]);
        let tape = tape.expect("tape handed back");
        assert_eq!(tape.len(), 300);
        let (replayed, tape) = transmeta_edges(Some(tape), 500, &[]);
        assert_eq!(replayed, live);
        assert_eq!(tape.expect("tape handed back").len(), 500);
    }

    #[test]
    fn a_pll_draw_restores_the_generator_mid_tape() {
        let requests = [(130, Frequency::from_mhz(500)), (260, Frequency::GHZ)];
        let (live, _) = transmeta_edges(None, 400, &requests);
        let (_, tape) = transmeta_edges(Some(JitterTape::new(31, JitterModel::paper())), 400, &[]);
        let (replayed, tape) = transmeta_edges(tape, 400, &requests);
        assert_eq!(replayed, live);
        // Draws after the PLL lock time diverge from the recorded stream,
        // so nothing is appended.
        assert_eq!(tape.expect("tape handed back").len(), 400);
    }

    #[test]
    #[should_panic(expected = "before the clock draws anything")]
    fn replay_cannot_start_after_a_pll_draw() {
        let ctl = VoltageController::new(
            DvfsModel::Transmeta,
            VfTable::paper(),
            PllModel::paper(),
            Frequency::GHZ,
        );
        let mut clk = DomainClock::with_controller(ctl, JitterModel::paper(), 31);
        clk.request_frequency(Femtos::ZERO, Frequency::from_mhz(500));
        clk.replay_jitter(JitterTape::new(31, JitterModel::paper()));
    }

    #[test]
    #[should_panic(expected = "another clock stream")]
    fn a_tape_only_replays_its_own_stream() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::paper(), 1);
        clk.replay_jitter(JitterTape::new(2, JitterModel::paper()));
    }

    #[test]
    fn fixed_clock_ignores_requests() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 9);
        assert!(!clk.request_frequency(Femtos::ZERO, Frequency::from_mhz(500)));
        clk.next_edge();
        assert_eq!(clk.frequency(), Frequency::GHZ);
    }
}
