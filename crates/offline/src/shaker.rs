//! The shaker algorithm (§3.2).
//!
//! "The stretching phase of our reconfiguration tool uses a 'shaker'
//! algorithm to distribute slack and scale edges as uniformly as possible."
//!
//! The shaker sweeps the interval DAG backward and forward alternately with
//! a falling power threshold. On a backward pass it visits events latest
//! first: any event whose *outgoing* edges all have slack, and whose power
//! factor exceeds the threshold, is stretched into that slack (capped at
//! 4× — the ¼-frequency floor) and then pushed as late as possible so the
//! remaining slack moves to its incoming edges. Forward passes mirror this,
//! moving slack toward outgoing edges. The process stops when no usable
//! slack remains or every event adjacent to slack is already at the cap.
//!
//! # Worklist sweeps
//!
//! A full sweep visits every node on every pass, but after the first pass
//! pair almost every visit is a no-op: the node either has no slack in the
//! sweep direction or its power factor is below the falling threshold. The
//! production implementation therefore keeps a per-direction *pending* bit
//! per node and only does the slack/stretch arithmetic for pending nodes:
//!
//! * all scalable nodes start pending in both directions;
//! * a visit that finds the node's power at or below the threshold keeps it
//!   pending (the threshold falls every pass, so the node may become
//!   eligible later);
//! * a visit that finds no slack — or that consumes it (after acting, a
//!   node sits flush against its limit) — clears the bit; and
//! * a node is re-marked exactly when the event that could have grown its
//!   slack happens: a backward move of node *i* (its start shifts later)
//!   grows the *outgoing* slack of `preds(i)` and the *incoming* slack of
//!   *i* itself, a forward move (its end shifts earlier) grows the
//!   *incoming* slack of `succs(i)` and the *outgoing* slack of *i*.
//!
//! Marks behind the sweep cursor survive to the next same-direction sweep,
//! which is exactly when a full sweep would next act on them; marks ahead
//! of the cursor are handled in the current sweep, as a full sweep would.
//! Skipped nodes are provably no-ops under a full sweep, so both schemes
//! produce identical final state; debug builds assert this against
//! [`run_shaker_reference`] on every invocation, and a proptest plus the
//! golden fixtures pin it in CI.

use mcd_pipeline::DomainId;
use mcd_time::{Femtos, Frequency};

use crate::dag::IntervalDag;
use crate::histogram::FreqHistogram;

/// Shaker tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShakerConfig {
    /// Maximum stretch factor (the paper scales down to ¼ frequency).
    pub max_scale: f64,
    /// Number of backward+forward pass pairs (the threshold falls to zero
    /// across them).
    pub passes: usize,
}

impl Default for ShakerConfig {
    fn default() -> Self {
        ShakerConfig {
            max_scale: 4.0,
            passes: 10,
        }
    }
}

/// Reusable buffers for [`run_shaker_with`]: the per-interval visit orders
/// and the worklist pending bits. One scratch per analysis thread amortizes
/// the allocations across every interval that thread processes.
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    by_end_desc: Vec<u32>,
    by_start_asc: Vec<u32>,
    pending_backward: Vec<bool>,
    pending_forward: Vec<bool>,
}

impl AnalysisScratch {
    /// Creates an empty scratch; buffers grow to the largest interval seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts the visit orders for `dag` and seeds every scalable node as
    /// pending in both directions.
    fn prepare(&mut self, dag: &IntervalDag) {
        let n = dag.len();
        // Unstable sorts with the index as tie-breaker: same order as a
        // stable sort by the key alone, without the merge-sort scratch
        // allocation.
        self.by_end_desc.clear();
        self.by_end_desc.extend(0..n as u32);
        self.by_end_desc
            .sort_unstable_by_key(|&i| (std::cmp::Reverse(dag.meta[i as usize].orig_end), i));
        self.by_start_asc.clear();
        self.by_start_asc.extend(0..n as u32);
        self.by_start_asc
            .sort_unstable_by_key(|&i| (dag.meta[i as usize].orig_start, i));
        self.pending_backward.clear();
        self.pending_forward.clear();
        self.pending_backward
            .extend(dag.meta.iter().map(|m| m.scalable));
        self.pending_forward
            .extend(dag.meta.iter().map(|m| m.scalable));
    }
}

/// Stretches one interval's events into their slack. Returns per-domain
/// cycle-weighted frequency histograms (indexed by [`DomainId::index`]).
///
/// `base_frequency` is the full-speed clock of the trace run; an event
/// stretched by `s` is booked at frequency `base/s`.
///
/// Convenience wrapper over [`run_shaker_with`] with a throwaway scratch.
pub fn run_shaker(
    dag: &mut IntervalDag,
    cfg: &ShakerConfig,
    base_frequency: Frequency,
) -> [FreqHistogram; DomainId::COUNT] {
    run_shaker_with(dag, cfg, base_frequency, &mut AnalysisScratch::new())
}

/// [`run_shaker`] with caller-owned scratch buffers (worklist sweeps).
pub fn run_shaker_with(
    dag: &mut IntervalDag,
    cfg: &ShakerConfig,
    base_frequency: Frequency,
    scratch: &mut AnalysisScratch,
) -> [FreqHistogram; DomainId::COUNT] {
    #[cfg(debug_assertions)]
    let reference = {
        let mut clone = dag.clone();
        shake_full_sweeps(&mut clone, cfg);
        clone
    };

    let max_power = max_scalable_power(dag);
    if max_power > 0.0 {
        scratch.prepare(dag);
        for pass in 0..cfg.passes {
            // Threshold starts just below the maximum power factor and
            // falls linearly to zero.
            let threshold = max_power * (1.0 - (pass as f64 + 1.0) / cfg.passes as f64);
            backward_sweep(
                dag,
                cfg,
                threshold,
                &scratch.by_end_desc,
                &mut scratch.pending_backward,
                &mut scratch.pending_forward,
            );
            forward_sweep(
                dag,
                cfg,
                threshold,
                &scratch.by_start_asc,
                &mut scratch.pending_backward,
                &mut scratch.pending_forward,
            );
        }
    }

    #[cfg(debug_assertions)]
    {
        debug_assert_eq!(
            dag.scales, reference.scales,
            "worklist shaker diverged from full sweeps (scale)"
        );
        debug_assert_eq!(
            dag.starts, reference.starts,
            "worklist shaker diverged from full sweeps (start)"
        );
        debug_assert_eq!(
            dag.ends, reference.ends,
            "worklist shaker diverged from full sweeps (end)"
        );
        debug_assert_eq!(
            dag.powers, reference.powers,
            "worklist shaker diverged from full sweeps (power)"
        );
    }

    book_histograms(dag, base_frequency)
}

/// The original full-sweep shaker, kept as the executable specification the
/// worklist implementation is checked against (debug assertions and the
/// equivalence proptest).
pub fn run_shaker_reference(
    dag: &mut IntervalDag,
    cfg: &ShakerConfig,
    base_frequency: Frequency,
) -> [FreqHistogram; DomainId::COUNT] {
    shake_full_sweeps(dag, cfg);
    book_histograms(dag, base_frequency)
}

fn max_scalable_power(dag: &IntervalDag) -> f64 {
    dag.meta
        .iter()
        .zip(&dag.powers)
        .filter(|(m, _)| m.scalable)
        .map(|(_, &p)| p)
        .fold(0.0f64, f64::max)
}

fn shake_full_sweeps(dag: &mut IntervalDag, cfg: &ShakerConfig) {
    let max_power = max_scalable_power(dag);
    if max_power <= 0.0 {
        return;
    }
    // Visit orders by original event times (stable across passes).
    let mut by_end_desc: Vec<u32> = (0..dag.len() as u32).collect();
    by_end_desc.sort_by_key(|&i| std::cmp::Reverse(dag.meta[i as usize].orig_end));
    let mut by_start_asc: Vec<u32> = (0..dag.len() as u32).collect();
    by_start_asc.sort_by_key(|&i| dag.meta[i as usize].orig_start);

    for pass in 0..cfg.passes {
        let threshold = max_power * (1.0 - (pass as f64 + 1.0) / cfg.passes as f64);
        backward_pass_full(dag, cfg, threshold, &by_end_desc);
        forward_pass_full(dag, cfg, threshold, &by_start_asc);
    }
}

/// Histograms: every scalable event books its original cycle count at its
/// post-shaker frequency; unscalable back-end events count at full speed.
/// Front-end events are not scaled by the tool (the paper pins the front
/// end at 1 GHz) and are excluded from histograms.
fn book_histograms(
    dag: &IntervalDag,
    base_frequency: Frequency,
) -> [FreqHistogram; DomainId::COUNT] {
    let mut hists = [
        FreqHistogram::new(base_frequency),
        FreqHistogram::new(base_frequency),
        FreqHistogram::new(base_frequency),
        FreqHistogram::new(base_frequency),
    ];
    let base_hz = base_frequency.as_hz() as f64;
    let base_period = base_frequency.period().as_femtos() as f64;
    for (i, m) in dag.meta.iter().enumerate() {
        if m.domain == DomainId::FrontEnd {
            continue;
        }
        let cycles = m.domain_cycles;
        if cycles <= 0.0 {
            continue;
        }
        // Half a cycle of each event's harvested slack is issue-alignment
        // quantization in the measured schedule, not time the event could
        // really yield at a lower clock (along a dense dependence chain
        // every hop shows such sub-cycle gaps, and harvesting them would
        // let the tool scale a fully busy domain). Discount it.
        let orig_fs = (m.orig_end - m.orig_start).as_femtos() as f64;
        let stretched_fs = dag.scales[i] * orig_fs - 0.5 * base_period;
        let scale_eff = (stretched_fs / orig_fs).max(1.0);
        let f = Frequency::from_hz((base_hz / scale_eff).round().max(1.0) as u64);
        hists[m.domain.index()].add(f, cycles);
    }
    hists
}

/// Stretches node `i` into `slack` femtoseconds (backward: toward its end;
/// forward: toward its start) honoring the threshold and scale cap. Shared
/// by the full-sweep and worklist implementations so the arithmetic cannot
/// drift. Returns the new scale if the node was stretched.
#[inline]
fn stretch_node(
    dag: &mut IntervalDag,
    cfg: &ShakerConfig,
    threshold: f64,
    i: usize,
    slack: f64,
) -> Option<f64> {
    let orig = (dag.meta[i].orig_end - dag.meta[i].orig_start).as_femtos() as f64;
    let cur = (dag.ends[i] - dag.starts[i]).as_femtos() as f64;
    // Stretch until the slack is consumed, the ¼-frequency cap is hit,
    // or the power factor falls below the threshold.
    let scale_by_slack = (cur + slack) / orig;
    let scale_by_threshold = if threshold > 0.0 {
        (dag.powers[i] * dag.scales[i] * dag.scales[i] / threshold).sqrt()
    } else {
        f64::INFINITY
    };
    let new_scale = scale_by_slack.min(scale_by_threshold).min(cfg.max_scale);
    if new_scale > dag.scales[i] {
        dag.scales[i] = new_scale;
        dag.powers[i] = dag.powers[i] * (cur / orig) * (cur / orig) / (new_scale * new_scale);
        Some(new_scale)
    } else {
        None
    }
}

fn backward_pass_full(dag: &mut IntervalDag, cfg: &ShakerConfig, threshold: f64, order: &[u32]) {
    for &i in order {
        let i = i as usize;
        if !dag.meta[i].scalable || dag.powers[i] <= threshold {
            continue;
        }
        let limit = dag.out_limit(i);
        if limit <= dag.ends[i] {
            continue; // no outgoing slack
        }
        backward_visit(dag, cfg, threshold, i, limit);
    }
}

/// The backward-direction act: stretch into the outgoing slack, then push
/// the event as late as possible so the remaining slack moves to its
/// incoming edges.
#[inline]
fn backward_visit(
    dag: &mut IntervalDag,
    cfg: &ShakerConfig,
    threshold: f64,
    i: usize,
    limit: Femtos,
) {
    let slack = (limit - dag.ends[i]).as_femtos() as f64;
    if let Some(new_scale) = stretch_node(dag, cfg, threshold, i, slack) {
        let orig = (dag.meta[i].orig_end - dag.meta[i].orig_start).as_femtos() as f64;
        dag.ends[i] = dag.starts[i] + Femtos::from_femtos((orig * new_scale).round() as u64);
    }
    let n_end = dag.ends[i];
    if limit > n_end {
        let shift = limit - n_end;
        dag.starts[i] += shift;
        dag.ends[i] += shift;
    }
}

fn forward_pass_full(dag: &mut IntervalDag, cfg: &ShakerConfig, threshold: f64, order: &[u32]) {
    for &i in order {
        let i = i as usize;
        if !dag.meta[i].scalable || dag.powers[i] <= threshold {
            continue;
        }
        let limit = dag.in_limit(i);
        if limit >= dag.starts[i] {
            continue; // no incoming slack
        }
        forward_visit(dag, cfg, threshold, i, limit);
    }
}

/// The forward-direction act: stretch into the incoming slack, then pull
/// the event as early as possible so the remaining slack moves to its
/// outgoing edges.
#[inline]
fn forward_visit(
    dag: &mut IntervalDag,
    cfg: &ShakerConfig,
    threshold: f64,
    i: usize,
    limit: Femtos,
) {
    let slack = (dag.starts[i] - limit).as_femtos() as f64;
    if let Some(new_scale) = stretch_node(dag, cfg, threshold, i, slack) {
        let orig = (dag.meta[i].orig_end - dag.meta[i].orig_start).as_femtos() as f64;
        dag.starts[i] = dag.ends[i] - Femtos::from_femtos((orig * new_scale).round() as u64);
    }
    let n_start = dag.starts[i];
    if limit < n_start {
        let shift = n_start - limit;
        dag.starts[i] -= shift;
        dag.ends[i] -= shift;
    }
}

fn backward_sweep(
    dag: &mut IntervalDag,
    cfg: &ShakerConfig,
    threshold: f64,
    order: &[u32],
    pending_b: &mut [bool],
    pending_f: &mut [bool],
) {
    for &iu in order {
        let i = iu as usize;
        if !pending_b[i] {
            continue;
        }
        // Only scalable nodes are ever marked pending. A node at or below
        // the threshold stays pending: the threshold falls every pass.
        if dag.powers[i] <= threshold {
            continue;
        }
        pending_b[i] = false;
        let limit = dag.out_limit(i);
        if limit <= dag.ends[i] {
            continue; // no outgoing slack; a successor move re-marks us
        }
        let old_start = dag.starts[i];
        backward_visit(dag, cfg, threshold, i, limit);
        if dag.starts[i] != old_start {
            // The node moved later: its predecessors' outgoing slack and
            // its own incoming slack may have grown.
            for &p in dag.preds(i) {
                let p = p as usize;
                if dag.meta[p].scalable {
                    pending_b[p] = true;
                }
            }
            pending_f[i] = true;
        }
    }
}

fn forward_sweep(
    dag: &mut IntervalDag,
    cfg: &ShakerConfig,
    threshold: f64,
    order: &[u32],
    pending_b: &mut [bool],
    pending_f: &mut [bool],
) {
    for &iu in order {
        let i = iu as usize;
        if !pending_f[i] {
            continue;
        }
        if dag.powers[i] <= threshold {
            continue;
        }
        pending_f[i] = false;
        let limit = dag.in_limit(i);
        if limit >= dag.starts[i] {
            continue; // no incoming slack; a predecessor move re-marks us
        }
        let old_end = dag.ends[i];
        forward_visit(dag, cfg, threshold, i, limit);
        if dag.ends[i] != old_end {
            // The node moved earlier: its successors' incoming slack and
            // its own outgoing slack may have grown.
            for &s in dag.succs(i) {
                let s = s as usize;
                if dag.meta[s].scalable {
                    pending_f[s] = true;
                }
            }
            pending_b[i] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Node;
    use mcd_pipeline::EventKind;
    use proptest::prelude::*;

    /// Builds a hand-rolled two-node chain with `gap` femtoseconds of slack
    /// between them inside a closed interval.
    fn chain_dag(gap: u64) -> IntervalDag {
        let mk = |instr, s: u64, e: u64, scalable| Node {
            instr,
            kind: EventKind::Execute,
            domain: DomainId::Integer,
            orig_start: Femtos::from_femtos(s),
            orig_end: Femtos::from_femtos(e),
            start: Femtos::from_femtos(s),
            end: Femtos::from_femtos(e),
            scale: 1.0,
            power: 1.0,
            scalable,
            domain_cycles: (e - s) as f64 / 1_000_000.0,
        };
        IntervalDag::from_events(
            Femtos::ZERO,
            Femtos::from_femtos(4_000 + gap),
            2,
            vec![mk(0, 0, 1_000, true), mk(1, 1_000 + gap, 2_000 + gap, true)],
            &[(0, 1)],
        )
    }

    #[test]
    fn shaker_consumes_slack() {
        let mut dag = chain_dag(3_000);
        let before = dag.total_slack();
        run_shaker(&mut dag, &ShakerConfig::default(), Frequency::GHZ);
        let after = dag.total_slack();
        assert!(after < before, "slack should shrink: {before} -> {after}");
        assert!(dag.nodes().any(|n| n.scale > 1.0));
    }

    #[test]
    fn shaker_respects_quarter_frequency_cap() {
        let mut dag = chain_dag(1_000_000); // oceans of slack
        run_shaker(&mut dag, &ShakerConfig::default(), Frequency::GHZ);
        for n in dag.nodes() {
            assert!(n.scale <= 4.0 + 1e-9, "scale {}", n.scale);
        }
    }

    #[test]
    fn shaker_never_violates_dependences() {
        let mut dag = chain_dag(2_500);
        run_shaker(&mut dag, &ShakerConfig::default(), Frequency::GHZ);
        // Successor must still start no earlier than predecessor ends.
        assert!(dag.end_of(0) <= dag.start_of(1));
        // Nothing may leave the interval.
        for n in dag.nodes() {
            assert!(n.start >= dag.start && n.end <= dag.end);
        }
    }

    #[test]
    fn unscalable_nodes_are_untouched() {
        let mut dag = chain_dag(3_000);
        dag.meta[0].scalable = false;
        dag.meta[1].scalable = false;
        run_shaker(&mut dag, &ShakerConfig::default(), Frequency::GHZ);
        assert_eq!(dag.scale_of(0), 1.0);
        assert_eq!(dag.start_of(0), Femtos::ZERO);
        assert_eq!(dag.scale_of(1), 1.0);
    }

    #[test]
    fn no_slack_means_no_stretching() {
        let mut dag = chain_dag(0);
        dag.end = Femtos::from_femtos(2_000); // seal the interval tight
        run_shaker(&mut dag, &ShakerConfig::default(), Frequency::GHZ);
        assert_eq!(dag.scale_of(0), 1.0);
        assert_eq!(dag.scale_of(1), 1.0);
    }

    #[test]
    fn histograms_book_scaled_cycles() {
        let mut dag = chain_dag(3_000);
        let hists = run_shaker(&mut dag, &ShakerConfig::default(), Frequency::GHZ);
        let int_hist = &hists[DomainId::Integer.index()];
        // Two 1000-cycle events (1000 fs @ 1 GHz = 1 cycle each... in fs:
        // 1000 fs is 0.001 cycles; just check mass is positive and finite).
        assert!(int_hist.total_cycles() > 0.0);
        assert!(hists[DomainId::FloatingPoint.index()].is_empty());
    }

    #[test]
    fn power_factor_drops_quadratically_with_scale() {
        let mut dag = chain_dag(3_000);
        run_shaker(&mut dag, &ShakerConfig::default(), Frequency::GHZ);
        for n in dag.nodes() {
            let expected = 1.0 / (n.scale * n.scale);
            assert!(
                (n.power - expected).abs() / expected < 1e-3,
                "power {} scale {}",
                n.power,
                n.scale
            );
        }
    }

    #[test]
    fn scratch_is_reusable_across_intervals() {
        let mut scratch = AnalysisScratch::new();
        let mut a = chain_dag(3_000);
        let mut b = chain_dag(500);
        let ha = run_shaker_with(
            &mut a,
            &ShakerConfig::default(),
            Frequency::GHZ,
            &mut scratch,
        );
        let hb = run_shaker_with(
            &mut b,
            &ShakerConfig::default(),
            Frequency::GHZ,
            &mut scratch,
        );
        let mut fresh_a = chain_dag(3_000);
        let mut fresh_b = chain_dag(500);
        assert_eq!(
            ha,
            run_shaker(&mut fresh_a, &ShakerConfig::default(), Frequency::GHZ)
        );
        assert_eq!(
            hb,
            run_shaker(&mut fresh_b, &ShakerConfig::default(), Frequency::GHZ)
        );
    }

    /// A random but valid interval DAG: a few parallel chains over a closed
    /// interval, with random gaps, durations, scalability flags and
    /// cross-chain edges (kept only when they carry non-negative slack —
    /// `from_events` drops the rest, as the real builder does).
    fn arb_dag() -> impl Strategy<Value = IntervalDag> {
        let node = (1u64..2_000, 0u64..3_000, any::<bool>());
        (
            proptest::collection::vec(proptest::collection::vec(node, 1..8), 1..4),
            proptest::collection::vec((0usize..32, 0usize..32), 0..8),
        )
            .prop_map(|(chains, cross)| {
                let mut nodes = Vec::new();
                let mut edges = Vec::new();
                for chain in &chains {
                    let mut t = 0u64;
                    let mut prev: Option<u32> = None;
                    for &(dur, gap, scalable) in chain {
                        t += gap;
                        let id = nodes.len() as u32;
                        nodes.push(Node {
                            instr: id as u64,
                            kind: EventKind::Execute,
                            domain: if id.is_multiple_of(3) {
                                DomainId::FloatingPoint
                            } else {
                                DomainId::Integer
                            },
                            orig_start: Femtos::from_femtos(t),
                            orig_end: Femtos::from_femtos(t + dur),
                            start: Femtos::from_femtos(t),
                            end: Femtos::from_femtos(t + dur),
                            scale: 1.0,
                            power: [0.8, 1.0, 0.9][id as usize % 3],
                            scalable,
                            domain_cycles: dur as f64 / 1_000_000.0,
                        });
                        if let Some(p) = prev {
                            edges.push((p, id));
                        }
                        prev = Some(id);
                        t += dur;
                    }
                }
                let n = nodes.len() as u32;
                for (a, b) in cross {
                    let (a, b) = (a as u32 % n, b as u32 % n);
                    if a != b {
                        edges.push((a, b));
                    }
                }
                let end = nodes
                    .iter()
                    .map(|nd| nd.orig_end)
                    .fold(Femtos::ZERO, Femtos::max);
                let count = nodes.len() as u64;
                IntervalDag::from_events(
                    Femtos::ZERO,
                    end + Femtos::from_femtos(2_500),
                    count,
                    nodes,
                    &edges,
                )
            })
    }

    proptest! {
        /// The worklist sweeps must match the full-sweep reference exactly:
        /// same scales, same final event times, same booked histograms.
        #[test]
        fn worklist_matches_full_sweeps(dag in arb_dag(), passes in 1usize..12) {
            let cfg = ShakerConfig { max_scale: 4.0, passes };
            let mut work = dag.clone();
            let mut full = dag;
            let hw = run_shaker_with(
                &mut work, &cfg, Frequency::GHZ, &mut AnalysisScratch::new(),
            );
            let hf = run_shaker_reference(&mut full, &cfg, Frequency::GHZ);
            prop_assert_eq!(&work.scales, &full.scales);
            prop_assert_eq!(&work.starts, &full.starts);
            prop_assert_eq!(&work.ends, &full.ends);
            prop_assert_eq!(&work.powers, &full.powers);
            prop_assert_eq!(hw, hf);
        }
    }
}
