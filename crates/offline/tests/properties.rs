//! Property-based tests for the off-line analysis algorithms.

use proptest::prelude::*;

use mcd_offline::cluster::{cluster_domain, ClusterConfig};
use mcd_offline::FreqHistogram;
use mcd_time::{DvfsModel, Femtos, Frequency, FrequencyGrid, PllModel, VfTable};

fn histogram(masses: &[(u64, f64)]) -> FreqHistogram {
    let mut h = FreqHistogram::new(Frequency::GHZ);
    for (mhz, cycles) in masses {
        h.add(Frequency::from_mhz((*mhz).clamp(250, 1000)), *cycles);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dilation_is_monotone_decreasing_in_frequency(
        masses in proptest::collection::vec((250u64..1000, 1.0f64..1e6), 1..20),
        f1 in 250u64..1000,
        f2 in 250u64..1000,
    ) {
        let h = histogram(&masses);
        let (lo, hi) = (f1.min(f2), f1.max(f2));
        let d_lo = h.dilation_at(Frequency::from_mhz(lo));
        let d_hi = h.dilation_at(Frequency::from_mhz(hi));
        prop_assert!(d_lo >= d_hi, "lower frequency must dilate at least as much");
        prop_assert_eq!(h.dilation_at(Frequency::GHZ), Femtos::ZERO);
    }

    #[test]
    fn chosen_frequency_always_meets_the_budget(
        masses in proptest::collection::vec((250u64..1000, 1.0f64..1e6), 1..20),
        budget_us in 0u64..200,
        steps in 2usize..64,
    ) {
        let h = histogram(&masses);
        let grid = FrequencyGrid::new(VfTable::paper(), steps);
        let budget = Femtos::from_micros(budget_us);
        let f = h.choose_frequency(&grid, budget);
        prop_assert!(
            h.dilation_at(f) <= budget || f == Frequency::GHZ,
            "chosen frequency {f} violates budget"
        );
        // Minimality: the next lower grid point (if any) must violate it.
        if let Some(lower) = grid.points().iter().rev().find(|p| p.frequency < f) {
            prop_assert!(h.dilation_at(lower.frequency) > budget);
        }
    }

    #[test]
    fn choose_frequency_matches_a_scan_of_dilation_at(
        masses in proptest::collection::vec((250u64..1000, 1.0f64..1e6), 0..20),
        steps in 2usize..64,
        at in 0usize..64,
        nudge_fs in 0u64..3,
    ) {
        // Budgets on and one femtosecond either side of a grid point's own
        // dilation, where a sum off by one ulp would choose another point.
        let h = histogram(&masses);
        let grid = FrequencyGrid::new(VfTable::paper(), steps);
        let points = grid.points();
        let edge = h.dilation_at(points[at % points.len()].frequency);
        let budget = (edge + Femtos::from_femtos(nudge_fs)).saturating_sub(Femtos::from_femtos(1));
        let spec = points
            .iter()
            .find(|p| h.dilation_at(p.frequency) <= budget)
            .unwrap_or(points.last().expect("grid non-empty"))
            .frequency;
        prop_assert_eq!(h.choose_frequency(&grid, budget), spec);
    }

    #[test]
    fn merge_is_mass_preserving(
        a in proptest::collection::vec((250u64..1000, 1.0f64..1e5), 1..10),
        b in proptest::collection::vec((250u64..1000, 1.0f64..1e5), 1..10),
    ) {
        let mut ha = histogram(&a);
        let hb = histogram(&b);
        let before = ha.total_cycles() + hb.total_cycles();
        ha.merge(&hb);
        prop_assert!((ha.total_cycles() - before).abs() < 1e-6 * before.max(1.0));
    }

    #[test]
    fn clusters_tile_the_timeline(
        masses in proptest::collection::vec(
            proptest::collection::vec((250u64..1000, 1.0f64..1e5), 0..5),
            1..12,
        ),
        model_is_xscale in any::<bool>(),
    ) {
        let model = if model_is_xscale { DvfsModel::XScale } else { DvfsModel::Transmeta };
        let cfg = ClusterConfig {
            dilation_target: 0.05,
            budget_safety: 1.0,
            model,
            vf: VfTable::paper(),
            pll: PllModel::paper(),
        };
        let intervals: Vec<_> = masses
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (
                    Femtos::from_micros(i as u64 * 50),
                    Femtos::from_micros((i as u64 + 1) * 50),
                    histogram(m),
                )
            })
            .collect();
        let clusters = cluster_domain(&intervals, &cfg);
        prop_assert!(!clusters.is_empty());
        prop_assert_eq!(clusters[0].start, Femtos::ZERO);
        prop_assert_eq!(
            clusters.last().expect("non-empty").end,
            Femtos::from_micros(masses.len() as u64 * 50)
        );
        for pair in clusters.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start, "no gaps or overlaps");
        }
        for c in &clusters {
            prop_assert!(c.frequency >= Frequency::MIN_SCALED);
            prop_assert!(c.frequency <= Frequency::GHZ);
        }
    }
}
