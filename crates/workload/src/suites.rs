//! The sixteen benchmarks of the paper's Table 2, as synthetic profiles.
//!
//! Parameters are calibrated to the qualitative characteristics the paper
//! reports or that are well known for these codes:
//!
//! * `gcc` — 12.5 % L1D miss rate (stated explicitly in §4), large code
//!   footprint, branchy;
//! * `g721` — "well balanced instruction mix, high utilization of the
//!   integer and load/store domains, low cache miss rate, low branch
//!   misprediction rate, IPC above 2";
//! * `art` — floating-point but with "many instruction intervals during
//!   which we can safely scale back the floating point domain": modeled as
//!   alternating FP-busy and FP-idle phases (the structure behind Fig. 8);
//! * `swim` — FP domain must stay fast (high utilization) and a relatively
//!   high branch misprediction rate;
//! * `mcf`, `em3d`, `health` — memory-bound pointer chasers;
//! * `adpcm` — serial dependence chains (worst-case MCD sync overhead).

use crate::profile::{BenchmarkProfile, Mix, PhaseSpec, Suite};

/// Shorthand: build a phase from the common knobs.
#[allow(clippy::too_many_arguments)]
fn phase(
    length: u64,
    mix: Mix,
    dep_density: f64,
    dep_distance: f64,
    l1d_miss: f64,
    l2_miss: f64,
    random_branch_frac: f64,
    code_kb: u64,
) -> PhaseSpec {
    PhaseSpec {
        length,
        mix,
        dep_density,
        dep_distance,
        l1d_miss,
        l2_miss,
        hot_set_bytes: 16 << 10,
        cold_set_bytes: 8 << 20,
        random_branch_frac,
        code_bytes: code_kb << 10,
    }
}

/// Mix order: `[IntAlu, IntMul, IntDiv, FpAdd, FpMul, FpDiv, FpSqrt, Load, Store, Branch]`.
fn mix(w: [f64; 10]) -> Mix {
    Mix::from_weights(w)
}

/// Builds one benchmark's profile.
type Constructor = fn() -> BenchmarkProfile;

/// The sixteen benchmarks by Table-2 name, in the paper's figure order,
/// each with the constructor of its profile.
const BENCHMARKS: [(&str, Constructor); 16] = [
    ("adpcm", adpcm),
    ("epic", epic),
    ("g721", g721),
    ("mesa", mesa),
    ("em3d", em3d),
    ("health", health),
    ("mst", mst),
    ("power", power),
    ("treeadd", treeadd),
    ("tsp", tsp),
    ("bzip2", bzip2),
    ("gcc", gcc),
    ("mcf", mcf),
    ("parser", parser),
    ("art", art),
    ("swim", swim),
];

/// All sixteen benchmark profiles, in the paper's Table 2 / figure order.
pub fn all() -> Vec<BenchmarkProfile> {
    BENCHMARKS.iter().map(|(_, build)| build()).collect()
}

/// Looks a profile up by Table-2 name, building only that profile.
pub fn by_name(name: &str) -> Option<BenchmarkProfile> {
    BENCHMARKS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

/// Names of all benchmarks in figure order.
pub fn names() -> Vec<&'static str> {
    BENCHMARKS.iter().map(|(name, _)| *name).collect()
}

/// adpcm — serial integer DSP kernel; long dependence chains make it the
/// most sensitive benchmark to inter-domain synchronization.
pub fn adpcm() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "adpcm",
        Suite::MediaBench,
        "ref, entire program",
        vec![
            phase(
                144_000,
                mix([0.52, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.19, 0.10, 0.18]),
                0.68,
                2.5,
                0.003,
                0.05,
                0.02,
                4,
            ),
            phase(
                36_000,
                mix([0.45, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.14, 0.15]),
                0.62,
                3.0,
                0.01,
                0.05,
                0.05,
                8,
            ),
        ],
    )
}

/// epic — image compression: a filtering phase with light FP, then an
/// integer encode phase.
pub fn epic() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "epic",
        Suite::MediaBench,
        "ref, entire program",
        vec![
            phase(
                90_000,
                mix([0.28, 0.02, 0.0, 0.12, 0.10, 0.01, 0.0, 0.28, 0.09, 0.10]),
                0.42,
                5.0,
                0.04,
                0.10,
                0.06,
                12,
            ),
            phase(
                90_000,
                mix([0.48, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.22, 0.12, 0.17]),
                0.50,
                4.0,
                0.015,
                0.08,
                0.08,
                16,
            ),
        ],
    )
}

/// g721 — balanced mix, IPC above 2, integer and load/store domains near
/// saturation; the worst case for MCD dynamic scaling.
pub fn g721() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "g721",
        Suite::MediaBench,
        "ref, 0–200M",
        vec![phase(
            180_000,
            mix([0.44, 0.03, 0.005, 0.01, 0.01, 0.0, 0.0, 0.25, 0.11, 0.145]),
            0.32,
            7.0,
            0.005,
            0.05,
            0.03,
            8,
        )],
    )
}

/// mesa — 3-D graphics: FP transform phase plus integer rasterize phase.
pub fn mesa() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "mesa",
        Suite::MediaBench,
        "ref, entire program",
        vec![
            phase(
                105_000,
                mix([0.22, 0.01, 0.0, 0.17, 0.14, 0.02, 0.005, 0.26, 0.09, 0.085]),
                0.38,
                6.0,
                0.02,
                0.08,
                0.05,
                24,
            ),
            phase(
                75_000,
                mix([0.42, 0.02, 0.0, 0.02, 0.01, 0.0, 0.0, 0.26, 0.12, 0.15]),
                0.46,
                5.0,
                0.03,
                0.10,
                0.08,
                24,
            ),
        ],
    )
}

/// em3d — electromagnetic wave propagation on a bipartite graph: serial
/// load-to-load pointer chasing, memory bound.
pub fn em3d() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "em3d",
        Suite::Olden,
        "4K nodes arity 10, 70M–119M",
        vec![phase(
            150_000,
            mix([0.30, 0.0, 0.0, 0.06, 0.05, 0.0, 0.0, 0.36, 0.08, 0.15]),
            0.85,
            1.5,
            0.12,
            0.45,
            0.06,
            8,
        )],
    )
}

/// health — hierarchical health-care simulation: pointer-heavy with
/// irregular branches.
pub fn health() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "health",
        Suite::Olden,
        "4 levels 1K iters, 80M–127M",
        vec![
            phase(
                90_000,
                mix([0.36, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.33, 0.11, 0.19]),
                0.8,
                2.0,
                0.10,
                0.30,
                0.15,
                16,
            ),
            phase(
                45_000,
                mix([0.45, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.26, 0.11, 0.17]),
                0.42,
                5.0,
                0.04,
                0.15,
                0.10,
                16,
            ),
        ],
    )
}

/// mst — minimum spanning tree over a hash-based graph.
pub fn mst() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "mst",
        Suite::Olden,
        "1K nodes, entire program",
        vec![phase(
            120_000,
            mix([0.40, 0.02, 0.0, 0.0, 0.0, 0.0, 0.0, 0.30, 0.10, 0.18]),
            0.7,
            2.5,
            0.08,
            0.25,
            0.09,
            12,
        )],
    )
}

/// power — power-system optimization: compute-bound with real FP content.
pub fn power() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "power",
        Suite::Olden,
        "ref, 199M",
        vec![phase(
            135_000,
            mix([0.24, 0.02, 0.005, 0.18, 0.14, 0.03, 0.005, 0.22, 0.08, 0.10]),
            0.42,
            5.5,
            0.01,
            0.1,
            0.04,
            12,
        )],
    )
}

/// treeadd — recursive binary-tree summation.
pub fn treeadd() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "treeadd",
        Suite::Olden,
        "20 levels 1 iter, 0–200M",
        vec![phase(
            120_000,
            mix([0.38, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.32, 0.12, 0.18]),
            0.6,
            3.0,
            0.05,
            0.20,
            0.05,
            4,
        )],
    )
}

/// tsp — traveling salesman: mixed integer/FP compute with low miss rates.
pub fn tsp() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "tsp",
        Suite::Olden,
        "ref, entire program",
        vec![
            phase(
                90_000,
                mix([0.33, 0.02, 0.005, 0.10, 0.08, 0.015, 0.0, 0.24, 0.08, 0.13]),
                0.46,
                4.5,
                0.02,
                0.10,
                0.07,
                12,
            ),
            phase(
                60_000,
                mix([0.45, 0.02, 0.0, 0.01, 0.01, 0.0, 0.0, 0.23, 0.10, 0.18]),
                0.5,
                4.0,
                0.03,
                0.12,
                0.08,
                12,
            ),
        ],
    )
}

/// bzip2 — compression: integer, mildly memory- and branch-limited.
pub fn bzip2() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "bzip2",
        Suite::SpecInt2000,
        "input.source, 189M",
        vec![
            phase(
                105_000,
                mix([0.46, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.11, 0.17]),
                0.46,
                4.5,
                0.035,
                0.12,
                0.12,
                32,
            ),
            phase(
                60_000,
                mix([0.50, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.22, 0.09, 0.18]),
                0.54,
                3.5,
                0.015,
                0.08,
                0.08,
                32,
            ),
        ],
    )
}

/// gcc — compiler on 166.i: 12.5 % L1D miss rate (paper §4), large code
/// footprint, branchy.
pub fn gcc() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "gcc",
        Suite::SpecInt2000,
        "166.i, 0–200M",
        vec![
            phase(
                90_000,
                mix([0.40, 0.01, 0.003, 0.0, 0.0, 0.0, 0.0, 0.25, 0.12, 0.217]),
                0.46,
                4.0,
                0.125,
                0.15,
                0.12,
                192,
            ),
            phase(
                60_000,
                mix([0.44, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.24, 0.11, 0.20]),
                0.42,
                4.5,
                0.10,
                0.12,
                0.10,
                160,
            ),
        ],
    )
}

/// mcf — single-depot vehicle scheduling: the most memory-bound SPEC
/// integer code; dominated by L2 misses.
pub fn mcf() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "mcf",
        Suite::SpecInt2000,
        "ref, 1000M–1100M",
        vec![phase(
            150_000,
            mix([0.34, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.35, 0.09, 0.21]),
            0.8,
            2.0,
            0.20,
            0.60,
            0.10,
            16,
        )],
    )
}

/// parser — natural-language parsing: branchy integer code.
pub fn parser() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "parser",
        Suite::SpecInt2000,
        "ref, 1000M–1100M",
        vec![
            phase(
                90_000,
                mix([0.42, 0.01, 0.002, 0.0, 0.0, 0.0, 0.0, 0.25, 0.10, 0.218]),
                0.6,
                3.0,
                0.04,
                0.12,
                0.15,
                48,
            ),
            phase(
                45_000,
                mix([0.46, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.23, 0.10, 0.20]),
                0.46,
                4.0,
                0.025,
                0.10,
                0.10,
                48,
            ),
        ],
    )
}

/// art — neural-network image recognition: alternating FP-busy scans and
/// FP-idle bookkeeping, both memory-hungry. The alternation is what lets the
/// off-line tool scale the FP domain repeatedly (paper Fig. 8).
pub fn art() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "art",
        Suite::SpecFp2000,
        "ref, 300M–400M",
        vec![
            phase(
                90_000,
                mix([0.18, 0.01, 0.0, 0.22, 0.17, 0.01, 0.0, 0.26, 0.07, 0.08]),
                0.5,
                4.0,
                0.10,
                0.18,
                0.04,
                12,
            ),
            phase(
                75_000,
                mix([0.42, 0.01, 0.0, 0.015, 0.01, 0.0, 0.0, 0.28, 0.09, 0.175]),
                0.6,
                3.0,
                0.12,
                0.22,
                0.06,
                12,
            ),
        ],
    )
}

/// swim — shallow-water modeling: streaming FP loop nests; the FP domain is
/// busy nearly all the time, and branch behaviour limits scaling.
pub fn swim() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "swim",
        Suite::SpecFp2000,
        "ref, 1000M–1100M",
        vec![phase(
            180_000,
            mix([0.17, 0.01, 0.0, 0.24, 0.19, 0.02, 0.005, 0.25, 0.08, 0.035]),
            0.38,
            5.0,
            0.08,
            0.35,
            0.15,
            8,
        )],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::OpClass;

    #[test]
    fn sixteen_benchmarks_in_figure_order() {
        let profiles = all();
        assert_eq!(profiles.len(), 16);
        let got: Vec<_> = profiles.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(got, names());
    }

    #[test]
    fn by_name_finds_each() {
        for name in names() {
            let p = by_name(name).expect("profile exists");
            assert_eq!(p.name, name);
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn suites_match_table2() {
        assert_eq!(by_name("adpcm").unwrap().suite, Suite::MediaBench);
        assert_eq!(by_name("em3d").unwrap().suite, Suite::Olden);
        assert_eq!(by_name("gcc").unwrap().suite, Suite::SpecInt2000);
        assert_eq!(by_name("swim").unwrap().suite, Suite::SpecFp2000);
    }

    #[test]
    fn gcc_has_paper_miss_rate() {
        let gcc = by_name("gcc").unwrap();
        assert!((gcc.avg_l1d_miss() - 0.115).abs() < 0.02);
    }

    #[test]
    fn integer_benchmarks_have_no_fp() {
        for name in [
            "adpcm", "gcc", "mcf", "bzip2", "parser", "treeadd", "health", "mst",
        ] {
            let p = by_name(name).unwrap();
            assert!(p.avg_fp_fraction() < 0.01, "{name} should be integer-only");
        }
    }

    #[test]
    fn fp_benchmarks_have_fp_content() {
        for name in ["art", "swim", "mesa", "power"] {
            let p = by_name(name).unwrap();
            assert!(p.avg_fp_fraction() > 0.15, "{name} should have FP content");
        }
    }

    #[test]
    fn art_alternates_fp_busy_and_idle() {
        let art = by_name("art").unwrap();
        assert_eq!(art.phases.len(), 2);
        assert!(art.phases[0].mix.fp_fraction() > 0.3);
        assert!(art.phases[1].mix.fp_fraction() < 0.05);
    }

    #[test]
    fn mcf_is_most_memory_bound() {
        let mcf = by_name("mcf").unwrap();
        for p in all() {
            assert!(mcf.avg_l1d_miss() >= p.avg_l1d_miss() - 1e-9 || p.name == "mcf");
        }
    }

    #[test]
    fn all_mixes_include_branches_and_memory() {
        for p in all() {
            for ph in &p.phases {
                assert!(ph.mix.fraction(OpClass::Branch) > 0.02, "{}", p.name);
                assert!(ph.mix.mem_fraction() > 0.2, "{}", p.name);
            }
        }
    }
}
