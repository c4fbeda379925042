//! Campaign-level rollups: per-cell spans aggregated into one summary.
//!
//! A finished [`CampaignReport`] carries a wall-time
//! span for every cell; this module folds them into a [`CampaignRollup`] —
//! outcome counts, cache hit ratio, p50/p95/max cell latency, and a
//! breakdown of why any cells did not finish — that is persisted next to
//! the result cache (see [`ROLLUP_FILE`]) so `mcd-cli campaign report` can
//! print the last run's summary without re-running anything.
//!
//! The rollup is derived data: deleting it loses nothing but the summary.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::{CampaignReport, CellOutcome, SlackCacheStats};

/// Schema tag embedded in every rollup document. v5: adds the per-policy
/// breakdown for campaigns sweeping the online-governor axis (v4 added the
/// integrity layer — audit/divergence/quarantine attribution, cache
/// spot-check counters, and the checkpoint cadence; v3 the slack-profile
/// cache counters, v2 the per-benchmark breakdown and grid attribution);
/// older documents no longer load (the rollup is derived data — rerunning
/// the campaign regenerates it).
pub const ROLLUP_SCHEMA: &str = "mcd-campaign-rollup/5";

/// File name the rollup is persisted under, inside the cache directory.
pub const ROLLUP_FILE: &str = "campaign-rollup.json";

/// One reason cells did not produce a result, with its cell count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallCauseCount {
    /// Cause label: `"panic-deterministic"`, `"panic-transient"`,
    /// `"watchdog-stall"` or `"interrupted-skip"`.
    pub cause: String,
    /// Number of cells lost to this cause.
    pub cells: u64,
}

/// Outcome and latency breakdown for one benchmark of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkRollup {
    /// Benchmark name.
    pub benchmark: String,
    /// Cells of this benchmark (seeds × models).
    pub cells: u64,
    /// Cells computed this run.
    pub computed: u64,
    /// Cells served from the result cache.
    pub cached: u64,
    /// Cells that did not finish (failed, stalled, or skipped).
    pub unfinished: u64,
    /// Median per-cell wall time (nearest-rank, finished cells only).
    pub cell_seconds_p50: f64,
    /// 95th-percentile per-cell wall time (nearest-rank).
    pub cell_seconds_p95: f64,
    /// Slowest cell's wall time.
    pub cell_seconds_max: f64,
}

/// Outcome and latency breakdown for one online control policy of the
/// sweep. A cell carrying several policies counts toward each of them (the
/// governed rows all live inside that one cell).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRollup {
    /// Canonical policy spec (e.g. `attack-decay` or `queue-pi:kp=0.7`).
    pub policy: String,
    /// Cells that ran this policy.
    pub cells: u64,
    /// Cells computed this run.
    pub computed: u64,
    /// Cells served from the result cache.
    pub cached: u64,
    /// Cells that did not finish (failed, stalled, or skipped).
    pub unfinished: u64,
    /// Median per-cell wall time (nearest-rank, finished cells only).
    pub cell_seconds_p50: f64,
    /// 95th-percentile per-cell wall time (nearest-rank).
    pub cell_seconds_p95: f64,
    /// Slowest cell's wall time.
    pub cell_seconds_max: f64,
}

/// One grid worker's share of a distributed campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerRollup {
    /// Coordinator-assigned worker id (one per connection).
    pub worker: u64,
    /// Worker-reported name plus its socket peer address.
    pub peer: String,
    /// Worker environment fingerprint from the handshake.
    pub fingerprint: String,
    /// Cells this worker returned results for.
    pub cells: u64,
    /// Cells requeued because this worker was evicted mid-assignment.
    pub reassignments: u64,
    /// Redundant audit assignments this worker executed.
    pub audits: u64,
    /// This worker's cells confirmed byte-identical by a second opinion.
    pub verified: u64,
    /// This worker's results contradicted by the local arbiter.
    pub divergences: u64,
    /// Whether this worker was quarantined for lying.
    pub quarantined: bool,
    /// Wire bytes received from this worker.
    pub wire_bytes_in: u64,
    /// Wire bytes sent to this worker.
    pub wire_bytes_out: u64,
    /// 95th-percentile assignment→result round trip (seconds).
    pub cell_rtt_seconds_p95: f64,
}

/// Grid-wide attribution for a distributed campaign: per-worker shares
/// plus campaign totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridRollup {
    /// Per-worker shares, in worker-id order.
    pub workers: Vec<WorkerRollup>,
    /// Total cell reassignments caused by worker eviction.
    pub reassignments: u64,
    /// Total audit settlements (worker second opinions plus local
    /// arbiter fallbacks).
    pub audits: u64,
    /// Audits where the arbiter contradicted a worker's result.
    pub divergences: u64,
    /// Workers quarantined for lying.
    pub quarantined_workers: u64,
    /// Total wire bytes received from workers.
    pub wire_bytes_in: u64,
    /// Total wire bytes sent to workers.
    pub wire_bytes_out: u64,
    /// 95th-percentile assignment→result round trip across all cells.
    pub cell_rtt_seconds_p95: f64,
}

/// Aggregated view of one finished campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRollup {
    /// Always [`ROLLUP_SCHEMA`].
    pub schema: String,
    /// Total cells the spec expanded to.
    pub cells: u64,
    /// Cells computed this run.
    pub computed: u64,
    /// Cells served from the result cache.
    pub cached: u64,
    /// Cells that failed every attempt.
    pub failed: u64,
    /// Cells abandoned past the watchdog deadline.
    pub stalled: u64,
    /// Cells never claimed (interrupted campaign).
    pub skipped: u64,
    /// `cached / (cached + computed)`; 0 when nothing finished.
    pub cache_hit_ratio: f64,
    /// Total campaign wall time in seconds.
    pub wall_seconds: f64,
    /// Median per-cell wall time (nearest-rank, finished cells only).
    pub cell_seconds_p50: f64,
    /// 95th-percentile per-cell wall time (nearest-rank).
    pub cell_seconds_p95: f64,
    /// Slowest cell's wall time.
    pub cell_seconds_max: f64,
    /// Why cells did not finish, per cause (empty on a clean campaign).
    pub stall_causes: Vec<StallCauseCount>,
    /// Per-benchmark breakdown, in spec (figure) order.
    pub per_benchmark: Vec<BenchmarkRollup>,
    /// Per-policy breakdown for governed campaigns, in first-seen order
    /// (empty when no cell swept the online-governor axis).
    pub per_policy: Vec<PolicyRollup>,
    /// Slack-profile store lookups (distinct from result-cache probes: a
    /// slack hit skips the shaker pass inside a recomputed cell).
    pub slack_loads: u64,
    /// Slack-profile store lookups that returned a stored profile.
    pub slack_hits: u64,
    /// Slack profiles written to the store this run.
    pub slack_stores: u64,
    /// Result-cache entries re-verified by the startup spot check.
    pub spot_checked: u64,
    /// Spot-checked entries found corrupt (left for claim-time repair).
    pub spot_corrupt: u64,
    /// Checkpoint cadence: the manifest was persisted at least every this
    /// many completed cells (1 = every cell).
    pub checkpoint_every: u64,
    /// Distributed-execution attribution (`None` for local campaigns).
    pub grid: Option<GridRollup>,
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending-sorted finished-cell spans (seconds) matching `keep`.
fn sorted_spans(report: &CampaignReport, keep: impl Fn(&crate::CellReport) -> bool) -> Vec<f64> {
    let mut spans: Vec<f64> = report
        .cells
        .iter()
        .filter(|c| c.outcome.result().is_some() && keep(c))
        .map(|c| c.elapsed.as_secs_f64())
        .collect();
    spans.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    spans
}

impl CampaignRollup {
    /// Folds a finished campaign's per-cell records into a rollup.
    pub fn from_report(report: &CampaignReport) -> CampaignRollup {
        let spans = sorted_spans(report, |_| true);

        let mut per_benchmark: Vec<BenchmarkRollup> = Vec::new();
        for cell in &report.cells {
            let name = cell.cell.benchmark.as_str();
            if per_benchmark.iter().any(|b| b.benchmark == name) {
                continue;
            }
            let bench_spans = sorted_spans(report, |c| c.cell.benchmark == name);
            let rows = || report.cells.iter().filter(|c| c.cell.benchmark == name);
            let computed = rows()
                .filter(|c| matches!(c.outcome, CellOutcome::Computed { .. }))
                .count() as u64;
            let cached = rows()
                .filter(|c| matches!(c.outcome, CellOutcome::Cached(_)))
                .count() as u64;
            let total = rows().count() as u64;
            per_benchmark.push(BenchmarkRollup {
                benchmark: name.to_string(),
                cells: total,
                computed,
                cached,
                unfinished: total - computed - cached,
                cell_seconds_p50: percentile(&bench_spans, 0.50),
                cell_seconds_p95: percentile(&bench_spans, 0.95),
                cell_seconds_max: bench_spans.last().copied().unwrap_or(0.0),
            });
        }

        let mut per_policy: Vec<PolicyRollup> = Vec::new();
        for cell in &report.cells {
            for policy in &cell.cell.policies {
                if per_policy.iter().any(|p| &p.policy == policy) {
                    continue;
                }
                let policy_spans = sorted_spans(report, |c| c.cell.policies.contains(policy));
                let rows = || {
                    report
                        .cells
                        .iter()
                        .filter(|c| c.cell.policies.contains(policy))
                };
                let computed = rows()
                    .filter(|c| matches!(c.outcome, CellOutcome::Computed { .. }))
                    .count() as u64;
                let cached = rows()
                    .filter(|c| matches!(c.outcome, CellOutcome::Cached(_)))
                    .count() as u64;
                let total = rows().count() as u64;
                per_policy.push(PolicyRollup {
                    policy: policy.clone(),
                    cells: total,
                    computed,
                    cached,
                    unfinished: total - computed - cached,
                    cell_seconds_p50: percentile(&policy_spans, 0.50),
                    cell_seconds_p95: percentile(&policy_spans, 0.95),
                    cell_seconds_max: policy_spans.last().copied().unwrap_or(0.0),
                });
            }
        }

        let mut causes: Vec<StallCauseCount> = Vec::new();
        let mut bump = |cause: &str| {
            match causes.iter_mut().find(|c| c.cause == cause) {
                Some(c) => c.cells += 1,
                None => causes.push(StallCauseCount {
                    cause: cause.to_string(),
                    cells: 1,
                }),
            };
        };
        for cell in &report.cells {
            match &cell.outcome {
                CellOutcome::Cached(_) | CellOutcome::Computed { .. } => {}
                CellOutcome::Failed(f) if f.deterministic => bump("panic-deterministic"),
                CellOutcome::Failed(_) => bump("panic-transient"),
                CellOutcome::Stalled { .. } => bump("watchdog-stall"),
                CellOutcome::Skipped => bump("interrupted-skip"),
            }
        }
        causes.sort_by(|a, b| a.cause.cmp(&b.cause));

        let cached = report.cached() as u64;
        let computed = report.computed() as u64;
        let finished = cached + computed;
        CampaignRollup {
            schema: ROLLUP_SCHEMA.to_string(),
            cells: report.cells.len() as u64,
            computed,
            cached,
            failed: report.failed() as u64,
            stalled: report.stalled() as u64,
            skipped: report.skipped() as u64,
            cache_hit_ratio: if finished > 0 {
                cached as f64 / finished as f64
            } else {
                0.0
            },
            wall_seconds: report.wall.as_secs_f64(),
            cell_seconds_p50: percentile(&spans, 0.50),
            cell_seconds_p95: percentile(&spans, 0.95),
            cell_seconds_max: spans.last().copied().unwrap_or(0.0),
            stall_causes: causes,
            per_benchmark,
            per_policy,
            slack_loads: 0,
            slack_hits: 0,
            slack_stores: 0,
            spot_checked: 0,
            spot_corrupt: 0,
            checkpoint_every: 1,
            grid: None,
        }
    }

    /// Attaches the integrity counters: startup cache spot-check results
    /// and the checkpoint cadence the campaign ran with.
    pub fn with_integrity(
        mut self,
        spot_checked: usize,
        spot_corrupt: usize,
        checkpoint_every: u64,
    ) -> CampaignRollup {
        self.spot_checked = spot_checked as u64;
        self.spot_corrupt = spot_corrupt as u64;
        self.checkpoint_every = checkpoint_every.max(1);
        self
    }

    /// Whether the campaign finished without losing cells or catching a
    /// lie: no failed or stalled cells, no audit divergences, no
    /// quarantined workers. `campaign report` exits nonzero when this is
    /// false.
    pub fn healthy(&self) -> bool {
        let grid_clean = self
            .grid
            .as_ref()
            .map(|g| g.divergences == 0 && g.quarantined_workers == 0)
            .unwrap_or(true);
        self.failed == 0 && self.stalled == 0 && grid_clean
    }

    /// Attaches the slack-profile store counters to the rollup.
    pub fn with_slack(mut self, stats: SlackCacheStats) -> CampaignRollup {
        self.slack_loads = stats.loads;
        self.slack_hits = stats.hits;
        self.slack_stores = stats.stores;
        self
    }

    /// Writes the rollup as pretty JSON at `path` (atomic: temp + rename).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("JSON writing is infallible");
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, json)?;
        fs::rename(&tmp, path)
    }

    /// Loads a rollup previously written by [`CampaignRollup::save`].
    pub fn load(path: &Path) -> io::Result<CampaignRollup> {
        let json = fs::read_to_string(path)?;
        let rollup: CampaignRollup = serde_json::from_str(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if rollup.schema != ROLLUP_SCHEMA {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown rollup schema {:?}", rollup.schema),
            ));
        }
        Ok(rollup)
    }

    /// Renders the rollup as the aligned table `mcd-cli campaign report`
    /// prints.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let row = |out: &mut String, k: &str, v: String| {
            out.push_str(&format!("{k:<22} {v}\n"));
        };
        row(&mut out, "cells", self.cells.to_string());
        row(
            &mut out,
            "finished",
            format!(
                "{} ({} computed, {} cached)",
                self.computed + self.cached,
                self.computed,
                self.cached
            ),
        );
        row(
            &mut out,
            "cache hit ratio",
            format!("{:.1}%", self.cache_hit_ratio * 100.0),
        );
        if self.slack_loads > 0 || self.slack_stores > 0 {
            row(
                &mut out,
                "slack profile cache",
                format!(
                    "{} hits / {} lookups, {} stored",
                    self.slack_hits, self.slack_loads, self.slack_stores
                ),
            );
        }
        row(&mut out, "wall", format!("{:.3} s", self.wall_seconds));
        row(
            &mut out,
            "cell latency p50",
            format!("{:.3} s", self.cell_seconds_p50),
        );
        row(
            &mut out,
            "cell latency p95",
            format!("{:.3} s", self.cell_seconds_p95),
        );
        row(
            &mut out,
            "cell latency max",
            format!("{:.3} s", self.cell_seconds_max),
        );
        if self.stall_causes.is_empty() {
            row(&mut out, "unfinished cells", "none".to_string());
        } else {
            for c in &self.stall_causes {
                row(&mut out, &format!("lost: {}", c.cause), c.cells.to_string());
            }
        }
        if self.spot_checked > 0 {
            row(
                &mut out,
                "cache spot check",
                format!(
                    "{} checked, {} corrupt",
                    self.spot_checked, self.spot_corrupt
                ),
            );
        }
        row(
            &mut out,
            "checkpoint cadence",
            format!("every {} cells", self.checkpoint_every),
        );
        if !self.per_benchmark.is_empty() {
            out.push_str("\nper-benchmark\n");
            out.push_str(&format!(
                "  {:<12} {:>5} {:>8} {:>6} {:>10} {:>9} {:>9} {:>9}\n",
                "benchmark", "cells", "computed", "cached", "unfinished", "p50 s", "p95 s", "max s"
            ));
            for b in &self.per_benchmark {
                out.push_str(&format!(
                    "  {:<12} {:>5} {:>8} {:>6} {:>10} {:>9.3} {:>9.3} {:>9.3}\n",
                    b.benchmark,
                    b.cells,
                    b.computed,
                    b.cached,
                    b.unfinished,
                    b.cell_seconds_p50,
                    b.cell_seconds_p95,
                    b.cell_seconds_max,
                ));
            }
        }
        if !self.per_policy.is_empty() {
            out.push_str("\nper-policy\n");
            out.push_str(&format!(
                "  {:<36} {:>5} {:>8} {:>6} {:>10} {:>9} {:>9} {:>9}\n",
                "policy", "cells", "computed", "cached", "unfinished", "p50 s", "p95 s", "max s"
            ));
            for p in &self.per_policy {
                out.push_str(&format!(
                    "  {:<36} {:>5} {:>8} {:>6} {:>10} {:>9.3} {:>9.3} {:>9.3}\n",
                    p.policy,
                    p.cells,
                    p.computed,
                    p.cached,
                    p.unfinished,
                    p.cell_seconds_p50,
                    p.cell_seconds_p95,
                    p.cell_seconds_max,
                ));
            }
        }
        if let Some(grid) = &self.grid {
            out.push_str("\ngrid\n");
            out.push_str(&format!(
                "  {:<24} {:>5} {:>10} {:>6} {:>8} {:>8} {:>10} {:>10} {:>9}\n",
                "worker",
                "cells",
                "reassigned",
                "audits",
                "verified",
                "diverged",
                "bytes in",
                "bytes out",
                "rtt p95"
            ));
            for w in &grid.workers {
                out.push_str(&format!(
                    "  {:<24} {:>5} {:>10} {:>6} {:>8} {:>8} {:>10} {:>10} {:>8.3}s{}\n",
                    format!("#{} {}", w.worker, w.peer),
                    w.cells,
                    w.reassignments,
                    w.audits,
                    w.verified,
                    w.divergences,
                    w.wire_bytes_in,
                    w.wire_bytes_out,
                    w.cell_rtt_seconds_p95,
                    if w.quarantined { "  QUARANTINED" } else { "" },
                ));
            }
            out.push_str(&format!(
                "  {:<24} {:>5} {:>10} {:>6} {:>8} {:>8} {:>10} {:>10} {:>8.3}s\n",
                "total",
                grid.workers.iter().map(|w| w.cells).sum::<u64>(),
                grid.reassignments,
                grid.audits,
                grid.workers.iter().map(|w| w.verified).sum::<u64>(),
                grid.divergences,
                grid.wire_bytes_in,
                grid.wire_bytes_out,
                grid.cell_rtt_seconds_p95,
            ));
            if grid.quarantined_workers > 0 {
                out.push_str(&format!(
                    "  {} worker(s) quarantined for audit divergence\n",
                    grid.quarantined_workers
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::CellFailure;
    use crate::{CacheKey, CellPhases, CellReport, CellSpec};
    use mcd_time::DvfsModel;
    use std::time::Duration;

    fn cell(i: u64) -> CellSpec {
        CellSpec {
            benchmark: "adpcm".into(),
            seed: i,
            instructions: 1_000,
            model: DvfsModel::XScale,
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    fn report_with(outcomes: Vec<(CellOutcome, u64)>) -> CampaignReport {
        let cells = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, (outcome, millis))| CellReport {
                cell: cell(i as u64),
                key: CacheKey::of(&cell(i as u64)),
                outcome,
                elapsed: Duration::from_millis(millis),
                phases: CellPhases::default(),
            })
            .collect();
        CampaignReport {
            cells,
            wall: Duration::from_millis(500),
            interrupted: false,
        }
    }

    fn computed() -> CellOutcome {
        CellOutcome::Computed {
            result: cell(0).run(),
            attempts: 1,
        }
    }

    #[test]
    fn rollup_aggregates_latency_and_hit_ratio() {
        let cached = CellOutcome::Cached(cell(0).run());
        let r = report_with(vec![
            (computed(), 100),
            (computed(), 300),
            (cached.clone(), 10),
            (cached, 20),
        ]);
        let roll = CampaignRollup::from_report(&r);
        assert_eq!(roll.cells, 4);
        assert_eq!(roll.computed, 2);
        assert_eq!(roll.cached, 2);
        assert!((roll.cache_hit_ratio - 0.5).abs() < 1e-12);
        // Sorted spans: 10, 20, 100, 300 ms. Nearest-rank p50 = 2nd = 20 ms.
        assert!((roll.cell_seconds_p50 - 0.020).abs() < 1e-9);
        assert!((roll.cell_seconds_p95 - 0.300).abs() < 1e-9);
        assert!((roll.cell_seconds_max - 0.300).abs() < 1e-9);
        assert!(roll.stall_causes.is_empty());
    }

    #[test]
    fn rollup_breaks_down_unfinished_cells_by_cause() {
        let r = report_with(vec![
            (computed(), 50),
            (
                CellOutcome::Failed(CellFailure {
                    attempts: 2,
                    message: "boom".into(),
                    deterministic: true,
                }),
                5,
            ),
            (
                CellOutcome::Stalled {
                    waited: Duration::from_secs(1),
                },
                1_000,
            ),
            (CellOutcome::Skipped, 0),
            (CellOutcome::Skipped, 0),
        ]);
        let roll = CampaignRollup::from_report(&r);
        assert_eq!(roll.failed, 1);
        assert_eq!(roll.stalled, 1);
        assert_eq!(roll.skipped, 2);
        let by_cause: Vec<(&str, u64)> = roll
            .stall_causes
            .iter()
            .map(|c| (c.cause.as_str(), c.cells))
            .collect();
        assert_eq!(
            by_cause,
            vec![
                ("interrupted-skip", 2),
                ("panic-deterministic", 1),
                ("watchdog-stall", 1),
            ]
        );
    }

    #[test]
    fn rollup_breaks_down_per_benchmark() {
        let cached = CellOutcome::Cached(cell(0).run());
        let mut r = report_with(vec![
            (computed(), 100),
            (computed(), 300),
            (cached, 10),
            (CellOutcome::Skipped, 0),
        ]);
        // Rename the back half of the sweep to a second benchmark.
        for c in r.cells.iter_mut().skip(2) {
            c.cell.benchmark = "gsm".into();
        }
        let roll = CampaignRollup::from_report(&r);
        assert_eq!(roll.per_benchmark.len(), 2);
        let adpcm = &roll.per_benchmark[0];
        assert_eq!(adpcm.benchmark, "adpcm");
        assert_eq!((adpcm.cells, adpcm.computed, adpcm.cached), (2, 2, 0));
        assert_eq!(adpcm.unfinished, 0);
        assert!((adpcm.cell_seconds_max - 0.300).abs() < 1e-9);
        let gsm = &roll.per_benchmark[1];
        assert_eq!(gsm.benchmark, "gsm");
        assert_eq!((gsm.cells, gsm.computed, gsm.cached), (2, 0, 1));
        assert_eq!(gsm.unfinished, 1);
        assert!((gsm.cell_seconds_max - 0.010).abs() < 1e-9);
        let table = roll.table();
        assert!(table.contains("per-benchmark"));
        assert!(table.contains("adpcm"));
        assert!(table.contains("gsm"));
    }

    #[test]
    fn rollup_breaks_down_per_policy() {
        let cached = CellOutcome::Cached(cell(0).run());
        let mut r = report_with(vec![
            (computed(), 100),
            (computed(), 300),
            (cached, 10),
            (CellOutcome::Skipped, 0),
        ]);
        // Two cells run attack-decay, one of them also runs queue-pi; the
        // skipped cell is governed too.
        r.cells[0].cell.policies = vec!["attack-decay".into()];
        r.cells[1].cell.policies = vec!["attack-decay".into(), "queue-pi".into()];
        r.cells[3].cell.policies = vec!["queue-pi".into()];
        let roll = CampaignRollup::from_report(&r);
        assert_eq!(roll.per_policy.len(), 2);
        let ad = &roll.per_policy[0];
        assert_eq!(ad.policy, "attack-decay");
        assert_eq!(
            (ad.cells, ad.computed, ad.cached, ad.unfinished),
            (2, 2, 0, 0)
        );
        assert!((ad.cell_seconds_p50 - 0.100).abs() < 1e-9);
        assert!((ad.cell_seconds_max - 0.300).abs() < 1e-9);
        let pi = &roll.per_policy[1];
        assert_eq!(pi.policy, "queue-pi");
        assert_eq!(
            (pi.cells, pi.computed, pi.cached, pi.unfinished),
            (2, 1, 0, 1)
        );
        assert!((pi.cell_seconds_max - 0.300).abs() < 1e-9);
        let table = roll.table();
        assert!(table.contains("per-policy"));
        assert!(table.contains("attack-decay"));
        assert!(table.contains("queue-pi"));
        // A policy-free campaign keeps the section out of the report.
        let quiet = CampaignRollup::from_report(&report_with(vec![(computed(), 10)]));
        assert!(quiet.per_policy.is_empty());
        assert!(!quiet.table().contains("per-policy"));
    }

    #[test]
    fn grid_attribution_round_trips_and_renders() {
        let r = report_with(vec![(computed(), 100)]);
        let mut roll = CampaignRollup::from_report(&r);
        roll.grid = Some(GridRollup {
            workers: vec![WorkerRollup {
                worker: 1,
                peer: "w1@127.0.0.1:9".into(),
                fingerprint: "0.1.0 x86_64-linux debug".into(),
                cells: 1,
                reassignments: 2,
                audits: 1,
                verified: 1,
                divergences: 0,
                quarantined: false,
                wire_bytes_in: 512,
                wire_bytes_out: 1024,
                cell_rtt_seconds_p95: 0.25,
            }],
            reassignments: 2,
            audits: 1,
            divergences: 0,
            quarantined_workers: 0,
            wire_bytes_in: 512,
            wire_bytes_out: 1024,
            cell_rtt_seconds_p95: 0.25,
        });
        let dir = std::env::temp_dir().join(format!("mcd-rollup-grid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(ROLLUP_FILE);
        roll.save(&path).expect("save");
        let back = CampaignRollup::load(&path).expect("load");
        assert_eq!(back, roll);
        let _ = std::fs::remove_dir_all(&dir);
        let table = roll.table();
        assert!(table.contains("grid"));
        assert!(table.contains("#1 w1@127.0.0.1:9"));
    }

    #[test]
    fn slack_counters_round_trip_and_render() {
        let r = report_with(vec![(computed(), 100)]);
        let roll = CampaignRollup::from_report(&r).with_slack(SlackCacheStats {
            loads: 3,
            hits: 2,
            stores: 1,
        });
        assert_eq!(
            (roll.slack_loads, roll.slack_hits, roll.slack_stores),
            (3, 2, 1)
        );
        let table = roll.table();
        assert!(table.contains("slack profile cache"));
        assert!(table.contains("2 hits / 3 lookups, 1 stored"));
        // A campaign that never touched the store stays silent.
        let quiet = CampaignRollup::from_report(&r);
        assert!(!quiet.table().contains("slack profile cache"));
    }

    #[test]
    fn health_tracks_failures_and_divergences() {
        let clean = CampaignRollup::from_report(&report_with(vec![(computed(), 10)]));
        assert!(clean.healthy());
        let failed = CampaignRollup::from_report(&report_with(vec![(
            CellOutcome::Failed(CellFailure {
                attempts: 1,
                message: "boom".into(),
                deterministic: true,
            }),
            1,
        )]));
        assert!(!failed.healthy());
        let mut grid = GridRollup {
            workers: vec![],
            reassignments: 0,
            audits: 3,
            divergences: 0,
            quarantined_workers: 0,
            wire_bytes_in: 0,
            wire_bytes_out: 0,
            cell_rtt_seconds_p95: 0.0,
        };
        let with_grid = |grid: &GridRollup| CampaignRollup {
            grid: Some(grid.clone()),
            ..clean.clone()
        };
        assert!(with_grid(&grid).healthy());
        grid.divergences = 1;
        grid.quarantined_workers = 1;
        assert!(!with_grid(&grid).healthy());
    }

    #[test]
    fn integrity_counters_round_trip_and_render() {
        let r = report_with(vec![(computed(), 100)]);
        let roll = CampaignRollup::from_report(&r).with_integrity(8, 1, 5);
        assert_eq!((roll.spot_checked, roll.spot_corrupt), (8, 1));
        assert_eq!(roll.checkpoint_every, 5);
        let table = roll.table();
        assert!(table.contains("8 checked, 1 corrupt"));
        assert!(table.contains("every 5 cells"));
        // A zero cadence is clamped to the per-cell floor.
        assert_eq!(
            CampaignRollup::from_report(&r)
                .with_integrity(0, 0, 0)
                .checkpoint_every,
            1
        );
    }

    #[test]
    fn rollup_round_trips_through_disk() {
        let r = report_with(vec![(computed(), 100)]);
        let roll = CampaignRollup::from_report(&r);
        let dir = std::env::temp_dir().join(format!("mcd-rollup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(ROLLUP_FILE);
        roll.save(&path).expect("save");
        let back = CampaignRollup::load(&path).expect("load");
        assert_eq!(back, roll);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_report_rolls_up_to_zeros() {
        let roll = CampaignRollup::from_report(&report_with(vec![]));
        assert_eq!(roll.cells, 0);
        assert_eq!(roll.cache_hit_ratio, 0.0);
        assert_eq!(roll.cell_seconds_p50, 0.0);
        assert!(roll.table().contains("none"));
    }
}
