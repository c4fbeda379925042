//! Supervised computation of one campaign cell.
//!
//! The supervisor is the layer between a campaign worker and the
//! simulator: it owns everything that can go wrong *inside* a cell and
//! turns each failure mode into a structured outcome. (The cache probe,
//! quarantine and store around a cell belong to the campaign
//! [`scheduler`](crate::scheduler).)
//!
//! - **Watchdog deadline**: with a deadline set, each attempt runs on a
//!   monitored thread; if it does not finish in time the supervisor
//!   abandons it and reports [`CellOutcome::Stalled`] — the worker
//!   survives a hung simulator and moves on to the next cell.
//! - **One retry**: a panicking attempt is retried once; byte-identical
//!   payloads classify the failure deterministic ([`crate::retry`]).
//! - **Stage spans**: every span the cell body observes, per configuration
//!   and per `phase:`, goes to telemetry as a `cell_stage` event — from the
//!   inline attempt, or over the watchdog thread's channel.
//!
//! Chaos faults from a [`FaultPlan`] are injected at exactly these seams,
//! so the chaos suite exercises the same code paths real failures take.
//! In-process campaign workers and grid workers both compute through
//! [`compute_narrated`]. The one backoff schedule for transient IO outside
//! a cell, [`BACKOFF_ATTEMPTS`] with [`backoff_delay`], lives here too: the
//! scheduler's cache store and the grid worker's reconnect follow it.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mcd_core::{BenchmarkResults, RunOptions};

use crate::chaos::FaultPlan;
use crate::retry::{payload_text, run_attempts};
use crate::spec::CellSpec;
use crate::telemetry::{CellSource, Telemetry};
use crate::CellOutcome;

/// Attempts, including the first, at an operation that fails with
/// transient IO errors: the scheduler's cache store and the grid worker's
/// reconnect. IO errors are environmental, so waiting genuinely helps
/// (unlike the deterministic-panic retry of [`crate::retry`]).
pub const BACKOFF_ATTEMPTS: u32 = 4;

/// The delay after failed attempt `attempt` (1-based) of a
/// [`BACKOFF_ATTEMPTS`] loop: 10 ms · 4^(attempt−1), capped at 2 s.
pub fn backoff_delay(attempt: u32) -> Duration {
    let factor = 4u32.saturating_pow(attempt.saturating_sub(1));
    Duration::from_millis(10)
        .saturating_mul(factor)
        .min(Duration::from_secs(2))
}

/// Everything needed to run one cell's attempts — and nothing about where
/// the result is stored: the scheduler that assigned the cell owns that.
pub struct ComputeContext<'a> {
    /// Cell index in spec-expansion order.
    pub index: usize,
    /// The cell to run.
    pub cell: &'a CellSpec,
    /// The telemetry sink.
    pub telemetry: &'a Telemetry,
    /// The fault plan ([`FaultPlan::none`] outside chaos tests).
    pub chaos: &'a Arc<FaultPlan>,
    /// Per-attempt watchdog deadline (`None` = wait forever, no monitor
    /// thread).
    pub deadline: Option<Duration>,
    /// Results-neutral execution options (the slack store).
    pub options: &'a RunOptions,
}

/// One attempt's fate.
// Constructed once per attempt; the Ok/Panicked size skew is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Attempt {
    Ok(BenchmarkResults),
    Panicked(String),
    Stalled(Duration),
}

/// [`compute_cell`] narrated: a `cell_started` event, then exactly one
/// terminal event (`cell_finished`, `cell_failed` or `cell_stalled`) whose
/// span is the computation alone.
pub fn compute_narrated(ctx: &ComputeContext<'_>) -> CellOutcome {
    let cell_start = Instant::now();
    ctx.telemetry.cell_started(ctx.index, ctx.cell);
    let outcome = compute_cell(ctx);
    match &outcome {
        CellOutcome::Computed { attempts, .. } => {
            let source = CellSource::Computed {
                attempts: *attempts,
            };
            ctx.telemetry
                .cell_finished(ctx.index, source, cell_start.elapsed());
        }
        CellOutcome::Failed(f) => {
            ctx.telemetry
                .cell_failed(ctx.index, f.attempts, &f.message, f.deterministic);
        }
        CellOutcome::Stalled { waited } => {
            ctx.telemetry.cell_stalled(ctx.index, *waited);
            // The abandoned attempt thread may wedge the process for good;
            // make sure the stall's narration reaches the disk now.
            ctx.telemetry.sync();
        }
        CellOutcome::Cached(_) | CellOutcome::Skipped => {}
    }
    outcome
}

/// The retry loop over monitored attempts: computes the cell, nothing
/// else. Returns only [`CellOutcome::Computed`], [`CellOutcome::Failed`]
/// or [`CellOutcome::Stalled`]; storing the result is the caller's job,
/// and [`compute_narrated`] adds the started/finished telemetry.
pub fn compute_cell(ctx: &ComputeContext<'_>) -> CellOutcome {
    let on_retry = |attempt, message: &str| ctx.telemetry.cell_retry(ctx.index, attempt, message);
    // A stall ends the loop like a success: the watchdog already waited
    // the full deadline, and a deterministic simulator would stall again.
    // Resume recomputes it later.
    let attempts = run_attempts(on_retry, |attempt| match execute_attempt(ctx, attempt) {
        Attempt::Ok(result) => Ok(Ok(result)),
        Attempt::Stalled(waited) => Ok(Err(waited)),
        Attempt::Panicked(message) => Err(message),
    });
    match attempts {
        Ok((Ok(result), attempts)) => CellOutcome::Computed { result, attempts },
        Ok((Err(waited), _)) => CellOutcome::Stalled { waited },
        Err(failure) => CellOutcome::Failed(failure),
    }
}

/// Runs the cell body once: inline when no deadline is set, else on a
/// watchdog-monitored thread that can be abandoned. Every stage span the
/// body observes, `phase:` spans included, is forwarded to telemetry as a
/// `cell_stage` event on either path (on the watchdog path, whatever
/// arrived before an abandonment).
fn execute_attempt(ctx: &ComputeContext<'_>, attempt: u32) -> Attempt {
    let Some(deadline) = ctx.deadline else {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell_body(
                ctx.cell,
                ctx.chaos,
                ctx.index,
                attempt,
                ctx.options,
                &mut |stage, span| ctx.telemetry.cell_stage(ctx.index, stage, span),
            )
        }));
        return match out {
            Ok(result) => Attempt::Ok(result),
            Err(payload) => Attempt::Panicked(payload_text(payload.as_ref())),
        };
    };

    // One Done message per attempt; the Stage/Done size skew is irrelevant.
    #[allow(clippy::large_enum_variant)]
    enum Msg {
        Stage(String, Duration),
        Done(Result<BenchmarkResults, String>),
    }

    let (tx, rx) = mpsc::channel::<Msg>();
    let cell = ctx.cell.clone();
    let chaos = Arc::clone(ctx.chaos);
    let options = ctx.options.clone();
    let index = ctx.index;
    let spawned = thread::Builder::new()
        .name(format!("mcd-cell-{index}-a{attempt}"))
        .spawn(move || {
            let stage_tx = tx.clone();
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cell_body(
                    &cell,
                    &chaos,
                    index,
                    attempt,
                    &options,
                    &mut |stage, span| {
                        // The supervisor may have abandoned us; a closed
                        // channel just means nobody is listening any more.
                        let _ = stage_tx.send(Msg::Stage(stage.to_string(), span));
                    },
                )
            }));
            let _ = tx.send(Msg::Done(
                out.map_err(|payload| payload_text(payload.as_ref())),
            ));
        });
    if spawned.is_err() {
        // Could not spawn the monitor thread (resource exhaustion): run
        // inline rather than fail the cell — losing the watchdog for one
        // attempt beats losing the result.
        let saved = ctx.deadline;
        let inline_ctx = ComputeContext {
            deadline: None,
            ..*ctx
        };
        let out = execute_attempt(&inline_ctx, attempt);
        debug_assert!(saved.is_some());
        return out;
    }

    let started = Instant::now();
    loop {
        let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
            return Attempt::Stalled(started.elapsed());
        };
        match rx.recv_timeout(remaining) {
            Ok(Msg::Stage(stage, span)) => ctx.telemetry.cell_stage(ctx.index, &stage, span),
            Ok(Msg::Done(Ok(result))) => return Attempt::Ok(result),
            Ok(Msg::Done(Err(message))) => return Attempt::Panicked(message),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Deadline blown: abandon the attempt thread (it keeps the
                // dead channel, we keep the worker slot).
                return Attempt::Stalled(started.elapsed());
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The attempt thread died without reporting — catch_unwind
                // should make this impossible, but degrade to a failure
                // rather than hang or crash the campaign.
                return Attempt::Panicked("attempt thread terminated without a result".to_string());
            }
        }
    }
}

/// The actual cell computation, with chaos injection at the front so an
/// injected panic or stall flows through exactly the paths a real one
/// would.
fn cell_body(
    cell: &CellSpec,
    chaos: &FaultPlan,
    index: usize,
    attempt: u32,
    options: &RunOptions,
    observe: &mut dyn FnMut(&str, Duration),
) -> BenchmarkResults {
    if let Some(message) = chaos.panic_message(index, attempt) {
        std::panic::panic_any(message);
    }
    if let Some(stall) = chaos.stall(index) {
        thread::sleep(stall);
    }
    cell.run_with(options.clone(), observe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;
    use mcd_time::DvfsModel;

    fn cell() -> CellSpec {
        CellSpec {
            benchmark: "adpcm".to_string(),
            seed: 3,
            instructions: 600,
            model: DvfsModel::XScale,
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    /// Computes [`cell`] under `chaos` with the given watchdog deadline.
    fn compute(chaos: FaultPlan, deadline: Option<Duration>) -> CellOutcome {
        let cell = cell();
        let ctx = ComputeContext {
            index: 0,
            cell: &cell,
            telemetry: &Telemetry::disabled(),
            chaos: &Arc::new(chaos),
            deadline,
            options: &RunOptions::default(),
        };
        compute_cell(&ctx)
    }

    #[test]
    fn backoff_delays_grow_exponentially_and_cap() {
        let delays: Vec<_> = (1..BACKOFF_ATTEMPTS).map(backoff_delay).collect();
        assert_eq!(
            delays,
            [10, 40, 160].map(Duration::from_millis),
            "the waits between four attempts"
        );
        assert_eq!(backoff_delay(5), Duration::from_secs(2), "capped");
        assert_eq!(backoff_delay(u32::MAX), Duration::from_secs(2));
    }

    #[test]
    fn deadline_turns_an_injected_stall_into_a_stalled_outcome() {
        let stall = FaultPlan::new(vec![Fault::Stall {
            cell: 0,
            by: Duration::from_millis(400),
        }]);
        let start = Instant::now();
        let outcome = compute(stall, Some(Duration::from_millis(40)));
        assert!(
            matches!(outcome, CellOutcome::Stalled { waited } if waited >= Duration::from_millis(40)),
            "outcome: {outcome:?}"
        );
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "the stalled attempt was abandoned, not awaited"
        );
    }

    #[test]
    fn deadline_leaves_fast_cells_untouched() {
        let outcome = compute(FaultPlan::none(), Some(Duration::from_secs(60)));
        let CellOutcome::Computed { result, .. } = outcome else {
            panic!("expected computed, got {outcome:?}");
        };
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&cell().run()).unwrap(),
            "monitored attempt is byte-identical to an inline run"
        );
    }

    #[test]
    fn injected_deterministic_panic_fails_fast() {
        let panic = FaultPlan::new(vec![Fault::Panic {
            cell: 0,
            attempts: u32::MAX,
        }]);
        let outcome = compute(panic, None);
        let CellOutcome::Failed(f) = outcome else {
            panic!("expected failure");
        };
        assert_eq!(f.attempts, 2, "one retry, then the failure is reported");
        assert!(f.deterministic);
        assert!(f.message.contains("injected panic"));
    }

    #[test]
    fn injected_transient_panic_recovers_on_retry() {
        let panic = FaultPlan::new(vec![Fault::Panic {
            cell: 0,
            attempts: 1,
        }]);
        let outcome = compute(panic, None);
        assert!(matches!(outcome, CellOutcome::Computed { attempts: 2, .. }));
    }
}
