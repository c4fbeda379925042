//! Per-cell fault isolation with deterministic-panic classification.
//!
//! A panicking cell must not take down the campaign (or its worker
//! thread): the supervisor runs each attempt under
//! [`std::panic::catch_unwind`], the panic payload is captured as text,
//! and [`run_attempts`] retries the cell up to a bounded number of
//! attempts before reporting it failed. The
//! simulator is deterministic, so a panic normally repeats — when two
//! consecutive attempts produce byte-identical payloads the failure is
//! classified *deterministic* and the remaining retry budget is not burned
//! on a guaranteed repeat. The budget exists for environmental failures,
//! whose payloads vary run to run.

use crate::error::HarnessError;

/// How persistently to rerun a failing cell. Whatever the budget, retries
/// stop once two consecutive attempts panic with identical payloads — the
/// panic is deterministic and will repeat forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::attempts(2)
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts }
    }
}

/// A cell that failed all its attempts (or failed fast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// How many attempts were made.
    pub attempts: u32,
    /// The last attempt's panic payload, as text.
    pub message: String,
    /// `true` when consecutive attempts produced identical payloads: the
    /// panic is a pure function of the cell and retrying cannot help.
    pub deterministic: bool,
}

impl CellFailure {
    /// The structured form of this failure.
    pub fn to_error(&self) -> HarnessError {
        HarnessError::CellPanic {
            message: self.message.clone(),
            deterministic: self.deterministic,
        }
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failed after {} attempt(s){}: {}",
            self.attempts,
            if self.deterministic {
                " (deterministic)"
            } else {
                ""
            },
            self.message
        )
    }
}

impl std::error::Error for CellFailure {}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as text.
pub(crate) fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

/// The retry loop over an attempt function that reports failure as a
/// rendered panic payload. Returns the successful value and the attempt
/// that produced it, or the last failure. `on_retry(attempt, message)` is
/// called after each failed attempt that will be retried, for telemetry.
/// The supervisor's attempts run inline or on watchdog-monitored threads;
/// the budget and fail-fast logic are the same either way (and testable
/// without real panics).
pub fn run_attempts<T>(
    policy: RetryPolicy,
    mut on_retry: impl FnMut(u32, &str),
    mut attempt_fn: impl FnMut(u32) -> Result<T, String>,
) -> Result<(T, u32), CellFailure> {
    let max_attempts = policy.max_attempts.max(1);
    let mut previous: Option<String> = None;
    for attempt in 1..=max_attempts {
        match attempt_fn(attempt) {
            Ok(value) => return Ok((value, attempt)),
            Err(message) => {
                // Two identical payloads in a row: the failure is a pure
                // function of the cell. Spend no more of the budget.
                let deterministic = previous.as_deref() == Some(message.as_str());
                if deterministic || attempt == max_attempts {
                    return Err(CellFailure {
                        attempts: attempt,
                        message,
                        deterministic,
                    });
                }
                on_retry(attempt, &message);
                previous = Some(message);
            }
        }
    }
    unreachable!("the loop returns on the final attempt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// An attempt that always fails with the same payload.
    fn boom(_attempt: u32) -> Result<u32, String> {
        Err(format!("boom {}", 42))
    }

    #[test]
    fn success_passes_through_on_first_attempt() {
        let out = run_attempts(RetryPolicy::default(), |_, _| {}, |_| Ok::<_, String>(7));
        assert_eq!(out, Ok((7, 1)));
    }

    #[test]
    fn deterministic_panic_fails_fast_instead_of_burning_the_budget() {
        let retries = Cell::new(0);
        let out = run_attempts(
            RetryPolicy::attempts(5),
            |_, _| retries.set(retries.get() + 1),
            boom,
        );
        assert_eq!(
            out,
            Err(CellFailure {
                attempts: 2,
                message: "boom 42".to_string(),
                deterministic: true,
            }),
            "identical consecutive payloads stop the retry loop early"
        );
        assert_eq!(retries.get(), 1, "only the first failure schedules a retry");
    }

    #[test]
    fn varying_payloads_are_not_classified_deterministic() {
        let retries = Cell::new(0);
        let out = run_attempts(
            RetryPolicy::attempts(3),
            |_, _| retries.set(retries.get() + 1),
            |attempt| Err::<u32, _>(format!("transient failure #{attempt}")),
        );
        let failure = out.unwrap_err();
        assert_eq!(failure.attempts, 3, "varying payloads use the whole budget");
        assert!(!failure.deterministic);
        assert_eq!(failure.message, "transient failure #3");
        assert_eq!(
            retries.get(),
            2,
            "on_retry fires between attempts, not after the last"
        );
    }

    #[test]
    fn transient_panic_recovers() {
        let out = run_attempts(
            RetryPolicy::attempts(2),
            |_, _| {},
            |attempt| {
                if attempt == 1 {
                    Err("flaky".to_string())
                } else {
                    Ok("ok")
                }
            },
        );
        assert_eq!(out, Ok(("ok", 2)));
    }

    #[test]
    fn zero_attempt_policy_still_runs_once() {
        let out = run_attempts(RetryPolicy::attempts(0), |_, _| {}, |_| Ok::<_, String>(1));
        assert_eq!(out, Ok((1, 1)));
    }

    #[test]
    fn failure_converts_to_structured_error() {
        let failure = CellFailure {
            attempts: 2,
            message: "boom".into(),
            deterministic: true,
        };
        match failure.to_error() {
            HarnessError::CellPanic {
                message,
                deterministic,
            } => {
                assert_eq!(message, "boom");
                assert!(deterministic);
            }
            other => panic!("wrong variant: {other}"),
        }
        assert!(failure.to_string().contains("(deterministic)"));
    }
}
