//! Per-cell fault isolation with deterministic-panic classification.
//!
//! A panicking cell must not take down the campaign (or its worker
//! thread): the supervisor runs each attempt under
//! [`std::panic::catch_unwind`], the panic payload is captured as text,
//! and [`run_attempts`] retries the cell once before reporting it failed.
//! The simulator is deterministic, so a panic normally repeats: when the
//! two attempts produce byte-identical payloads the failure is classified
//! *deterministic* (a bug in the cell), otherwise it is environmental,
//! whose payloads vary run to run.

/// A cell that failed both its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// How many attempts were made.
    pub attempts: u32,
    /// The last attempt's panic payload, as text.
    pub message: String,
    /// `true` when both attempts produced identical payloads: the panic is
    /// a pure function of the cell and retrying cannot help.
    pub deterministic: bool,
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

/// Runs an attempt function that reports failure as a rendered panic
/// payload, at most twice. Returns the successful value and the attempt
/// that produced it, or the second failure, which is deterministic when
/// its payload equals the first one's.
/// `on_retry(1, message)` is called after a failed first attempt, for
/// telemetry. The supervisor's attempts run inline or on
/// watchdog-monitored threads; the loop and its classification are the
/// same either way (and testable without real panics).
pub fn run_attempts<T>(
    mut on_retry: impl FnMut(u32, &str),
    mut attempt_fn: impl FnMut(u32) -> Result<T, String>,
) -> Result<(T, u32), CellFailure> {
    let first = match attempt_fn(1) {
        Ok(value) => return Ok((value, 1)),
        Err(message) => message,
    };
    on_retry(1, &first);
    match attempt_fn(2) {
        Ok(value) => Ok((value, 2)),
        Err(message) => Err(CellFailure {
            attempts: 2,
            deterministic: message == first,
            message,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn success_passes_through_on_first_attempt() {
        let out = run_attempts(|_, _| {}, |_| Ok::<_, String>(7));
        assert_eq!(out, Ok((7, 1)));
    }

    #[test]
    fn identical_payloads_are_classified_deterministic() {
        let retries = Cell::new(0);
        let out = run_attempts(
            |_, _| retries.set(retries.get() + 1),
            |_| Err::<u32, _>(format!("boom {}", 42)),
        );
        let failure = out.unwrap_err();
        assert_eq!(
            failure,
            CellFailure {
                attempts: 2,
                message: "boom 42".to_string(),
                deterministic: true,
            }
        );
        assert_eq!(
            retries.get(),
            1,
            "on_retry fires between attempts, not after the last"
        );
        assert!(failure.to_string().contains("(deterministic)"));
    }

    #[test]
    fn varying_payloads_are_not_classified_deterministic() {
        let retries = Cell::new(0);
        let out = run_attempts(
            |_, _| retries.set(retries.get() + 1),
            |attempt| Err::<u32, _>(format!("transient failure #{attempt}")),
        );
        let failure = out.unwrap_err();
        assert_eq!(failure.attempts, 2, "varying payloads use both attempts");
        assert!(!failure.deterministic);
        assert_eq!(failure.message, "transient failure #2");
        assert_eq!(
            retries.get(),
            1,
            "on_retry fires between attempts, not after the last"
        );
    }

    #[test]
    fn transient_panic_recovers() {
        let out = run_attempts(
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
}
