//! The structured runtime-error taxonomy every budgeted layer returns.

use std::fmt;

/// Why a budgeted/cancellable pass stopped before completing.
///
/// Extends the PR-3 `SimError`/`CompileError` work to the whole solve
/// path: no layer panics on an exhausted budget, a cancellation, or an
/// injected fault — it surfaces one of these and leaves its state
/// droppable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// The wall-clock deadline of the budget elapsed.
    DeadlineExceeded {
        /// Milliseconds elapsed when the overrun was observed.
        elapsed_ms: u64,
        /// The configured deadline in milliseconds.
        deadline_ms: u64,
    },
    /// An allocation (or a preflight estimate of one) exceeded the byte
    /// ceiling.
    MemoryBudget {
        /// Bytes required by the pass that was rejected.
        required: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The kernel-op ceiling was exhausted.
    OpBudget {
        /// Ops charged so far.
        used: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The [`crate::CancelToken`] fired.
    Cancelled,
    /// A deterministic fault was injected at a named
    /// [`crate::failpoint`] site (only under the `failpoints` feature).
    Faulted {
        /// The site name, e.g. `"qsim.run.op"`.
        site: String,
    },
    /// A configuration was rejected up front (validated, not clamped and
    /// not panicked on).
    InvalidConfig(String),
    /// Every racer in a [`crate::race()`] portfolio failed. Carries each
    /// racer's name and its individual failure so the caller can see the
    /// whole picture — never a panic, never silence.
    AllRacersFailed {
        /// `(racer name, that racer's error)`, in staking order.
        failures: Vec<(String, RtError)>,
    },
}

impl RtError {
    /// Whether retrying the same operation can possibly succeed.
    /// Injected faults are transient by definition (they model flaky
    /// hardware); exhausted budgets, cancellations and bad configs are
    /// not.
    pub fn is_transient(&self) -> bool {
        matches!(self, RtError::Faulted { .. })
    }
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed of a {deadline_ms} ms budget"
            ),
            RtError::MemoryBudget { required, limit } => write!(
                f,
                "memory budget exceeded: {required} bytes required, {limit} allowed"
            ),
            RtError::OpBudget { used, limit } => {
                write!(f, "op budget exhausted: {used} kernel ops of {limit} used")
            }
            RtError::Cancelled => write!(f, "cancelled"),
            RtError::Faulted { site } => write!(f, "injected fault at site `{site}`"),
            RtError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RtError::AllRacersFailed { failures } => {
                write!(f, "all {} racers failed:", failures.len())?;
                for (name, err) in failures {
                    write!(f, " [{name}: {err}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(RtError::DeadlineExceeded {
            elapsed_ms: 120,
            deadline_ms: 100
        }
        .to_string()
        .contains("120 ms"));
        assert!(RtError::MemoryBudget {
            required: 1024,
            limit: 512
        }
        .to_string()
        .contains("1024"));
        assert!(RtError::OpBudget {
            used: 10,
            limit: 10
        }
        .to_string()
        .contains("10"));
        assert_eq!(RtError::Cancelled.to_string(), "cancelled");
        assert!(RtError::Faulted {
            site: "qsim.run.op".into()
        }
        .to_string()
        .contains("qsim.run.op"));
        assert!(RtError::InvalidConfig("max_attempts must be ≥ 1".into())
            .to_string()
            .contains("max_attempts"));
        let agg = RtError::AllRacersFailed {
            failures: vec![
                ("dense".into(), RtError::Cancelled),
                (
                    "classical".into(),
                    RtError::Faulted {
                        site: "classical.grasp.iter".into(),
                    },
                ),
            ],
        };
        let text = agg.to_string();
        assert!(text.contains("all 2 racers failed"), "{text}");
        assert!(text.contains("dense: cancelled"), "{text}");
        assert!(text.contains("classical: injected fault"), "{text}");
    }

    #[test]
    fn only_faults_are_transient() {
        assert!(RtError::Faulted { site: "x".into() }.is_transient());
        assert!(!RtError::Cancelled.is_transient());
        assert!(!RtError::DeadlineExceeded {
            elapsed_ms: 1,
            deadline_ms: 1
        }
        .is_transient());
        assert!(!RtError::InvalidConfig(String::new()).is_transient());
        assert!(!RtError::AllRacersFailed {
            failures: vec![("x".into(), RtError::Faulted { site: "s".into() })]
        }
        .is_transient());
    }
}
