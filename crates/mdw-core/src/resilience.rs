//! Fault-tolerance machinery: retry policies, injectable clocks, and the
//! fault-injection registry re-exported from the substrate.
//!
//! The paper's pipeline ingests ~80 source exports per release; in
//! production some deliveries always fail — a scanner times out, a file
//! arrives half-written. The warehouse must make progress anyway: retry
//! what is transient, quarantine what is not, and never corrupt the graph.
//! This module supplies the policy pieces; the pipeline wiring lives in
//! [`crate::ingest::ingest_resilient`].
//!
//! Everything here is deterministic under test: [`Clock`] abstracts
//! sleeping so tests use [`ManualTime`] (which only records the requested
//! delays), and the failpoint registry (re-exported as [`failpoint`])
//! injects faults from seeded streams — no wall-clock time, no real I/O
//! errors needed.

use std::time::Duration;

use crate::error::MdwError;

/// The deterministic fault-injection registry (see
/// [`mdw_rdf::failpoint`]): `arm` named failpoints to make persistence
/// and ingest paths fail on demand.
pub use mdw_rdf::failpoint;

/// How an armed failpoint fires (re-exported for convenience).
pub use mdw_rdf::failpoint::FailSpec;

/// Time sources, re-exported from the substrate so query budgets and
/// clocks share one notion of "now".
pub use mdw_rdf::budget::{ManualTime, MonotonicTime, TimeSource};

/// A time source that can also wait, so retry backoff is injectable:
/// production sleeps on [`MonotonicTime`]; tests pass a [`ManualTime`],
/// whose sleeps return at once, advance virtual time, and are recorded
/// for assertions.
pub trait Clock: TimeSource {
    /// Waits for `duration` (or pretends to).
    fn sleep(&self, duration: Duration);
}

impl Clock for MonotonicTime {
    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

impl Clock for ManualTime {
    fn sleep(&self, duration: Duration) {
        ManualTime::sleep(self, duration);
    }
}

/// Bounded retry with exponential backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retries.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Backoff factor between consecutive retries.
    pub multiplier: u32,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            multiplier: 2,
            max_delay: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1, ..Default::default() }
    }

    /// Sets the attempt bound.
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Sets the first-retry delay.
    pub fn with_base_delay(mut self, d: Duration) -> Self {
        self.base_delay = d;
        self
    }

    /// The backoff delay after failed attempt number `attempt` (1-based):
    /// `base * multiplier^(attempt-1)`, capped at `max_delay`.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let factor = self.multiplier.saturating_pow(attempt.saturating_sub(1));
        self.base_delay
            .saturating_mul(factor)
            .min(self.max_delay)
    }
}

/// A successful retried operation: the value plus how many attempts it
/// took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryOutcome<T> {
    /// What the operation returned.
    pub value: T,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// Runs `op` under `policy`: transient failures
/// ([`MdwError::is_transient`]) are retried after a backoff sleep on
/// `clock`; permanent failures and exhaustion return the last error with
/// the attempt count.
pub fn run_with_retry<T>(
    policy: &RetryPolicy,
    clock: &dyn Clock,
    mut op: impl FnMut(u32) -> Result<T, MdwError>,
) -> Result<RetryOutcome<T>, (MdwError, u32)> {
    let mut attempt = 0;
    loop {
        attempt += 1;
        match op(attempt) {
            Ok(value) => return Ok(RetryOutcome { value, attempts: attempt }),
            Err(e) if e.is_transient() && attempt < policy.max_attempts => {
                clock.sleep(policy.delay_for(attempt));
            }
            Err(e) => return Err((e, attempt)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::RdfError;

    fn transient() -> MdwError {
        MdwError::Rdf(RdfError::Injected { failpoint: "t".into() })
    }

    fn permanent() -> MdwError {
        MdwError::Rdf(RdfError::corrupt("x", "y"))
    }

    #[test]
    fn manual_clock_virtual_time_counts_sleeps_and_advances() {
        let clock = ManualTime::new();
        assert_eq!(clock.now(), Duration::ZERO);
        Clock::sleep(&clock, Duration::from_millis(40));
        clock.advance(Duration::from_millis(2));
        assert_eq!(clock.now(), Duration::from_millis(42));
        assert_eq!(clock.sleeps(), vec![Duration::from_millis(40)]);
        // Clones share the virtual time and the sleep record.
        let other = clock.clone();
        other.advance(Duration::from_millis(1));
        Clock::sleep(&other, Duration::from_millis(7));
        assert_eq!(clock.now(), Duration::from_millis(50));
        assert_eq!(clock.total_slept(), Duration::from_millis(47));
    }

    #[test]
    fn monotonic_clock_sleeps_for_real() {
        let clock = MonotonicTime::new();
        let a = clock.now();
        Clock::sleep(&clock, Duration::from_millis(2));
        assert!(clock.now() >= a + Duration::from_millis(2));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(100),
            multiplier: 3,
            max_delay: Duration::from_millis(1200),
        };
        assert_eq!(p.delay_for(1), Duration::from_millis(100));
        assert_eq!(p.delay_for(2), Duration::from_millis(300));
        assert_eq!(p.delay_for(3), Duration::from_millis(900));
        assert_eq!(p.delay_for(4), Duration::from_millis(1200)); // capped
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let clock = ManualTime::new();
        let policy = RetryPolicy::default();
        let mut failures_left = 3;
        let out = run_with_retry(&policy, &clock, |_| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(transient())
            } else {
                Ok("done")
            }
        })
        .unwrap();
        assert_eq!(out.value, "done");
        assert_eq!(out.attempts, 4);
        // Three sleeps with doubling delays — recorded, never slept.
        assert_eq!(
            clock.sleeps(),
            vec![
                Duration::from_millis(50),
                Duration::from_millis(100),
                Duration::from_millis(200),
            ]
        );
    }

    #[test]
    fn permanent_failure_is_not_retried() {
        let clock = ManualTime::new();
        let policy = RetryPolicy::default();
        let (err, attempts) =
            run_with_retry::<()>(&policy, &clock, |_| Err(permanent())).unwrap_err();
        assert_eq!(attempts, 1);
        assert!(!err.is_transient());
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn exhaustion_returns_last_error() {
        let clock = ManualTime::new();
        let policy = RetryPolicy::default().with_max_attempts(3);
        let (err, attempts) =
            run_with_retry::<()>(&policy, &clock, |_| Err(transient())).unwrap_err();
        assert_eq!(attempts, 3);
        assert!(err.is_transient());
        assert_eq!(clock.sleeps().len(), 2);
    }
}
