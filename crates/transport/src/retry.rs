//! Retry policy: bounded attempts, per-attempt timeout, exponential backoff
//! with deterministic jitter.
//!
//! One policy type serves both client request/response retries (the
//! container's `ClientAgent`) and one-way notification redelivery (the
//! network's delivery worker). Backoff values are pure functions of
//! `(seed, attempt)`, so a policy replays identically run-to-run, and the
//! schedule is monotone non-decreasing and capped: jitter only stretches a
//! step by at most its own length, which can never overtake the next
//! doubled step.

use ogsa_sim::rng::mix64;
use ogsa_sim::SimDuration;

#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Simulated time budget per attempt; an injected delay beyond this
    /// surfaces as `TransportError::Timeout`.
    pub attempt_timeout: SimDuration,
    /// First backoff step; step `k` doubles it `k` times.
    pub base_backoff: SimDuration,
    /// Cap on any single backoff step.
    pub max_backoff: SimDuration,
    /// Jitter fraction in `[0, 1]`: step `k` is stretched by a
    /// deterministic factor in `[1, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries at all: one attempt, no timeout budget, no backoff.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            attempt_timeout: SimDuration(u64::MAX),
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// A sensible client-call default: 4 attempts, 2 s per attempt, backoff
    /// 50 ms doubling to a 1 s cap, 30% jitter.
    pub fn default_call(seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 4,
            attempt_timeout: SimDuration::from_millis(2_000.0),
            base_backoff: SimDuration::from_millis(50.0),
            max_backoff: SimDuration::from_millis(1_000.0),
            jitter: 0.3,
            seed,
        }
    }

    /// A sensible notification-redelivery default: 4 attempts, backoff
    /// 100 ms doubling to a 2 s cap, 30% jitter.
    pub fn default_redelivery(seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 4,
            attempt_timeout: SimDuration(u64::MAX),
            base_backoff: SimDuration::from_millis(100.0),
            max_backoff: SimDuration::from_millis(2_000.0),
            jitter: 0.3,
            seed,
        }
    }

    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    pub fn with_backoff(mut self, base: SimDuration, max: SimDuration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff charged after failed attempt `attempt` (1-based: the
    /// backoff before attempt 2 is `backoff(1)`).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        if self.base_backoff == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let doublings = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_backoff
            .as_micros()
            .saturating_mul(1u64 << doublings);
        let jittered = if self.jitter > 0.0 {
            let jitter = self.jitter.clamp(0.0, 1.0);
            let unit = (mix64(&[self.seed, u64::from(attempt), 0xb0ff]) >> 11) as f64
                * (1.0 / (1u64 << 53) as f64);
            (raw as f64 * (1.0 + unit * jitter)).round() as u64
        } else {
            raw
        };
        SimDuration::from_micros(jittered.min(self.max_backoff.as_micros()))
    }

    /// The full backoff schedule this policy would charge if every attempt
    /// failed (one entry per retry, i.e. `max_attempts - 1` entries).
    pub fn backoff_schedule(&self) -> Vec<SimDuration> {
        (1..self.max_attempts).map(|a| self.backoff(a)).collect()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_backs_off() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert!(p.backoff_schedule().is_empty());
    }

    #[test]
    fn schedule_is_monotone_and_capped() {
        let p = RetryPolicy::default_call(99).with_max_attempts(12);
        let schedule = p.backoff_schedule();
        assert_eq!(schedule.len(), 11);
        for pair in schedule.windows(2) {
            assert!(pair[0] <= pair[1], "{schedule:?}");
        }
        for step in &schedule {
            assert!(*step <= p.max_backoff, "{step:?}");
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = RetryPolicy::default_call(5).backoff_schedule();
        let b = RetryPolicy::default_call(5).backoff_schedule();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let a = RetryPolicy::default_call(5).backoff_schedule();
        let b = RetryPolicy::default_call(6).backoff_schedule();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_jitter_is_pure_doubling() {
        let p = RetryPolicy::none()
            .with_max_attempts(5)
            .with_backoff(SimDuration::from_micros(100), SimDuration::from_micros(500));
        assert_eq!(
            p.backoff_schedule(),
            vec![
                SimDuration(100),
                SimDuration(200),
                SimDuration(400),
                SimDuration(500)
            ]
        );
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let p = RetryPolicy::default_call(1).with_max_attempts(100);
        let last = p.backoff(99);
        assert!(last <= p.max_backoff);
    }
}
