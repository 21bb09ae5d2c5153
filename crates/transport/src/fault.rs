//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] decides, per message attempt, whether the wire drops,
//! delays, duplicates, or garbles it, and whether the two hosts are
//! partitioned at that simulated moment. Decisions are **pure functions of
//! (seed, edge, per-edge sequence number)** — not of a shared mutable RNG
//! stream — so they cannot be perturbed by thread interleaving between the
//! request path and the one-way delivery worker: two runs under the same
//! seed produce bit-identical fault schedules and identical `NetStats`
//! counters.

use ogsa_sim::rng::{hash_str, mix64};
use ogsa_sim::{SimDuration, SimInstant};

/// The kinds of injected fault, for stats and dead-letter records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The message silently vanished on the wire.
    Drop,
    /// The message arrived after an injected extra latency.
    Delay,
    /// The message arrived twice (one-way path only).
    Duplicate,
    /// The bytes arrived corrupted and fail to parse.
    Garble,
    /// The host pair was partitioned for a simulated time window.
    Partition,
}

impl FaultKind {
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Garble => "garble",
            FaultKind::Partition => "partition",
        }
    }
}

/// A symmetric network partition between two hosts over a simulated window
/// `[from, until)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    pub a: String,
    pub b: String,
    pub from: SimInstant,
    pub until: SimInstant,
}

impl Partition {
    fn covers(&self, x: &str, y: &str, at: SimInstant) -> bool {
        let pair = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        pair && self.from <= at && at < self.until
    }
}

/// What the plan decided for one message attempt; the default injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// The hosts cannot reach each other right now (wins over everything).
    pub partitioned: bool,
    /// The message vanishes.
    pub drop: bool,
    /// Extra injected latency before the message lands.
    pub delay: Option<SimDuration>,
    /// One-way only: the message is delivered twice.
    pub duplicate: bool,
    /// The bytes are corrupted in flight.
    pub garble: bool,
}

/// A seeded, replayable schedule of network faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    delay_p: f64,
    delay_max: SimDuration,
    duplicate_p: f64,
    garble_p: f64,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled. Chain the builder
    /// methods to arm fault kinds.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            delay_p: 0.0,
            delay_max: SimDuration::ZERO,
            duplicate_p: 0.0,
            garble_p: 0.0,
            partitions: Vec::new(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drop each message independently with probability `p`.
    pub fn with_drops(mut self, p: f64) -> Self {
        self.drop_p = p.clamp(0.0, 1.0);
        self
    }

    /// Delay each message with probability `p` by up to `max` of simulated
    /// time (uniform).
    pub fn with_delays(mut self, p: f64, max: SimDuration) -> Self {
        self.delay_p = p.clamp(0.0, 1.0);
        self.delay_max = max;
        self
    }

    /// Deliver one-way messages twice with probability `p`.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.duplicate_p = p.clamp(0.0, 1.0);
        self
    }

    /// Corrupt each message's bytes with probability `p`.
    pub fn with_garbles(mut self, p: f64) -> Self {
        self.garble_p = p.clamp(0.0, 1.0);
        self
    }

    /// Partition `a` and `b` (symmetric) for `[from, until)` simulated time.
    pub fn with_partition(mut self, a: &str, b: &str, from: SimInstant, until: SimInstant) -> Self {
        self.partitions.push(Partition {
            a: a.to_owned(),
            b: b.to_owned(),
            from,
            until,
        });
        self
    }

    /// True when the plan can never inject anything: all probabilities are
    /// zero and there are no partitions. The network skips fault evaluation
    /// entirely for benign plans, so a zero-probability plan is
    /// byte-identical to having no plan at all.
    pub fn is_benign(&self) -> bool {
        self.drop_p == 0.0
            && self.delay_p == 0.0
            && self.duplicate_p == 0.0
            && self.garble_p == 0.0
            && self.partitions.is_empty()
    }

    /// A uniform `[0, 1)` draw that is a pure function of the inputs.
    fn draw(&self, from: &str, to: &str, seq: u64, salt: u64) -> f64 {
        let word = mix64(&[self.seed, hash_str(from), hash_str(to), seq, salt]);
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decide the fate of attempt `seq` on the `from → to` edge at
    /// simulated time `at`.
    pub fn decide(&self, from: &str, to: &str, seq: u64, at: SimInstant) -> FaultDecision {
        if self.is_benign() {
            return FaultDecision::default();
        }
        let mut d = FaultDecision {
            partitioned: self.partitions.iter().any(|p| p.covers(from, to, at)),
            ..FaultDecision::default()
        };
        if d.partitioned {
            return d;
        }
        d.drop = self.drop_p > 0.0 && self.draw(from, to, seq, 1) < self.drop_p;
        if d.drop {
            return d;
        }
        d.garble = self.garble_p > 0.0 && self.draw(from, to, seq, 2) < self.garble_p;
        if self.delay_p > 0.0 && self.draw(from, to, seq, 3) < self.delay_p {
            let span = self.delay_max.as_micros();
            if span > 0 {
                let word = mix64(&[self.seed, hash_str(from), hash_str(to), seq, 4]);
                d.delay = Some(SimDuration::from_micros(
                    ((word as u128 * span as u128) >> 64) as u64 + 1,
                ));
            }
        }
        d.duplicate = self.duplicate_p > 0.0 && self.draw(from, to, seq, 5) < self.duplicate_p;
        d
    }

    /// Deterministically corrupt a wire message (attempt `seq`): truncate at
    /// a pseudo-random point and append bytes that cannot parse as XML.
    pub fn garble_wire(&self, wire: &str, seq: u64) -> String {
        let cut = if wire.is_empty() {
            0
        } else {
            let word = mix64(&[self.seed, seq, 6]);
            let at = (word % wire.len() as u64) as usize;
            // Stay on a char boundary.
            (0..=at)
                .rev()
                .find(|i| wire.is_char_boundary(*i))
                .unwrap_or(0)
        };
        format!("{}<&garbled", &wire[..cut])
    }
}

/// One message that exhausted its redelivery budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Destination address the message never reached.
    pub to: String,
    /// Host the message was sent from.
    pub from_host: String,
    /// Total delivery attempts made (≥ 1).
    pub attempts: u32,
    /// The fault kind of the final failed attempt.
    pub reason: FaultKind,
    /// Simulated time of the original send.
    pub enqueued_at: SimInstant,
    /// Size of the lost message on the wire.
    pub wire_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_is_always_clean() {
        let plan = FaultPlan::seeded(1);
        assert!(plan.is_benign());
        for seq in 0..100 {
            assert_eq!(
                plan.decide("a", "b", seq, SimInstant(0)),
                FaultDecision::default()
            );
        }
    }

    #[test]
    fn decisions_are_replayable() {
        let a = FaultPlan::seeded(42)
            .with_drops(0.3)
            .with_delays(0.3, SimDuration::from_millis(5.0));
        let b = FaultPlan::seeded(42)
            .with_drops(0.3)
            .with_delays(0.3, SimDuration::from_millis(5.0));
        for seq in 0..200 {
            assert_eq!(
                a.decide("h1", "h2", seq, SimInstant(seq)),
                b.decide("h1", "h2", seq, SimInstant(seq))
            );
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::seeded(1).with_drops(0.5);
        let b = FaultPlan::seeded(2).with_drops(0.5);
        let diverges = (0..100).any(|seq| {
            a.decide("h1", "h2", seq, SimInstant(0)) != b.decide("h1", "h2", seq, SimInstant(0))
        });
        assert!(diverges);
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let plan = FaultPlan::seeded(7).with_drops(0.25);
        let drops = (0..10_000)
            .filter(|&seq| plan.decide("a", "b", seq, SimInstant(0)).drop)
            .count();
        assert!((2_000..3_000).contains(&drops), "{drops}");
    }

    #[test]
    fn edges_are_independent() {
        let plan = FaultPlan::seeded(7).with_drops(0.5);
        let ab: Vec<bool> = (0..64)
            .map(|s| plan.decide("a", "b", s, SimInstant(0)).drop)
            .collect();
        let ba: Vec<bool> = (0..64)
            .map(|s| plan.decide("b", "a", s, SimInstant(0)).drop)
            .collect();
        assert_ne!(ab, ba);
    }

    #[test]
    fn partitions_cover_their_window_symmetrically() {
        let plan = FaultPlan::seeded(1).with_partition("a", "b", SimInstant(100), SimInstant(200));
        assert!(!plan.decide("a", "b", 0, SimInstant(99)).partitioned);
        assert!(plan.decide("a", "b", 0, SimInstant(100)).partitioned);
        assert!(plan.decide("b", "a", 0, SimInstant(150)).partitioned);
        assert!(!plan.decide("a", "b", 0, SimInstant(200)).partitioned);
        assert!(!plan.decide("a", "c", 0, SimInstant(150)).partitioned);
    }

    #[test]
    fn delays_are_bounded_and_positive() {
        let max = SimDuration::from_millis(10.0);
        let plan = FaultPlan::seeded(3).with_delays(1.0, max);
        for seq in 0..500 {
            let d = plan.decide("a", "b", seq, SimInstant(0));
            let delay = d.delay.expect("p=1 always delays");
            assert!(delay > SimDuration::ZERO && delay <= max, "{delay:?}");
        }
    }

    #[test]
    fn garbled_wire_does_not_parse() {
        let plan = FaultPlan::seeded(9);
        let env = ogsa_soap::Envelope::new(ogsa_xml::Element::text_element("X", "payload"));
        for seq in 0..20 {
            let bad = plan.garble_wire(&env.to_wire(), seq);
            assert!(ogsa_soap::Envelope::from_wire(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn garble_respects_char_boundaries() {
        let plan = FaultPlan::seeded(11);
        for seq in 0..50 {
            // Multi-byte chars throughout; must not panic on slicing.
            let _ = plan.garble_wire("☃é☃é☃é☃é", seq);
        }
    }
}
