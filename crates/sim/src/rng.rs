//! Deterministic randomness for the simulation: GUID-style resource ids,
//! optional latency jitter, and fault-schedule draws, reproducible
//! run-to-run from a seed.
//!
//! The generator is a self-contained SplitMix64 (no external crates — the
//! build environment is offline). SplitMix64 is statistically strong for
//! this purpose and, more importantly here, a pure function of the seed:
//! two runs with the same seed see bit-identical streams on every platform.

use parking_lot::Mutex;
use std::sync::Arc;

/// The raw SplitMix64 step over a state word.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless mixing of several words into one — used for per-edge fault
/// decisions, where determinism must not depend on thread interleaving.
pub fn mix64(words: &[u64]) -> u64 {
    let mut state = 0x0605_2005u64; // the paper's conference date
    for &w in words {
        state ^= w;
        splitmix64(&mut state);
    }
    splitmix64(&mut state)
}

/// Hash a string into a mixable word (FNV-1a). The workspace's one string
/// hash: fault edges, xmldb and fan-out shard routing and the §4.2.2
/// hash-of-DN directory names all depend on its exact values, which are
/// stable across runs and platforms.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A shareable, seeded RNG. Cloning shares the stream (the simulation has
/// one logical source of randomness, like one testbed).
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: Arc<Mutex<u64>>,
}

impl DetRng {
    pub fn seeded(seed: u64) -> Self {
        DetRng {
            seed,
            inner: Arc::new(Mutex::new(seed)),
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// An independent stream derived from this RNG's *seed* (not its
    /// current position): forks with the same label are identical no matter
    /// how much of the parent stream was consumed, which keeps subsystems
    /// from perturbing each other's schedules.
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::seeded(mix64(&[self.seed, hash_str(label)]))
    }

    /// Next raw word from the shared stream.
    pub fn next_u64(&self) -> u64 {
        splitmix64(&mut self.inner.lock())
    }

    /// A GUID-formatted identifier — WS-Transfer's default resource naming
    /// ("the Create() operation names the resource by assigning a new
    /// resource id (by default, GUID)").
    pub fn guid(&self) -> String {
        let mut state = self.inner.lock();
        let a = splitmix64(&mut state) as u32;
        let bc = splitmix64(&mut state);
        let (b, c) = ((bc >> 48) as u16, (bc >> 32) as u16);
        let d = splitmix64(&mut state) as u16;
        let e = splitmix64(&mut state) & 0xffff_ffff_ffff;
        format!("{a:08x}-{b:04x}-{c:04x}-{d:04x}-{e:012x}")
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&self, n: u64) -> u64 {
        assert!(n > 0, "DetRng::below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit_f64(&self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit_f64() < p
    }

    /// Multiply `base` by a jitter factor in `[1-pct, 1+pct]`.
    pub fn jitter(&self, base: u64, pct: f64) -> u64 {
        if pct <= 0.0 {
            return base;
        }
        let f = (self.unit_f64() * 2.0 - 1.0) * pct;
        ((base as f64) * (1.0 + f)).round().max(0.0) as u64
    }
}

impl Default for DetRng {
    fn default() -> Self {
        DetRng::seeded(0x0605_2005) // the paper's conference date
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = DetRng::seeded(7);
        let b = DetRng::seeded(7);
        assert_eq!(a.guid(), b.guid());
        assert_eq!(a.below(1000), b.below(1000));
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(DetRng::seeded(1).guid(), DetRng::seeded(2).guid());
    }

    #[test]
    fn guid_shape() {
        let g = DetRng::seeded(3).guid();
        let parts: Vec<_> = g.split('-').collect();
        assert_eq!(parts.len(), 5);
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            [8, 4, 4, 4, 12]
        );
        assert!(g.chars().all(|c| c.is_ascii_hexdigit() || c == '-'));
    }

    #[test]
    fn guids_are_distinct_within_a_stream() {
        let rng = DetRng::seeded(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(rng.guid()));
        }
    }

    #[test]
    fn zero_jitter_is_identity() {
        let rng = DetRng::seeded(4);
        assert_eq!(rng.jitter(1000, 0.0), 1000);
    }

    #[test]
    fn jitter_stays_in_band() {
        let rng = DetRng::seeded(5);
        for _ in 0..200 {
            let v = rng.jitter(10_000, 0.05);
            assert!((9_500..=10_500).contains(&v), "{v}");
        }
    }

    #[test]
    fn clones_share_the_stream() {
        let a = DetRng::seeded(11);
        let b = a.clone();
        let g1 = a.guid();
        let g2 = b.guid();
        assert_ne!(g1, g2); // advanced, not reset
    }

    #[test]
    fn forks_are_independent_of_parent_position() {
        let a = DetRng::seeded(11);
        let early = a.fork("faults").next_u64();
        let _ = a.guid(); // consume the parent stream
        let late = a.fork("faults").next_u64();
        assert_eq!(early, late);
        assert_ne!(a.fork("faults").next_u64(), a.fork("other").next_u64());
    }

    #[test]
    fn chance_extremes() {
        let rng = DetRng::seeded(12);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "{hits}");
    }

    #[test]
    fn mix_is_order_sensitive_and_stable() {
        assert_eq!(mix64(&[1, 2, 3]), mix64(&[1, 2, 3]));
        assert_ne!(mix64(&[1, 2, 3]), mix64(&[3, 2, 1]));
        assert_ne!(hash_str("host-a"), hash_str("host-b"));
    }
}
