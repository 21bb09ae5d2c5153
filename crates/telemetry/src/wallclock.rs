//! Wall-clock latency instrumentation that coexists with virtual time.
//!
//! Everything in this module measures the **host clock**, never the
//! virtual one, and none of it feeds the paper-invariant figures: the
//! deterministic JSONL/metrics dumps are produced exclusively from
//! virtual-time state, so a run observed through this module is
//! byte-identical to one that is not.
//!
//! * [`bucket_of`]/[`bucket_floor`] — the log-bucket scheme
//!   (power-of-two groups split into 32 sub-buckets, ≤ ~3% relative
//!   error, 2048 fixed buckets).
//! * [`WallHistogram`] — one **lock-free** histogram shard: plain relaxed
//!   atomics, no locks, no allocation after construction. Each serving
//!   worker owns one shard and records into it without ever synchronising
//!   with its siblings; shards are merged only at scrape time.
//! * [`WallSnapshot`] — a copy of one shard, and [`WallSnapshot::merge`]
//!   the scrape-time fold. Merging N shards is equivalent to having
//!   recorded every observation into a single global histogram (the counts
//!   are per-bucket sums), a property the test suite checks for arbitrary
//!   interleavings.
//! * [`ExemplarStore`] — latest slow-request exemplar per coarse
//!   Prometheus bucket, linking a histogram bucket to a flight-recorder
//!   trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

/// Sub-bucket bits of the log-bucket scheme: each power-of-two group is
/// split into `2^SUB_BITS` equal sub-buckets.
pub const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Fixed bucket count; everything above the last bucket clamps into it.
pub const WALL_BUCKETS: usize = 2048;

/// Coarse bucket upper bounds (microseconds) for the Prometheus
/// exposition of a wall-clock histogram; an implicit `+Inf` bucket
/// follows. Exemplars attach at this granularity.
pub const WALL_PROM_BUCKETS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Index of the log bucket holding `us`.
pub fn bucket_of(us: u64) -> usize {
    let v = us.max(1);
    let msb = 63 - v.leading_zeros() as u64;
    if msb <= SUB_BITS as u64 {
        v as usize
    } else {
        let shift = msb - SUB_BITS as u64;
        let sub = (v >> shift) & (SUB - 1);
        (((msb - SUB_BITS as u64) << SUB_BITS) + SUB + sub) as usize
    }
}

/// Smallest value mapping to log bucket `idx` (quantiles report this
/// floor, ≤ ~3% below the true value).
///
/// Saturates at `u64::MAX` for the tail of the fixed bucket range that no
/// real value can reach: `bucket_of` tops out at bucket 1919 (the group of
/// `u64::MAX`), but callers iterate indices up to [`WALL_BUCKETS`], and
/// the unsaturated shift `(SUB + sub) << g` overflows from group 59
/// (idx ≥ 1920) — a debug-build panic in scrape paths that walk the whole
/// bucket array.
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < (2 * SUB as usize) {
        idx as u64
    } else {
        let g = ((idx >> SUB_BITS) - 1) as u32;
        let sub = (idx & (SUB as usize - 1)) as u64;
        let base = SUB + sub;
        // `base << g` fits iff the shift stays within base's leading
        // zeros; past that the true floor exceeds u64 — clamp.
        if g > base.leading_zeros() {
            u64::MAX
        } else {
            base << g
        }
    }
}

/// Index of the coarse Prometheus bucket holding `us`
/// (`WALL_PROM_BUCKETS_US.len()` = the `+Inf` bucket).
pub fn prom_bucket_of(us: u64) -> usize {
    WALL_PROM_BUCKETS_US
        .iter()
        .position(|&bound| us <= bound)
        .unwrap_or(WALL_PROM_BUCKETS_US.len())
}

/// Microseconds of monotonic wall time since the first call in this
/// process. Monotonic and cheap; used to stamp spans and exemplars.
pub fn wall_now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// One lock-free wall-clock histogram shard. `record` is the hot path:
/// four relaxed atomic RMWs, no locks, no branches beyond the bucket
/// math.
#[derive(Debug)]
pub struct WallHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for WallHistogram {
    fn default() -> Self {
        WallHistogram {
            counts: (0..WALL_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl WallHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation. Lock-free; safe from any thread.
    pub fn record(&self, us: u64) {
        self.counts[bucket_of(us).min(WALL_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Copy the current state out (scrape time only — never on the
    /// request path).
    pub fn snapshot(&self) -> WallSnapshot {
        WallSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a wall-clock histogram (one shard or a merge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallSnapshot {
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum_us: u64,
    pub max_us: u64,
}

impl WallSnapshot {
    pub fn empty() -> Self {
        WallSnapshot {
            counts: vec![0; WALL_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Fold another snapshot in (bucket-wise sums, max of maxima). The
    /// sum is modular, matching the shards' relaxed `fetch_add`: a merge
    /// of wrapped shard sums equals the wrapped global sum, rather than
    /// panicking in debug builds on extreme observations.
    pub fn merge(&mut self, other: &WallSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.wrapping_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Value at quantile `q` in [0, 1]: the floor of the bucket holding
    /// the q-th observation.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        self.max_us
    }

    /// Cumulative counts per coarse Prometheus bound, plus the `+Inf`
    /// total as the last element.
    pub fn prom_cumulative(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(WALL_PROM_BUCKETS_US.len() + 1);
        let mut acc = 0u64;
        let mut idx = 0usize;
        for &bound in WALL_PROM_BUCKETS_US.iter() {
            while idx < self.counts.len() && bucket_floor(idx) <= bound {
                // A log bucket belongs to the coarse bound its *floor*
                // falls under; floors are exact for every coarse bound
                // below 2^SUB_BITS-scaled precision, and the ≤3% skew is
                // the histogram's documented resolution either way.
                acc += self.counts[idx];
                idx += 1;
            }
            out.push(acc);
        }
        out.push(self.count);
        out
    }
}

/// One retained slow-request reference attached to a histogram bucket:
/// enough to find the full span tree in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Flight-recorder sequence number of the retained trace.
    pub seq: u64,
    pub latency_us: u64,
    /// [`wall_now_us`] stamp at retention time.
    pub at_wall_us: u64,
}

/// Latest exemplar per coarse Prometheus bucket (including `+Inf`).
/// Written only for slow requests — off the common hot path — so a tiny
/// mutex per slot is fine.
#[derive(Debug, Default)]
pub struct ExemplarStore {
    slots: [Mutex<Option<Exemplar>>; WALL_PROM_BUCKETS_US.len() + 1],
}

impl ExemplarStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach `seq` as the exemplar for the bucket holding `latency_us`.
    pub fn note(&self, latency_us: u64, seq: u64) {
        *self.slots[prom_bucket_of(latency_us)].lock() = Some(Exemplar {
            seq,
            latency_us,
            at_wall_us: wall_now_us(),
        });
    }

    /// Current exemplar per bucket, `+Inf` last.
    pub fn snapshot(&self) -> Vec<Option<Exemplar>> {
        self.slots.iter().map(|s| *s.lock()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_with_tight_floors() {
        let mut last = 0;
        for v in [1u64, 2, 31, 32, 63, 64, 100, 1000, 65_535, 1 << 20, 1 << 40] {
            let idx = bucket_of(v);
            assert!(idx >= last, "bucket_of not monotone at {v}");
            last = idx;
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert!(
                (v - floor) as f64 <= v as f64 / 32.0 + 1.0,
                "floor {floor} too far below {v}"
            );
        }
    }

    #[test]
    fn extreme_values_record_without_panicking_or_aliasing() {
        let h = WallHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max_us, u64::MAX);
        // 0 clamps into the first real bucket; u64::MAX lands in the top
        // reachable bucket (1919), far from the 0 end — no aliasing.
        assert_ne!(bucket_of(0), bucket_of(u64::MAX));
        assert_eq!(bucket_of(u64::MAX), 1919);
        assert!(bucket_of(u64::MAX) < WALL_BUCKETS);
        // sum wraps (relaxed fetch_add is modular); the histogram must not
        // misreport count or buckets because of it.
        h.record(u64::MAX);
        assert_eq!(h.snapshot().count, 3);
    }

    #[test]
    fn top_bucket_round_trips_and_floor_saturates_past_it() {
        // The top reachable bucket round-trips exactly.
        let top = bucket_of(u64::MAX);
        let floor = bucket_floor(top);
        assert_eq!(bucket_of(floor), top);
        // Every index in the fixed range has a non-panicking floor, the
        // floors are monotone, and the unreachable tail saturates.
        let mut last = 0u64;
        for idx in 0..WALL_BUCKETS {
            let f = bucket_floor(idx);
            assert!(f >= last, "floor not monotone at {idx}");
            last = f;
        }
        assert_eq!(bucket_floor(WALL_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_floor(1920), u64::MAX, "first overflowing group");
        // The last non-saturated floor is the top bucket's.
        assert!(bucket_floor(1919) < u64::MAX);
    }

    /// Folds per-shard snapshots the way the admin plane's scrape does.
    fn merged(shards: &[WallHistogram]) -> WallSnapshot {
        let mut out = WallSnapshot::empty();
        for shard in shards {
            out.merge(&shard.snapshot());
        }
        out
    }

    #[test]
    fn shard_merge_equals_global() {
        let shards: Vec<WallHistogram> = (0..4).map(|_| WallHistogram::new()).collect();
        let global = WallHistogram::new();
        // A spread of values round-robined across shards.
        for (i, us) in [3u64, 50, 999, 1_000, 12_345, 1 << 22, 7, 7, 7, 250_001]
            .iter()
            .cycle()
            .take(1000)
            .enumerate()
        {
            shards[i % 4].record(*us);
            global.record(*us);
        }
        assert_eq!(merged(&shards), global.snapshot());
    }

    #[test]
    fn merged_quantiles_match_single_histogram() {
        let shards: Vec<WallHistogram> = (0..3).map(|_| WallHistogram::new()).collect();
        for i in 0..300u64 {
            shards[i as usize % 3].record(100 + i);
        }
        let m = merged(&shards);
        assert_eq!(m.count, 300);
        assert!(m.quantile_us(0.5) >= 200 && m.quantile_us(0.5) <= 250);
        assert_eq!(m.max_us, 399);
    }

    #[test]
    fn prom_cumulative_is_monotone_and_totals() {
        let h = WallHistogram::new();
        for us in [10u64, 60, 600, 6_000, 60_000, 600_000, 6_000_000] {
            h.record(us);
        }
        let cum = h.snapshot().prom_cumulative();
        assert_eq!(cum.len(), WALL_PROM_BUCKETS_US.len() + 1);
        assert!(
            cum.windows(2).all(|w| w[0] <= w[1]),
            "not cumulative: {cum:?}"
        );
        assert_eq!(*cum.last().unwrap(), 7, "+Inf must count everything");
        // 10 ≤ 50, 60 ≤ 100, ..., 6_000_000 only in +Inf.
        assert_eq!(cum[0], 1);
        assert_eq!(cum[1], 2);
        assert_eq!(cum[WALL_PROM_BUCKETS_US.len() - 1], 6);
    }

    fn snapshot_of(values: &[u64]) -> WallSnapshot {
        let h = WallHistogram::new();
        for &us in values {
            h.record(us);
        }
        h.snapshot()
    }

    /// (p50, p99, p999, mean, max) of a snapshot.
    fn figures(s: &WallSnapshot) -> (u64, u64, u64, u64, u64) {
        let q = |q| s.quantile_us(q);
        (q(0.50), q(0.99), q(0.999), s.mean_us(), s.max_us)
    }

    /// The figures below are what a private copy of this log-bucket scheme
    /// once reported for the same sequences.
    #[test]
    fn snapshot_reports_the_pinned_figures() {
        const SEQ: [u64; 14] = [
            0, 1, 63, 64, 100, 100, 100, 250, 999, 1_000, 4_096, 65_535, 1_000_000, 1_000_000,
        ];
        let s = snapshot_of(&SEQ);
        assert_eq!(s.count, 14);
        assert_eq!(figures(&s), (100, 999_424, 999_424, 148_022, 1_000_000));

        // `u64::MAX` alone was the one extreme the old copy could take: any
        // second observation overflowed its checked sum.
        let top = 63u64 << 58;
        let s = snapshot_of(&[u64::MAX]);
        assert_eq!(figures(&s), (top, top, top, u64::MAX, u64::MAX));
        // Mixed with ordinary values the modular sum keeps the run alive;
        // quantiles and max are what the bucket scheme always gave.
        let mut mixed = SEQ.to_vec();
        mixed.push(u64::MAX);
        let (p50, p99, p999, _, max) = figures(&snapshot_of(&mixed));
        assert_eq!((p50, p99, p999, max), (248, top, top, u64::MAX));

        // Quantiles come from the right tail.
        let mut tail = vec![100u64; 99];
        tail.push(100_000);
        let s = snapshot_of(&tail);
        let (p50, p99, p999, _, max) = figures(&s);
        assert_eq!((s.count, p50, max), (100, 100, 100_000));
        assert!(p99 <= 100_000);
        assert!(p999 > 90_000, "p999 {p999} missed the outlier");

        // An empty run is zeroes.
        let s = snapshot_of(&[]);
        assert_eq!((s.count, figures(&s)), (0, (0, 0, 0, 0, 0)));

        // A reported quantile is its bucket's floor: never above the value,
        // at most 1/32 (five sub-bucket bits) below it, monotone in it.
        let mut last = 0;
        for v in [1u64, 2, 31, 32, 63, 64, 100, 1000, 65_535, 1 << 20, 1 << 40] {
            let floor = snapshot_of(&[v]).quantile_us(0.50);
            assert!(floor >= last, "quantile not monotone at {v}");
            last = floor;
            assert!(floor <= v, "floor {floor} above value {v}");
            assert!(
                (v - floor) as f64 <= v as f64 / 32.0 + 1.0,
                "floor {floor} too far below {v}"
            );
        }
    }

    #[test]
    fn exemplars_land_in_their_bucket() {
        let store = ExemplarStore::new();
        store.note(40, 1); // bucket 0 (≤50)
        store.note(999, 2); // ≤1000
        store.note(30_000_000, 3); // +Inf
        let snap = store.snapshot();
        assert_eq!(snap[0].unwrap().seq, 1);
        assert_eq!(snap[prom_bucket_of(999)].unwrap().seq, 2);
        assert_eq!(snap[WALL_PROM_BUCKETS_US.len()].unwrap().seq, 3);
        assert_eq!(snap.iter().flatten().count(), 3);
    }

    #[test]
    fn wall_now_is_monotone() {
        let a = wall_now_us();
        let b = wall_now_us();
        assert!(b >= a);
    }
}
