//! The slice estimator: the measured window is cut into fixed slices, every
//! timing metric is computed per slice and brought to the reference host
//! speed (see [`crate::probe`]), and the reported value is the mean of the
//! slices between the median and the unfavourable decile — what the program
//! sustains in its slower half, stalls excepted.
//!
//! Why not the favourable decile the issue proposed. It assumed interference
//! only ever slows a slice. On the shared two-core host this was sized on it
//! is the other way round: a neighbour on the same physical cores is busy most
//! of the time and idle for five to fifteen seconds at a stretch, and while it
//! is idle identical single-threaded work runs 1.25 to 1.5 times faster (a
//! cache-hungry probe, 1.7 times). How much of a twenty-second window the fast
//! spells cover is luck, so every estimator that looks at the favourable side
//! inherits that luck. Ten runs per workload, quartile distance over median of
//! the per-run throughput (`gridbox_jobs`, `get_signed`, `put_logged_mem`,
//! `notify_fanout`):
//!
//! ```text
//! upper-decile slice rate          14.9%  12.2%  17.2%  12.3%
//! whole-window mean                 6.4%   4.3%   9.0%   7.2%
//! median slice rate                 4.3%   5.4%   6.3%   7.5%
//! lower-quartile slice rate         2.2%   4.8%   3.1%   8.2%
//! mean of 10th..50th percentile     3.0%   4.1%   4.3%   7.7%
//! ```
//!
//! The last one is used. Like the lower quartile it does not see fast spells
//! until they cover half the window, nor stalls of the whole virtual machine
//! until they cover a tenth; unlike a quantile it then moves with the mix
//! gradually instead of jumping from one speed to the other. Whole-window
//! figures stay visible as `driver.*` layer metrics, so a real periodic stall
//! in the program still shows.

use std::time::{Duration, Instant};

use crate::probe::Burst;
use crate::sys::{allowed_cpus, peak_rss_mb, process_cpu_ns, stolen_ns};

/// Length of one slice. Half a second holds at least a hundred operations
/// of the slowest workload, so a per-slice p90 has ten samples beyond it.
pub const SLICE: Duration = Duration::from_millis(500);

/// The band of the per-slice series that is averaged, as shares counted from
/// the unfavourable end: the worst tenth is dropped, the better half ignored.
pub const BAND: (f64, f64) = (0.10, 0.50);

/// The share by which the first and the last third of the window may differ
/// before the run is refused as not in steady state. Wide on purpose: on
/// steady code, at reference host speed, the slice rate's change read between
/// -17% and +30% over two hundred runs on a steady host, and a refusal fails
/// the whole run. This guard catches collapse (state growing quadratically
/// more than halves the rate within a window); slow growth is caught exactly,
/// by `Workload::retained`.
pub const STEADY_STATE_TOLERANCE: f64 = 0.50;

/// One closed slice of the measured window.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Wall-clock and process CPU time of the slice, probe bursts taken out.
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Latency of every operation completed in the slice, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Host speed during the slice (median of its probe bursts); 1 is the
    /// reference speed. See [`crate::probe`].
    pub host_speed: f64,
    /// The share of the slice during which the host left this process's CPU
    /// to this machine: 1 minus the stolen share. Where the probe says how
    /// fast the CPU ran, this says how much of the time it ran at all, which
    /// a burst cannot see: it only runs when the CPU does.
    pub granted: f64,
}

impl Slice {
    pub fn ops(&self) -> usize {
        self.latencies_ns.len()
    }

    pub fn rate(&self) -> f64 {
        self.ops() as f64 / (self.wall_ns as f64 / 1e9)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ops().max(1) as f64
    }

    /// [`Slice::rate`] at reference host speed, per second of CPU granted.
    fn rate_at_reference(&self) -> f64 {
        self.rate() / (self.host_speed * self.granted)
    }
}

/// Collects completed operations into slices while a workload runs.
pub struct Recorder {
    start: Instant,
    slice_start_ns: u64,
    slice_start_cpu: u64,
    slice_start_stolen: u64,
    cpus: Vec<usize>,
    current: Vec<u64>,
    bursts: Vec<Burst>,
    slices: Vec<Slice>,
    /// Operations recorded so far, and after how many of them peak memory is
    /// read.
    ops: u64,
    memory_checkpoint: u64,
    peak_rss_mb: Option<f64>,
    /// Request + response bytes of every completed operation.
    pub wire_bytes: u64,
    pub failed: u64,
}

impl Recorder {
    /// Start the window. Peak resident memory is read once
    /// `memory_checkpoint` operations have completed: a fixed amount of work
    /// since process start, so that a program that keeps a little per
    /// operation reads the same whether the host let it finish 5 800 or
    /// 6 500 of them (a hash table doubling past 7 168 entries moved
    /// `gridbox_jobs` from 9.0 to 11.7 MiB in the faster runs).
    pub fn start(memory_checkpoint: u64) -> Recorder {
        let cpus = allowed_cpus();
        Recorder {
            start: Instant::now(),
            slice_start_ns: 0,
            slice_start_cpu: process_cpu_ns(),
            slice_start_stolen: stolen_ns(&cpus),
            cpus,
            current: Vec::new(),
            bursts: Vec::new(),
            slices: Vec::new(),
            ops: 0,
            memory_checkpoint,
            peak_rss_mb: None,
            wire_bytes: 0,
            failed: 0,
        }
    }

    /// One operation completed at `now` after `latency`.
    pub fn record(&mut self, now: Instant, latency: Duration, wire_bytes: u64) {
        let t = now.duration_since(self.start).as_nanos() as u64;
        if t - self.slice_start_ns >= SLICE.as_nanos() as u64 {
            let cpu = process_cpu_ns();
            let stolen = stolen_ns(&self.cpus);
            // A burst occupies its thread, so it is neither the program's
            // time nor the program's CPU.
            let probing: u64 = self.bursts.iter().map(|b| b.took.as_nanos() as u64).sum();
            let speeds: Vec<f64> = self.bursts.drain(..).map(|b| b.speed).collect();
            let host_speed = match (speeds.is_empty(), self.slices.last()) {
                (false, _) => quantile(&speeds, 0.5),
                (true, Some(previous)) => previous.host_speed,
                (true, None) => 1.0,
            };
            self.slices.push(Slice {
                wall_ns: (t - self.slice_start_ns).saturating_sub(probing),
                cpu_ns: (cpu - self.slice_start_cpu).saturating_sub(probing),
                latencies_ns: std::mem::take(&mut self.current),
                host_speed,
                // The kernel counts stolen time in hundredths of a second,
                // so one slice's share is good to 2%.
                granted: 1.0
                    - ((stolen - self.slice_start_stolen) as f64
                        / (t - self.slice_start_ns) as f64)
                        .min(0.95),
            });
            self.slice_start_ns = t;
            self.slice_start_cpu = cpu;
            self.slice_start_stolen = stolen;
        }
        self.current.push(latency.as_nanos() as u64);
        self.wire_bytes += wire_bytes;
        self.ops += 1;
        if self.ops == self.memory_checkpoint {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
    }

    /// One probe burst ran, on the thread that does the workload's work.
    pub fn probe(&mut self, burst: Burst) {
        self.bursts.push(burst);
    }

    /// Close the window. Operations after the last full slice are counted as
    /// attempted but belong to no slice.
    pub fn finish(self) -> Window {
        let tail_ops = self.current.len() as u64;
        Window {
            slices: self.slices,
            tail_ops,
            // A window too short to reach the checkpoint reads it at its end.
            peak_rss_mb: self.peak_rss_mb.unwrap_or_else(peak_rss_mb),
            wire_bytes: self.wire_bytes,
            failed: self.failed,
        }
    }
}

/// The closed window: what every end-to-end and `driver.*` metric is
/// computed from.
pub struct Window {
    pub slices: Vec<Slice>,
    tail_ops: u64,
    /// `VmHWM` when the memory checkpoint was reached.
    pub peak_rss_mb: f64,
    pub wire_bytes: u64,
    pub failed: u64,
}

/// Linear-interpolated quantile of an unsorted series.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of a per-slice series over [`BAND`]: for a rate (more is better) the
/// slices from the 10th to the 50th percentile, for a time (less is better)
/// those from the 50th to the 90th.
pub fn sustained(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "mean of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !higher_is_better {
        v.reverse();
    }
    let lo = (v.len() as f64 * BAND.0) as usize;
    let hi = ((v.len() as f64 * BAND.1) as usize).max(lo + 1);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Nearest-rank percentile of one slice's latencies, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

impl Window {
    /// The same window as the wall clock saw it: every slice's host speed
    /// taken as 1. Printed beside the reported figures, so that what the
    /// probe changes can be read off any run.
    pub fn on_the_wall_clock(&self) -> Window {
        let mut slices = self.slices.clone();
        for slice in &mut slices {
            slice.host_speed = 1.0;
            slice.granted = 1.0;
        }
        Window { slices, ..*self }
    }

    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops() as u64).sum::<u64>() + self.tail_ops
    }

    fn sliced_ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops() as u64).sum()
    }

    fn per_slice(&self, f: impl Fn(&Slice) -> f64) -> Vec<f64> {
        self.slices.iter().map(f).collect()
    }

    fn per_slice_percentile(&self, p: f64) -> Vec<f64> {
        self.per_slice(|s| {
            let mut sorted = s.latencies_ns.clone();
            sorted.sort_unstable();
            percentile_us(&sorted, p)
        })
    }

    /// A per-slice elapsed time at reference host speed: what took `t` on a
    /// host running at speed `s` for a share `g` of the time takes `t * s * g`
    /// on one running at speed 1 all the time.
    fn times_at_reference(&self, times: Vec<f64>) -> Vec<f64> {
        times
            .iter()
            .zip(&self.slices)
            .map(|(t, s)| t * s.host_speed * s.granted)
            .collect()
    }

    pub fn throughput_ops_s(&self) -> f64 {
        sustained(&self.per_slice(Slice::rate_at_reference), true)
    }

    pub fn latency_us(&self, p: f64) -> f64 {
        sustained(
            &self.times_at_reference(self.per_slice_percentile(p)),
            false,
        )
    }

    /// CPU time does not run while the CPU is taken away, so it is brought
    /// to reference speed only.
    pub fn cpu_us_per_op(&self) -> f64 {
        sustained(&self.per_slice(|s| s.cpu_us_per_op() * s.host_speed), false)
    }

    /// Mean host speed over the window; 1 is the reference speed.
    pub fn host_speed(&self) -> f64 {
        let speeds = self.per_slice(|s| s.host_speed);
        speeds.iter().sum::<f64>() / speeds.len().max(1) as f64
    }

    /// Mean share of the window the host left the CPU to this machine.
    pub fn granted(&self) -> f64 {
        let shares = self.per_slice(|s| s.granted);
        shares.iter().sum::<f64>() / shares.len().max(1) as f64
    }

    /// Mean host speed over the first two seconds of the window: the
    /// nearest the probe gets to the set-up that ended just before it.
    pub fn early_host_speed(&self) -> f64 {
        let early = &self.slices[..self.slices.len().min(4)];
        early.iter().map(|s| s.host_speed * s.granted).sum::<f64>() / early.len().max(1) as f64
    }

    pub fn wire_bytes_per_op(&self) -> f64 {
        self.wire_bytes as f64 / self.ops().max(1) as f64
    }

    /// Operations per second over every full slice: the figure the slice
    /// estimator replaces, kept so a periodic stall cannot hide.
    pub fn mean_throughput_ops_s(&self) -> f64 {
        let wall: u64 = self.slices.iter().map(|s| s.wall_ns).sum();
        self.sliced_ops() as f64 / (wall as f64 / 1e9)
    }

    /// Whole-window percentile over every sliced operation, microseconds.
    pub fn whole_window_latency_us(&self, p: f64) -> f64 {
        let mut all: Vec<u64> = self
            .slices
            .iter()
            .flat_map(|s| s.latencies_ns.iter().copied())
            .collect();
        all.sort_unstable();
        percentile_us(&all, p)
    }

    /// Distance between the 10th and 90th percentile slice rate, as a
    /// percentage of the median slice rate.
    pub fn slice_spread_pct(&self) -> f64 {
        let rates = self.per_slice(Slice::rate);
        100.0 * (quantile(&rates, 0.9) - quantile(&rates, 0.1)) / quantile(&rates, 0.5)
    }

    /// A program whose state grows quadratically (every job notifying every
    /// earlier job's subscriber, say) collapses within the window; such a run
    /// must not pass as a number. Growing state is more work for every
    /// operation, so the run is refused when both the slice rate and the
    /// operations per second of CPU moved by more than the tolerance, the
    /// same way, from the first third of the window to the last. The rate
    /// alone is not enough on a shared host: in eight minutes during which the
    /// host gave this machine a fraction of a core, the rate of steady code
    /// moved by 76% and 87% within a window at reference host speed, while its
    /// CPU time per operation stayed within 10% of the usual. (Stolen time,
    /// now taken out of a slice, was not yet when that was measured.) Returns
    /// the share by which the slice rate moved.
    pub fn steady_state(&self) -> Result<f64, String> {
        let third = self.slices.len() / 3;
        if third < 3 {
            return Err(format!(
                "window too short for the steady-state guard: {} full slices",
                self.slices.len()
            ));
        }
        let drift = |series: Vec<f64>| {
            let first = sustained(&series[..third], true);
            let last = sustained(&series[series.len() - third..], true);
            (first, last, (last - first) / first)
        };
        let (first, last, rate) = drift(self.per_slice(Slice::rate_at_reference));
        let (.., per_cpu_second) =
            drift(self.per_slice(|s| 1.0 / (s.cpu_us_per_op() * s.host_speed)));
        if rate.abs() > STEADY_STATE_TOLERANCE
            && per_cpu_second.abs() > STEADY_STATE_TOLERANCE
            && rate.signum() == per_cpu_second.signum()
        {
            return Err(format!(
                "not in steady state: slice rate moved {:+.1}% from the first third ({first:.0} ops/s) to the last ({last:.0} ops/s), operations per second of CPU {:+.1}%",
                rate * 100.0,
                per_cpu_second * 100.0
            ));
        }
        Ok(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window of `n` slices at `rate` ops/s with constant `lat_us`
    /// latency, where the slices in `slow` run at half speed.
    fn synthetic(n: usize, rate: usize, lat_us: u64, slow: &[usize]) -> Window {
        let slices = (0..n)
            .map(|i| {
                let factor = if slow.contains(&i) { 2 } else { 1 };
                let ops = rate / 2 / factor;
                Slice {
                    wall_ns: 500_000_000,
                    cpu_ns: (ops as u64) * 40_000 * factor as u64,
                    latencies_ns: vec![lat_us * 1_000 * factor as u64; ops],
                    host_speed: 1.0,
                    granted: 1.0,
                }
            })
            .collect();
        Window {
            slices,
            tail_ops: 0,
            peak_rss_mb: 0.0,
            wire_bytes: 0,
            failed: 0,
        }
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-9);
    }

    #[test]
    fn stalls_in_a_tenth_of_the_window_do_not_move_the_estimate() {
        let clean = synthetic(20, 10_000, 800, &[]);
        let stalled = synthetic(20, 10_000, 800, &[3, 14]);
        assert_eq!(clean.throughput_ops_s(), stalled.throughput_ops_s());
        assert_eq!(clean.latency_us(0.5), stalled.latency_us(0.5));
        assert_eq!(clean.latency_us(0.9), stalled.latency_us(0.9));
        assert_eq!(clean.cpu_us_per_op(), stalled.cpu_us_per_op());
        assert!(stalled.mean_throughput_ops_s() < 0.96 * clean.mean_throughput_ops_s());
        assert!(stalled.slice_spread_pct() > 0.0);
        assert_eq!(clean.slice_spread_pct(), 0.0);
    }

    #[test]
    fn fast_spells_in_half_the_window_do_not_move_it_either() {
        // The host's floor speed in `slow`, its fast state elsewhere: whether
        // the fast spells cover a tenth of the window or half of it, the
        // estimate is the floor's.
        let floor = synthetic(20, 5_000, 1_600, &[]).throughput_ops_s();
        let with_fast = |fast_slices: usize| {
            let slow: Vec<usize> = (fast_slices..20).collect();
            synthetic(20, 10_000, 800, &slow)
        };
        for fast_slices in [2, 6, 10] {
            let mixed = with_fast(fast_slices);
            assert_eq!(mixed.throughput_ops_s(), floor, "{fast_slices} fast slices");
            assert_eq!(mixed.latency_us(0.5), 1_600.0);
        }
        // Beyond half it follows the mix step by step; a quantile would jump
        // by a factor of two between two of these.
        let steps: Vec<f64> = (10..=18).map(|n| with_fast(n).throughput_ops_s()).collect();
        assert!(
            steps.windows(2).all(|w| w[1] >= w[0] && w[1] / w[0] < 1.2),
            "{steps:?}"
        );
    }

    #[test]
    fn a_program_that_really_got_slower_does_move_it() {
        let fast = synthetic(20, 10_000, 800, &[]);
        let slow = synthetic(20, 9_000, 880, &[]);
        assert!(slow.throughput_ops_s() < 0.95 * fast.throughput_ops_s());
        assert!(slow.latency_us(0.5) > 1.05 * fast.latency_us(0.5));
    }

    #[test]
    fn the_hosts_speed_cancels_out() {
        // The same program on a host that runs half the window at half
        // speed, with the probe saying so, reads as on a steady host.
        let steady = synthetic(20, 10_000, 800, &[]);
        let slow: Vec<usize> = (5..15).collect();
        let mut shifting = synthetic(20, 10_000, 800, &slow);
        for i in slow {
            shifting.slices[i].host_speed = 0.5;
        }
        assert_eq!(shifting.throughput_ops_s(), steady.throughput_ops_s());
        assert_eq!(shifting.latency_us(0.9), steady.latency_us(0.9));
        assert_eq!(shifting.cpu_us_per_op(), steady.cpu_us_per_op());
        assert!(shifting.mean_throughput_ops_s() < 0.8 * steady.mean_throughput_ops_s());
        assert_eq!(shifting.host_speed(), 0.75);
        assert!(shifting.steady_state().is_ok());
    }

    #[test]
    fn time_the_host_took_away_cancels_out_too() {
        // Half the window the host ran something else on this CPU for half
        // of every slice: half the operations, each taking twice as long,
        // the CPU time per operation unchanged.
        let steady = synthetic(20, 10_000, 800, &[]);
        let slow: Vec<usize> = (5..15).collect();
        let mut robbed = synthetic(20, 10_000, 800, &slow);
        for i in slow {
            robbed.slices[i].granted = 0.5;
            robbed.slices[i].cpu_ns /= 2;
        }
        assert_eq!(robbed.throughput_ops_s(), steady.throughput_ops_s());
        assert_eq!(robbed.latency_us(0.5), steady.latency_us(0.5));
        assert_eq!(robbed.cpu_us_per_op(), steady.cpu_us_per_op());
        assert_eq!(robbed.granted(), 0.75);
        assert!(robbed.steady_state().is_ok());
        let wall = robbed.on_the_wall_clock();
        assert!(wall.throughput_ops_s() < 0.6 * steady.throughput_ops_s());
    }

    #[test]
    fn steady_state_guard_refuses_a_collapsing_window() {
        assert!(synthetic(18, 10_000, 800, &[1, 7, 14])
            .steady_state()
            .is_ok());
        // The last third at a third of the speed, the host unchanged.
        let mut collapsing = synthetic(18, 10_000, 800, &[]);
        for s in &mut collapsing.slices[12..] {
            s.latencies_ns.truncate(s.latencies_ns.len() / 3);
        }
        let err = collapsing.steady_state().unwrap_err();
        assert!(err.contains("not in steady state"), "{err}");
        // The same fall in rate with the CPU time per operation unchanged is
        // the host's doing, not the program's: reported, not refused.
        for s in &mut collapsing.slices[12..] {
            s.cpu_ns /= 3;
        }
        let moved = collapsing.steady_state().expect("a stalled host");
        assert!(moved < -0.6, "{moved}");
        assert!(synthetic(6, 10_000, 800, &[]).steady_state().is_err());
    }

    #[test]
    fn recorder_cuts_slices_on_completion_times() {
        let mut rec = Recorder::start(2_000);
        let t0 = rec.start;
        for i in 0..2_500u64 {
            let at = t0 + Duration::from_millis(i);
            rec.record(at, Duration::from_micros(100 + i % 7), 10);
        }
        let w = rec.finish();
        assert_eq!(w.slices.len(), 4);
        assert!(w.slices.iter().all(|s| s.ops() == 500));
        assert!(
            w.slices.iter().all(|s| s.host_speed == 1.0),
            "no probe, no scaling"
        );
        assert!(w.slices.iter().all(|s| s.granted > 0.9));
        assert_eq!(w.ops(), 2_500);
        assert_eq!(w.wire_bytes_per_op(), 10.0);
        assert!(w.peak_rss_mb > 0.5, "read at the 2 000th operation");
        assert!((w.mean_throughput_ops_s() - 1_000.0).abs() < 1.0);
    }
}
