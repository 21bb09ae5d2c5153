//! The host-speed probe: a fixed piece of work, timed again and again while a
//! workload runs, on the thread that does the workload's work.
//!
//! The host this benchmark is sized on does not run at one speed: neighbours
//! on the same physical cores come and go, and identical single-threaded work
//! runs up to 1.4 times faster in one minute than in the next. No estimator
//! over one run's slices can help when a whole run is fast. On the wall clock
//! the quartile distance of ten runs' throughput read 9% to 32% of their
//! median (four workloads, three rounds), and the largest bound a metric may
//! have is 25%.
//!
//! What can be done is to measure the host along with the program. The probe
//! is code of the benchmark's own — it calls nothing of the program, so a
//! change to the program cannot move it — that does what the program's hot
//! paths do: scans text, branches on it, allocates small strings, hashes and
//! counts them. Every timing metric is reported at the **reference host
//! speed**, [`REFERENCE_PER_S`] probe iterations per second: a slice's rate is
//! divided, and its times multiplied, by the speed the probe ran at in that
//! slice. On the same runs the same quartile distances then read 3% to 10%.
//! Every run prints the wall-clock figures beside the reported ones, so the
//! comparison can be repeated on any run; the README has the table.
//!
//! The probe measures the host, not the program. A workload that leans on
//! memory more than the probe does follows the host's moods a little
//! differently, and the probe cannot see a host that takes the CPU away
//! altogether for a while (a burst only runs when the CPU does): for that
//! [`crate::stats`] takes the time the kernel counts as stolen out of a slice.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Probe iterations per second that count as host speed 1. Near what the
/// host this was sized on sustains when its neighbour is busy. Only ratios
/// of speeds enter a comparison, so on another machine this merely scales
/// every timing metric by one constant.
pub const REFERENCE_PER_S: f64 = 20_000.0;

/// Iterations in one burst: about a millisecond.
const BURST: u32 = 24;

/// How often a workload should run a burst: three to a slice, under 1% of
/// the time.
pub const EVERY: Duration = Duration::from_millis(170);

/// One timed burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Host speed during the burst: 1 is [`REFERENCE_PER_S`].
    pub speed: f64,
    /// What the burst took; the recorder takes it out of the slice.
    pub took: Duration,
}

pub struct Probe {
    text: Vec<u8>,
    tokens: Vec<String>,
    seen: HashMap<u64, u32>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    pub fn new() -> Probe {
        let mut text = String::new();
        for i in 0..60 {
            text.push_str(&format!(
                "<item id=\"{i}\" kind=\"k{}\"><name>entry number {i}</name><value>{}</value></item> ",
                i % 7,
                i * 7919
            ));
        }
        Probe {
            text: text.into_bytes(),
            tokens: Vec::new(),
            seen: HashMap::new(),
        }
    }

    /// Tokenise the text once: every token becomes an owned string and a
    /// count under its running hash.
    fn iteration(&mut self) -> u64 {
        self.tokens.clear();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut start = 0;
        for (i, &b) in self.text.iter().enumerate() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            if matches!(b, b'<' | b'>' | b' ') {
                if i > start {
                    self.tokens
                        .push(String::from_utf8_lossy(&self.text[start..i]).into_owned());
                    *self.seen.entry(hash & 0xfff).or_insert(0) += 1;
                }
                start = i + 1;
            }
        }
        hash ^ self.tokens.len() as u64
    }

    /// Run one burst on the calling thread.
    pub fn burst(&mut self) -> Burst {
        let start = Instant::now();
        let mut acc = 0;
        for _ in 0..BURST {
            acc ^= self.iteration();
        }
        std::hint::black_box(acc);
        let took = start.elapsed();
        Burst {
            speed: f64::from(BURST) / took.as_secs_f64() / REFERENCE_PER_S,
            took,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_is_fixed_work_and_about_a_millisecond() {
        let mut probe = Probe::new();
        let first = probe.iteration();
        assert_eq!(probe.tokens.len(), 60 * 12);
        assert_eq!(probe.iteration(), first, "the same work every time");
        let burst = probe.burst();
        assert!(burst.speed > 0.05 && burst.speed < 20.0, "{burst:?}");
        assert!(burst.took < Duration::from_millis(50), "{burst:?}");
        // The counts stay in a bounded table however long a run lasts.
        assert!(probe.seen.len() <= 4096);
    }
}
