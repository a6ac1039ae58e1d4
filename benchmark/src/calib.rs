//! Calibrated time: a sampler thread that keeps measuring how fast the CPU
//! is *right now*, so that every timed interval can be divided by the speed
//! of the machine during exactly that interval.
//!
//! The host is a small shared VM whose speed moves by 20–40 % within
//! seconds (the same op reads 53 ms in one second and 85 ms in the next,
//! with client- and server-side code slowing down together), so a raw
//! median over a 15 s run lands wherever the slow spells happened to fall.
//! The sampler runs one *slice* — a frozen ≈0.1 ms piece of work — every
//! [`PERIOD`] on the CPU the load generator and the servers are pinned to,
//! and a time-valued metric is reported as
//!
//! ```text
//! raw × SLICE_REF_US / (mean slice time inside the raw interval)
//! ```
//!
//! i.e. in "time at reference speed": what the interval would have taken on
//! a host where the slice takes [`SLICE_REF_US`]. Measured on this host over
//! eight runs per workload on different seeds, per-op calibration brought
//! the spread of `op_p50_ms` (interquartile range over median) from 9.6 /
//! 21.6 / 12.9 / 16.1 % raw to 1.0 / 2.4 / 6.0 / 2.1 % on the four
//! workloads. What matters is that the samples lie *inside* the interval: a
//! kernel of the same kind run for 3 × 15 ms between 2 s blocks of ops
//! correlated with the ops at only 0.6 and made the spread worse.
//!
//! The slice mimics what the engine does to the CPU — a string-comparison
//! sort through ids, hash grouping, formatted writes — over a working set
//! that fits the L2 cache. It contains no repository code and it must never
//! change: a different slice is a different unit. Its cost, about 2 % of
//! the pinned CPU, is in every reading on both sides of any comparison.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::{iqr_share, median, Metric};

/// The slice's running time at reference speed, in microseconds.
pub const SLICE_REF_US: f64 = 100.0;
/// Pause between two slices.
const PERIOD: Duration = Duration::from_millis(5);
/// An interval holding fewer samples than this borrows the nearest ones.
const MIN_SAMPLES: usize = 3;
/// A slice that took this many times the median of its window was
/// interrupted (a preemption, an interrupt) and says nothing about speed.
const OUTLIER: f64 = 1.5;

const STRINGS: usize = 4_096;
const GATHERED: usize = 640;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The slice's working set (about 300 kB).
struct Slice {
    strings: Vec<String>,
}

impl Slice {
    fn new() -> Slice {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let strings = (0..STRINGS)
            .map(|i| {
                let r = xorshift(&mut state);
                format!(
                    "http://calibration.example/dataset/c{}/resource-{:08x}-{i}",
                    r % 40,
                    r >> 32
                )
            })
            .collect();
        Slice { strings }
    }

    /// Runs the slice once and returns its wall time in microseconds.
    fn run(&self) -> f64 {
        let started = Instant::now();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        // Gather ids at random and sort them by the strings they name (the
        // shape of an ORDER BY over term ids).
        let mut ids: Vec<u32> = (0..GATHERED)
            .map(|_| (xorshift(&mut state) % STRINGS as u64) as u32)
            .collect();
        ids.sort_unstable_by(|a, b| self.strings[*a as usize].cmp(&self.strings[*b as usize]));
        // Hash grouping (the shape of a GROUP BY); a fixed hasher keeps the
        // work identical from process to process.
        let mut groups: HashMap<&str, u32, BuildHasherDefault<std::hash::DefaultHasher>> =
            HashMap::default();
        for id in &ids[..GATHERED / 2] {
            *groups
                .entry(self.strings[*id as usize].as_str())
                .or_insert(0) += 1;
        }
        // Formatted output (the shape of result serialisation).
        let mut out = String::with_capacity(GATHERED * 64);
        for id in &ids[GATHERED / 2..] {
            let _ = write!(
                out,
                "{{\"type\":\"uri\",\"value\":\"{}\"}},",
                self.strings[*id as usize]
            );
        }
        black_box((ids, groups.len(), out.len()));
        started.elapsed().as_secs_f64() * 1e6
    }
}

/// One slice timing: when it ended and how long it took.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    us: f64,
}

/// A stretch of wall time something was measured over.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// When the measured work started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
}

impl Interval {
    /// The interval that started at `start` and ends now.
    pub fn since(start: Instant) -> Interval {
        Interval {
            start,
            end: Instant::now(),
        }
    }

    /// Its length in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A reading in both forms: as measured, and at reference speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    /// As measured.
    pub raw: f64,
    /// Converted with the speed of the machine while it was measured.
    pub calibrated: f64,
}

impl Reading {
    /// Both forms multiplied by `by` (a change of unit, a division by a
    /// count).
    pub fn scaled(self, by: f64) -> Reading {
        Reading {
            raw: self.raw * by,
            calibrated: self.calibrated * by,
        }
    }

    /// The median of the raw forms and the median of the calibrated forms.
    pub fn median_of(readings: &[Reading]) -> Reading {
        let of = |form: fn(&Reading) -> f64| median(&readings.iter().map(form).collect::<Vec<_>>());
        Reading {
            raw: of(|r| r.raw),
            calibrated: of(|r| r.calibrated),
        }
    }

    /// The metric that reports the calibrated form, the raw one in its note.
    pub fn metric(self, name: &'static str, unit: &'static str) -> Metric {
        Metric::new(name, self.calibrated, unit).note(format!("raw {:.4} {unit}", self.raw))
    }
}

impl std::ops::AddAssign for Reading {
    fn add_assign(&mut self, other: Reading) {
        self.raw += other.raw;
        self.calibrated += other.calibrated;
    }
}

/// The running sampler. Start it from the pinned thread: the sampler thread
/// inherits the CPU affinity, which is the point.
pub struct Sampler {
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling.
    pub fn start() -> Sampler {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                let slice = Slice::new();
                // Relaxed: the flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    let us = slice.run();
                    let sample = Sample {
                        at: Instant::now(),
                        us,
                    };
                    samples.lock().expect("sampler lock poisoned").push(sample);
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Sampler {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// The slice timings that ended inside `interval`; when there are fewer
    /// than [`MIN_SAMPLES`], the nearest ones on both sides as well.
    fn window(&self, interval: Interval) -> Vec<f64> {
        let samples = self.samples.lock().expect("sampler lock poisoned");
        let mut lo = samples.partition_point(|s| s.at < interval.start);
        let mut hi = samples.partition_point(|s| s.at <= interval.end);
        while hi - lo < MIN_SAMPLES && (lo > 0 || hi < samples.len()) {
            lo = lo.saturating_sub(1);
            hi = (hi + 1).min(samples.len());
        }
        samples[lo..hi].iter().map(|s| s.us).collect()
    }

    /// The factor that converts a time measured over `interval` to
    /// reference speed: [`SLICE_REF_US`] over the mean slice time in the
    /// interval, interrupted slices left out.
    fn factor(&self, interval: Interval) -> f64 {
        let window = self.window(interval);
        if window.is_empty() {
            return 1.0; // the sampler has produced nothing yet
        }
        let limit = OUTLIER * median(&window);
        let clean: Vec<f64> = window.into_iter().filter(|us| *us <= limit).collect();
        SLICE_REF_US * clean.len() as f64 / clean.iter().sum::<f64>()
    }

    /// `raw`, measured over `interval`, in both forms.
    pub fn reading(&self, raw: f64, interval: Interval) -> Reading {
        Reading {
            raw,
            calibrated: raw * self.factor(interval),
        }
    }

    /// Median slice time in `interval` (µs), the interquartile range of the
    /// slice times as a share of that median, and their number.
    pub fn summary(&self, interval: Interval) -> (f64, f64, usize) {
        let window = self.window(interval);
        if window.is_empty() {
            return (SLICE_REF_US, 0.0, 0);
        }
        (median(&window), iqr_share(&window), window.len())
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
