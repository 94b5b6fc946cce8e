//! Result assembly: sample statistics, metric lists, the host descriptor and
//! the one-line JSON result the command prints last.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Length of the time slices a measuring window is cut into.  Throughput
/// is taken over its quietest slices; see [`Slices`].
pub const SLICE_SECONDS: f64 = 0.05;

/// A sample stamped with when it was taken.
pub type Stamped = (Instant, f64);

/// How much the host interfered with the run, sampled in the background so
/// that it can be looked up for any interval afterwards.  Two signs of a
/// busy shared host are recorded: CPU time the hypervisor gave to other
/// guests (`steal` in `/proc/stat`), and how late the sampling thread woke
/// from each sleep.  A closed loop of requests waits on thread wake-ups,
/// and on a contended host those come late even when little steal is
/// counted.
pub struct HostMonitor {
    log: Arc<Mutex<Vec<HostSample>>>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// One sample: when, steal and non-idle CPU ticks so far, and the
/// sampling thread's wake-up lag so far.
#[derive(Clone, Copy)]
struct HostSample {
    at: Instant,
    steal: u64,
    busy: u64,
    lag: Duration,
}

/// How often the monitor samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Steal and non-idle CPU ticks so far, summed over all CPUs.  Idle time
/// is left out of the base, so a pass that keeps one core busy and one that
/// keeps both busy read the same share under the same hypervisor load.
fn steal_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let idle = fields.get(3)? + fields.get(4)?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum::<u64>() - idle))
}

impl HostMonitor {
    /// Samples every `SAMPLE_EVERY` until [`HostMonitor::finish`].
    pub fn start() -> HostMonitor {
        let log = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut lag = Duration::ZERO;
                loop {
                    if let Some((steal, busy)) = steal_ticks() {
                        log.lock()
                            .expect("host log lock poisoned")
                            .push(HostSample {
                                at: Instant::now(),
                                steal,
                                busy,
                                lag,
                            });
                    }
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let asleep = Instant::now();
                    std::thread::sleep(SAMPLE_EVERY);
                    lag += asleep.elapsed().saturating_sub(SAMPLE_EVERY);
                }
            })
        };
        HostMonitor { log, stop, handle }
    }

    /// Stops sampling and returns the log.
    pub fn finish(self) -> HostLog {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("host sampler panicked");
        let samples = std::mem::take(&mut *self.log.lock().expect("host log lock poisoned"));
        HostLog { samples }
    }
}

/// Sampled host interference of one run.
pub struct HostLog {
    samples: Vec<HostSample>,
}

impl HostLog {
    /// The samples around the interval from `from` to `to`.
    fn around(&self, from: Instant, to: Instant) -> Option<(HostSample, HostSample)> {
        let s = &self.samples;
        let before = s
            .partition_point(|x| x.at <= from)
            .checked_sub(1)
            .map_or(s.first(), |i| s.get(i));
        let after = s.get(s.partition_point(|x| x.at < to)).or(s.last());
        Some((*before?, *after?))
    }

    /// Share of non-idle CPU time stolen between `from` and `to`; 0 when it
    /// cannot be read.
    pub fn steal_share(&self, from: Instant, to: Instant) -> f64 {
        match self.around(from, to) {
            Some((a, b)) if b.busy > a.busy => {
                (b.steal - a.steal) as f64 / (b.busy - a.busy) as f64
            }
            _ => 0.0,
        }
    }

    /// Share of the time between `from` and `to` the sampling thread spent
    /// waiting to be woken after its sleeps ended.
    pub fn lag_share(&self, from: Instant, to: Instant) -> f64 {
        match self.around(from, to) {
            Some((a, b)) if b.at > a.at => {
                (b.lag - a.lag).as_secs_f64() / (b.at - a.at).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// How much the host interfered between `from` and `to`: the steal
    /// share plus the wake-up lag share.  Used to rank intervals only.
    pub fn interference(&self, from: Instant, to: Instant) -> f64 {
        self.steal_share(from, to) + self.lag_share(from, to)
    }

    /// The run's overall steal and wake-up lag shares, for the report.
    pub fn summary(&self) -> String {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => format!(
                "steal_share {:.4} wake_lag_share {:.4}",
                self.steal_share(a.at, b.at),
                self.lag_share(a.at, b.at)
            ),
            _ => "steal_share - wake_lag_share -".to_string(),
        }
    }
}

/// How many of `n` items, ordered by host interference, count as quiet:
/// the quietest third, at least 3 (all of them when fewer).
fn quiet_count(n: usize) -> usize {
    n.div_ceil(3).max(3).min(n)
}

/// Median of the values measured while the host interfered least: the
/// quietest third of `(value, interference)` pairs (see [`quiet_count`],
/// plus every pair as quiet as the last one kept, so on an idle host this
/// is the plain median).  On a shared host, interference inflates a
/// measurement by the neighbours' load, not the program's work.
pub fn quiet_median(mut pairs: Vec<(f64, f64)>) -> f64 {
    pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let Some(&(_, limit)) = pairs.get(quiet_count(pairs.len()).saturating_sub(1)) else {
        return 0.0;
    };
    let quiet: Vec<f64> = pairs.iter().filter(|p| p.1 <= limit).map(|p| p.0).collect();
    median(&quiet)
}

/// The measuring window cut into equal time slices of about
/// `SLICE_SECONDS`.  Interference comes in bursts of about a second, so
/// short slices let the quiet stretches of a busy run through.
struct Slices {
    origin: Instant,
    width: f64,
    /// Per slice: whether it is among the quietest (see [`quiet_count`],
    /// ties kept).
    quiet: Vec<bool>,
}

impl Slices {
    fn new(origin: Instant, span: f64, host: &HostLog) -> Slices {
        let count = ((span / SLICE_SECONDS).round() as usize).max(1);
        let width = span / count as f64;
        let at = |i: usize| origin + Duration::from_secs_f64(width * i as f64);
        let shares: Vec<f64> = (0..count)
            .map(|k| host.interference(at(k), at(k + 1)))
            .collect();
        let mut sorted = shares.clone();
        sorted.sort_by(f64::total_cmp);
        let limit = sorted[quiet_count(count) - 1];
        Slices {
            origin,
            width,
            quiet: shares.iter().map(|&s| s <= limit).collect(),
        }
    }

    /// Whether `at` falls in a quiet slice.
    fn is_quiet(&self, at: Instant) -> bool {
        let k = (at.saturating_duration_since(self.origin).as_secs_f64() / self.width) as usize;
        self.quiet[k.min(self.quiet.len() - 1)]
    }

    /// Seconds the quiet slices cover.
    fn quiet_seconds(&self) -> f64 {
        self.quiet.iter().filter(|&&q| q).count() as f64 * self.width
    }
}

/// Events per second over the quiet slices of the window.
pub fn sliced_rate(
    events: impl Iterator<Item = Instant>,
    origin: Instant,
    span: f64,
    host: &HostLog,
) -> f64 {
    let slices = Slices::new(origin, span, host);
    let count = events.filter(|&at| slices.is_quiet(at)).count();
    ratio(count as f64, slices.quiet_seconds())
}

/// Durations of timed intervals `(start, seconds)`, combined by
/// [`quiet_median`].
pub fn quiet_duration(intervals: &[(Instant, f64)], host: &HostLog) -> f64 {
    quiet_median(
        intervals
            .iter()
            .map(|&(start, secs)| {
                let end = start + std::time::Duration::from_secs_f64(secs);
                (secs, host.interference(start, end))
            })
            .collect(),
    )
}

/// The quiet median (see [`quiet_median`]) of each position over repeated
/// passes: `samples` holds whole passes of `width` latencies in ms, every
/// pass in the same order, each stamped with when it ended.  A run is
/// judged by the host's interference over the sampling interval around it,
/// so quiet runs are found between bursts of load a second long.
pub fn per_position_medians(samples: &[Stamped], width: usize, host: &HostLog) -> Vec<f64> {
    (0..width)
        .map(|j| {
            let runs = samples.iter().skip(j).step_by(width).map(|&(end, ms)| {
                let start = end - Duration::from_secs_f64(ms / 1e3);
                (ms, host.interference(start, end))
            });
            quiet_median(runs.collect())
        })
        .collect()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric: value, unit and, for percentiles and medians, the
/// number of samples it was taken from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// The ordered metric list of one run.
#[derive(Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric without a sample count.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_sampled(name, value, unit, None);
    }

    /// Adds a metric taken from `samples` samples.
    pub fn put_sampled(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        assert!(
            self.items.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.items.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    pub fn items(&self) -> &[Metric] {
        &self.items
    }
}

/// Correctness accounting: every checked operation is attempted once and
/// fails at most once.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation; returns `ok` for chaining.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Share of attempted operations that were correct.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// What the result was measured on.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub workers: usize,
    pub seed: u64,
}

impl Host {
    pub fn detect(workers: usize, seed: u64) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: nproc(),
            cpu_model,
            workers,
            seed,
        }
    }

    /// More workers than cores: the run measures time slicing, not
    /// parallelism, and gives no verdict.
    pub fn oversubscribed(&self) -> bool {
        self.workers > self.nproc
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"workers\":{},\"seed\":{},\"oversubscribed\":{},\"verdict\":{}}}",
            self.nproc,
            json_string(&self.cpu_model),
            self.workers,
            self.seed,
            self.oversubscribed(),
            if self.oversubscribed() { "null" } else { "\"allowed\"" },
        )
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB, or 0 when it
/// cannot be read.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all measured digits (non-finite values become 0).
pub fn json_number(value: f64) -> String {
    // `Display` for f64 prints the shortest round-trip digits and never an
    // exponent, which is valid JSON.
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Prints the human-readable report lines, then the result JSON as the last
/// line of standard output.
pub fn emit(workload: &str, host: &Host, tally: Tally, metrics: &Metrics) {
    println!("host {}", host.to_json());
    for m in metrics.items() {
        match m.samples {
            Some(n) => println!(
                "{workload} {:<32} {:>16.6} {:<8} (n={n})",
                m.name, m.value, m.unit
            ),
            None => println!("{workload} {:<32} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    let mut body = String::new();
    for (i, m) in metrics.items().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn sliced_rate_ignores_disturbed_slices() {
        let origin = Instant::now();
        let at = |secs: f64| origin + Duration::from_secs_f64(secs);
        // Ten events a second for five seconds, but only two in the third
        // second, while the hypervisor stole half the CPU.
        let events: Vec<Instant> = (0..50)
            .filter(|i| !(22..30).contains(i))
            .map(|i| at(i as f64 / 10.0 + 0.01))
            .collect();
        let host = HostLog {
            samples: (0..=50u64)
                .map(|i| HostSample {
                    at: at(i as f64 / 10.0),
                    steal: 5 * i.clamp(20, 30) - 100,
                    busy: 10 * i,
                    lag: Duration::ZERO,
                })
                .collect(),
        };
        let rate = sliced_rate(events.iter().copied(), origin, 5.0, &host);
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
        // With nothing to tell the slices apart, every event counts.
        let idle = HostLog {
            samples: Vec::new(),
        };
        let rate = sliced_rate(events.iter().copied(), origin, 5.0, &idle);
        assert!((rate - 8.4).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn quiet_median_keeps_the_least_disturbed_third() {
        // The two slowest values were measured while the host interfered.
        let pairs = vec![(1.0, 0.0), (9.0, 0.5), (1.2, 0.01), (8.0, 0.4), (1.1, 0.02)];
        assert_eq!(quiet_median(pairs), 1.1);
        let calm = vec![(5.0, 0.0), (1.0, 0.0), (4.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
        assert_eq!(quiet_median(calm), 3.0);
        let sample = |ms: u64, steal: u64, busy: u64, lag_ms: u64| HostSample {
            at: at_ms(ms),
            steal,
            busy,
            lag: Duration::from_millis(lag_ms),
        };
        let log = HostLog {
            samples: vec![
                sample(0, 0, 0, 0),
                sample(100, 10, 100, 0),
                sample(200, 10, 200, 20),
            ],
        };
        assert!((log.steal_share(at_ms(0), at_ms(100)) - 0.1).abs() < 1e-12);
        assert_eq!(log.lag_share(at_ms(0), at_ms(100)), 0.0);
        assert_eq!(log.steal_share(at_ms(100), at_ms(200)), 0.0);
        assert!((log.interference(at_ms(100), at_ms(200)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn per_position_medians_skip_disturbed_runs() {
        // One instance, nine passes; five of its runs took 20 ms while the
        // host woke the sampler late, the other four took about 2 ms.
        let disturbed = [1, 3, 5, 7, 8];
        let mut lag = Duration::ZERO;
        let mut log = Vec::new();
        for k in 0..=9u64 {
            log.push(HostSample {
                at: at_ms(100 * k),
                steal: 0,
                busy: 10 * k,
                lag,
            });
            if disturbed.contains(&k) {
                lag += Duration::from_millis(30);
            }
        }
        let host = HostLog { samples: log };
        let mut clean = [2.0, 2.1, 2.2, 2.3].into_iter();
        let samples: Vec<Stamped> = (0..9u64)
            .map(|k| {
                let ms = if disturbed.contains(&k) {
                    20.0
                } else {
                    clean.next().expect("four clean runs")
                };
                (at_ms(100 * k + 50), ms)
            })
            .collect();
        assert_eq!(per_position_medians(&samples, 1, &host), vec![2.1]);
        let idle = HostLog {
            samples: Vec::new(),
        };
        assert_eq!(per_position_medians(&samples, 1, &idle), vec![20.0]);
    }

    fn at_ms(ms: u64) -> Instant {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        *ORIGIN.get_or_init(Instant::now) + std::time::Duration::from_millis(ms)
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
