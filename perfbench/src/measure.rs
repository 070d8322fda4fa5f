//! Measurement plumbing shared by the workloads: process CPU and memory,
//! order statistics, metrics-registry deltas, trace folding, and the
//! [`Outcome`] every workload fills in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pipeverify_core::json::Json;
use pv_obs::FoldReport;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every architecture the kernel ships.
const USER_HZ: f64 = 100.0;

/// Each workload repeats its set-up at least this many times, and for at
/// least [`SETUP_MIN_S`] seconds; `setup_s` is the median repetition.
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_S: f64 = 0.25;

/// User + system CPU seconds of the whole process so far (all threads),
/// from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; the fields after its
    // closing parenthesis are space-separated, starting with field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i - 3].parse().expect("numeric tick field") };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    pv_server::peak_rss_bytes().expect("VmHWM is readable") as f64 / (1024.0 * 1024.0)
}

/// The median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that has at least ten samples beyond it, as
/// `(percentile, value)`. With ten samples or fewer no percentile
/// qualifies, and the median is reported as percentile 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (50.0, median(values));
    }
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

/// Runs `unit` at least once and then as long as another run of the mean
/// observed length still fits in `seconds`. Returns every unit's result.
pub fn repeat_for<T>(seconds: f64, mut unit: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = vec![unit()];
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let mean = elapsed / out.len() as f64;
        if elapsed + mean > seconds {
            return out;
        }
        out.push(unit());
    }
}

/// Times `f` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`] seconds, and returns the last result with the median
/// time.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let rep = Instant::now();
        let last = f();
        times.push(rep.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return (last, median(&times));
        }
    }
}

/// Wall and CPU seconds of one unit of work.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = cpu_seconds();
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64(), cpu_seconds() - cpu)
}

/// A snapshot of the process-global metrics registry.
pub struct Registry(BTreeMap<String, u64>);

impl Registry {
    pub fn snapshot() -> Self {
        Registry(pv_obs::snapshot().into_iter().collect())
    }

    /// The value of `name` now (0 when never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// How much `name` grew between `earlier` and this snapshot.
    pub fn delta(&self, earlier: &Registry, name: &str) -> u64 {
        self.get(name) - earlier.get(name)
    }
}

/// What one traced call left behind: its folded trace, its wall time and
/// the registry before and after it.
pub struct Traced<T> {
    pub value: T,
    pub wall: f64,
    pub fold: FoldReport,
    pub before: Registry,
    pub after: Registry,
}

impl<T> Traced<T> {
    /// Self time of the spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.fold
            .rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_us as f64 / 1e6)
    }

    /// Registry growth of `name` over the call.
    pub fn delta(&self, name: &str) -> u64 {
        self.after.delta(&self.before, name)
    }

    /// `pool.busy_s` (per unit, over `units` units of work) and
    /// `pool.idle_frac` over the call on `workers` workers. Only pools of
    /// two or more workers record busy time.
    pub fn pool_metrics(&self, workers: usize, units: usize, out: &mut Outcome) {
        let busy = self.delta("pool.worker.busy_us.sum") as f64 / 1e6;
        out.metric("pool.busy_s", busy / units as f64);
        out.metric(
            "pool.idle_frac",
            (1.0 - busy / (workers as f64 * self.wall)).max(0.0),
        );
    }
}

/// Runs `f` with span tracing on, under a root span `root`, and folds the
/// events it emitted.
pub fn traced<T>(root: &'static str, f: impl FnOnce() -> T) -> Traced<T> {
    pv_obs::take_events();
    let before = Registry::snapshot();
    pv_obs::set_trace_enabled(true);
    let started = Instant::now();
    let value = {
        let _root = pv_obs::span(root);
        f()
    };
    let wall = started.elapsed().as_secs_f64();
    pv_obs::set_trace_enabled(false);
    let events = pv_obs::take_events();
    let after = Registry::snapshot();
    Traced {
        value,
        wall,
        fold: pv_obs::fold(&events, root),
        before,
        after,
    }
}

/// Accumulates elapsed time into phase buckets: each [`lap`](Self::lap)
/// charges the time since the previous lap to one bucket.
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn lap(&mut self, bucket: &mut Duration) {
        let now = Instant::now();
        *bucket += now - self.0;
        self.0 = now;
    }
}

/// Sums the time of `f` over repeated calls into `bucket`.
pub fn charge<T>(bucket: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *bucket += started.elapsed();
    out
}

/// The result of one benchmark run: verdict accounting, invariant
/// violations, metrics and context.
#[derive(Default)]
pub struct Outcome {
    /// Verdicts checked against their known answer.
    pub attempted: u64,
    /// Verdicts that errored or differed from the known answer.
    pub failed: u64,
    /// Why each failed verdict or broken invariant failed.
    pub problems: Vec<String>,
    /// Invariants (deterministic counts, replay fidelity, traced ≡
    /// untraced) that did not hold.
    pub broken: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Records one verdict and whether it matched its known answer.
    pub fn verdict(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records an invariant that must hold for the measurement to mean
    /// anything.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken += 1;
            self.problems.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn info(&mut self, key: &'static str, value: Json) {
        self.info.push((key, value));
    }

    /// The end-to-end latency metrics over per-verdict latency samples,
    /// grouped by the unit of work (sweep, wave, check) that delivered
    /// them: the median of all samples, and the median over units of each
    /// unit's [`tail`]. Taking the tail per unit keeps its percentile the
    /// same however many units a run fits, and a few units the host slowed
    /// move it no more than they move a median; the tenth-slowest of
    /// thousands of samples would measure the host's worst pauses instead.
    pub fn latency(&mut self, units: &[&[f64]]) {
        let samples = units.concat();
        let (pcts, tails): (Vec<f64>, Vec<f64>) = units.iter().map(|unit| tail(unit)).unzip();
        self.metric("latency_p50_s", median(&samples));
        self.metric("latency_tail_s", median(&tails));
        self.info("latency_tail_percentile", Json::Num(median(&pcts)));
        self.info("latency_samples", Json::from_u64(samples.len() as u64));
    }

    /// Renders the run as one JSON line.
    pub fn render(&self) -> String {
        Json::Obj(vec![
            (
                "correct".to_owned(),
                Json::Bool(self.failed == 0 && self.broken == 0),
            ),
            ("attempted".to_owned(), Json::from_u64(self.attempted)),
            ("failed".to_owned(), Json::from_u64(self.failed)),
            (
                "metrics".to_owned(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value)| (name.to_owned(), Json::Num(value)))
                        .collect(),
                ),
            ),
            (
                "info".to_owned(),
                Json::Obj(
                    self.info
                        .iter()
                        .map(|(key, value)| ((*key).to_owned(), value.clone()))
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}
