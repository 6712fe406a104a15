//! Shared measurement plumbing: the closed timing loop, set-up
//! repetitions, order statistics, the run's metadata, and the result line.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::Instant;

use astdme_json as json;

/// The skew bound of the paper's tables (10 ps): AST-DME per group,
/// EXT-BST globally.
pub use astdme_bench::PAPER_BOUND;

/// Relative slack on the skew bound, as `run_circuit` allows AST-DME.
const SKEW_SLACK: f64 = 1e-6;

/// Whether a skew — AST-DME intra-group or EXT-BST global — is within the
/// paper's bound, up to [`SKEW_SLACK`] of floating-point rounding.
pub fn within_bound(skew: f64) -> bool {
    skew <= PAPER_BOUND * (1.0 + SKEW_SLACK)
}

/// Seconds elapsed since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Pins the worker count every fan-out in this process uses.
pub fn pin_workers(n: usize) {
    astdme_par::set_thread_override(NonZeroUsize::new(n));
}

/// Logical CPUs visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Nearest-rank percentile `q` ∈ (0, 1] of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values` (nearest-rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How much slower, in percent, the median traced operation ran than the
/// median untraced one of the same run.
pub fn overhead_pct(traced: &[f64], plain: &[f64]) -> f64 {
    (median(traced) / median(plain) - 1.0) * 100.0
}

/// Share of a run's wall time spent repeating set-up.
const SETUP_SHARE: f64 = 0.05;
/// Set-up repetitions a run takes at least.
const MIN_SETUPS: usize = 5;

/// A workload's set-up, timed over repetitions spread across the run.
///
/// Host speed drifts in episodes of a fraction of a second to seconds, so
/// repetitions taken back to back at process start all land in one
/// episode and `setup_s` would swing from run to run by far more than the
/// operations do. The first build gives the run its value; later builds
/// run between the timed operations ([`Setup::top_up`]) and are dropped,
/// so `setup_s` is a median over the same stretch of time as the
/// operations' figures.
pub struct Setup<F> {
    build: F,
    started: Instant,
    times: Vec<f64>,
    spent: f64,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Builds once, timed, and returns the value the run uses.
    pub fn new(build: F) -> (Self, T) {
        let mut setup = Self {
            build,
            started: Instant::now(),
            times: Vec::new(),
            spent: 0.0,
        };
        let value = setup.timed();
        (setup, value)
    }

    fn timed(&mut self) -> T {
        let t0 = Instant::now();
        let value = (self.build)();
        let t = since(t0);
        self.times.push(t);
        self.spent += t;
        value
    }

    /// Repeats the build, dropping each result, while set-up has had less
    /// than [`SETUP_SHARE`] of the time since [`Setup::new`].
    pub fn top_up(&mut self) {
        while self.spent < SETUP_SHARE * since(self.started) {
            drop(self.timed());
        }
    }

    /// The median build time, over at least [`MIN_SETUPS`] builds.
    pub fn median(mut self) -> f64 {
        while self.times.len() < MIN_SETUPS {
            drop(self.timed());
        }
        median(&self.times)
    }
}

/// Runs `op` in a closed loop — each call starts after the previous one
/// returned — until `seconds` have elapsed, and at least `min_ops` times.
/// `op` receives the iteration index and returns how many items it
/// completed; `between` runs untimed after each call. Returns each call's
/// wall time.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    mut between: impl FnMut(),
    mut op: impl FnMut(usize) -> usize,
) -> Timings {
    let started = Instant::now();
    let mut timings = Timings::default();
    while timings.ops.len() < min_ops || since(started) < seconds {
        let t0 = Instant::now();
        let items = op(timings.ops.len());
        timings.ops.push(since(t0));
        timings.items += items;
        between();
    }
    timings
}

/// Wall times of a closed loop's operations and the items they completed.
#[derive(Debug, Default)]
pub struct Timings {
    /// Seconds per operation, in issue order.
    pub ops: Vec<f64>,
    /// Items (routes, flushes, variants) completed over all operations.
    pub items: usize,
}

impl Timings {
    /// Items per second of busy loop time.
    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / self.ops.iter().sum::<f64>()
    }
}

/// Success and failure tallies plus the correctness verdict of a run.
#[derive(Debug)]
pub struct Tally {
    /// Operations attempted (routes, flushes, variants).
    pub attempted: usize,
    /// Operations that failed: an `Err`, or a tree over its skew bound.
    pub failed: usize,
    /// Every output check passed so far.
    pub correct: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an output check; a failed check is reported on stderr and
    /// makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            if self.correct {
                eprintln!("perfbench: check failed: {what}");
            }
            self.correct = false;
        }
    }
}

/// Metric values by name, as one workload reports them.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run's identifying facts, recorded in every output.
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Logical CPUs.
    pub nproc: usize,
    /// Worker threads the workload's fan-outs are pinned to.
    pub workers: usize,
    /// Checked-out commit, or `unknown`.
    pub commit: String,
}

impl RunInfo {
    /// The metadata as JSON fields.
    pub fn fields(&self) -> Vec<String> {
        vec![
            json::field("workload", json::quote(&self.workload)),
            json::field("seed", self.seed.to_string()),
            json::field("seconds", json::number(self.seconds)),
            json::field("trace", if self.trace { "true" } else { "false" }),
            json::field("nproc", self.nproc.to_string()),
            json::field("workers", self.workers.to_string()),
            json::field("commit", json::quote(&self.commit)),
            json::field("features", json::quote("default (no parallel)")),
        ]
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every `(name, unit)` of `catalogue` taken from `values`, in catalogue
/// order. A name missing from `values` reports 0: the workload never
/// enters that layer.
pub fn result_line(tally: &Tally, catalogue: &[(&str, &str)], values: &Metrics) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(value),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}
