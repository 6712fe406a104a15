//! In-memory spans, recorded by the benchmark around calls into the
//! library and written out once the run ends.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use astdme_core::{ClockRouter, Instance, RouteError, RouteOutcome, RouteStats};
use astdme_json as json;

use crate::harness::{percentile, since, Metrics, RunInfo};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call (`plan_round`, `flush`, `route`, …).
    pub name: &'static str,
    /// The operation (route, pass, flush, sweep) the call belongs to.
    pub op: usize,
    /// Instance index within its batch, or claim order within a sweep.
    pub index: usize,
    /// Worker thread, numbered in order of first appearance.
    pub thread: usize,
    /// Start, in seconds since the run's epoch.
    pub start: f64,
    /// End, in seconds since the run's epoch.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A single-threaded span log sharing one epoch.
pub struct Spans {
    epoch: Instant,
    /// The recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span `name` from `start` until now and returns its
    /// duration.
    pub fn close(&mut self, name: &'static str, op: usize, start: Instant) -> f64 {
        let end = since(self.epoch);
        let seconds = since(start);
        self.spans.push(Span {
            name,
            op,
            index: 0,
            thread: 0,
            start: end - seconds,
            end,
        });
        seconds
    }

    /// Writes the spans and the run's metadata as JSON to `path`.
    pub fn write(&self, path: &str, info: &RunInfo) -> std::io::Result<()> {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                json::object(
                    &[
                        json::field("name", json::quote(s.name)),
                        json::field("op", s.op.to_string()),
                        json::field("index", s.index.to_string()),
                        json::field("thread", s.thread.to_string()),
                        json::field("start_s", json::number(s.start)),
                        json::field("end_s", json::number(s.end)),
                    ],
                    0,
                )
                .replace('\n', " ")
            })
            .collect();
        let mut fields = info.fields();
        fields.push(json::field("spans", json::array(&spans, 1)));
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json::object(&fields, 0))
    }
}

/// A [`ClockRouter`] wrapper recording one `route` span per instance —
/// index, worker thread, start and end — plus the inner route's stats.
/// The fleet and sweep fan out through it exactly as through the inner
/// router.
pub struct SpanRouter<'a> {
    inner: &'a (dyn ClockRouter + Sync),
    epoch: Instant,
    /// Address range of the batch being routed, to recover each
    /// instance's index; sweeps derive fresh instances and use claim order.
    batch: (usize, usize),
    log: Mutex<RouterLog>,
}

const POISONED: &str = "no route panics while holding the span log";

#[derive(Default)]
struct RouterLog {
    op: usize,
    claimed: usize,
    threads: Vec<ThreadId>,
    spans: Vec<Span>,
    stats: Vec<RouteStats>,
}

impl<'a> SpanRouter<'a> {
    /// A wrapper timing from `epoch`; [`SpanRouter::begin`] names the
    /// router it wraps.
    pub fn new(inner: &'a (dyn ClockRouter + Sync), epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            batch: (0, 0),
            log: Mutex::new(RouterLog::default()),
        }
    }

    /// Starts operation `op`: later routes go to `inner`, and their spans
    /// carry this operation number and their index in `batch` (empty for
    /// a sweep). Worker threads keep their numbers across operations.
    pub fn begin(&mut self, op: usize, inner: &'a (dyn ClockRouter + Sync), batch: &[Instance]) {
        self.inner = inner;
        self.batch = (batch.as_ptr() as usize, batch.len());
        let log = self.log.get_mut().expect(POISONED);
        log.op = op;
        log.claimed = 0;
    }

    /// Takes the spans and route stats recorded so far.
    pub fn drain(&mut self) -> (Vec<Span>, Vec<RouteStats>) {
        let log = self.log.get_mut().expect(POISONED);
        (
            std::mem::take(&mut log.spans),
            std::mem::take(&mut log.stats),
        )
    }
}

impl ClockRouter for SpanRouter<'_> {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        let start = since(self.epoch);
        let out = self.inner.route_traced(inst);
        let end = since(self.epoch);
        let offset = (inst as *const Instance as usize).wrapping_sub(self.batch.0)
            / std::mem::size_of::<Instance>();
        let me = std::thread::current().id();
        let mut log = self.log.lock().expect(POISONED);
        let index = if offset < self.batch.1 {
            offset
        } else {
            log.claimed += 1;
            log.claimed - 1
        };
        let thread = match log.threads.iter().position(|&t| t == me) {
            Some(i) => i,
            None => {
                log.threads.push(me);
                log.threads.len() - 1
            }
        };
        let op = log.op;
        log.spans.push(Span {
            name: "route",
            op,
            index,
            thread,
            start,
            end,
        });
        if let Ok(o) = &out {
            log.stats.push(o.stats);
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The fleet metrics of traced fan-outs, each given as its per-instance
/// route spans and wall time: per fan-out means of the workers that
/// routed, their busy seconds, their waiting seconds (workers × wall −
/// busy) and the max ÷ min worker busy time, plus per-instance route time
/// percentiles over all fan-outs.
pub fn fleet_metrics(fanouts: &[(Vec<Span>, f64)], into: &mut Metrics) {
    let mut sums = [0.0f64; 4];
    for (spans, wall) in fanouts {
        let mut busy: Vec<(usize, f64)> = Vec::new();
        for s in spans {
            match busy.iter_mut().find(|(t, _)| *t == s.thread) {
                Some(b) => b.1 += s.seconds(),
                None => busy.push((s.thread, s.seconds())),
            }
        }
        let workers = busy.len() as f64;
        let total: f64 = busy.iter().map(|b| b.1).sum();
        let max = busy.iter().map(|b| b.1).fold(0.0, f64::max);
        let min = busy.iter().map(|b| b.1).fold(f64::INFINITY, f64::min);
        sums[0] += workers;
        sums[1] += total;
        sums[2] += (workers * wall - total).max(0.0);
        sums[3] += if min > 0.0 { max / min } else { 0.0 };
    }
    let n = fanouts.len().max(1) as f64;
    into.insert("fleet.workers", sums[0] / n);
    into.insert("fleet.busy_s", sums[1] / n);
    into.insert("fleet.wait_s", sums[2] / n);
    into.insert("fleet.balance", sums[3] / n);
    let ms: Vec<f64> = fanouts
        .iter()
        .flat_map(|(spans, _)| spans.iter().map(|s| s.seconds() * 1e3))
        .collect();
    into.insert("fleet.route_ms_p50", percentile(&ms, 0.5));
    into.insert("fleet.route_ms_p99", percentile(&ms, 0.99));
}
