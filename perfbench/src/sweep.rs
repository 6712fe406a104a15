//! `mc-sweep`: `robustness::sweep` over seeded perturbations of one
//! intermingled 250-sink instance, with the `robustness` bin's spec and
//! the default router, workers pinned to `nproc`.
//!
//! The nominal instance is the `robustness` bin's, whatever the seed; the
//! workload seed seeds the perturbations. A single 250-sink placement
//! varies too much from seed to seed for its figures to be compared
//! across seeds.
//!
//! Every sweep's report must equal the first, and the first must equal a
//! one-thread sweep (the report is thread-count invariant).

use std::time::Instant;

use astdme_core::{
    sweep, AstDme, ClockRouter, Instance, PerturbationSpec, RobustnessReport, SweepConfig,
};
use astdme_instances::{synthetic_instance, Placement};

use crate::harness::{
    closed_loop, median, nproc, overhead_pct, pin_workers, since, within_bound, Metrics, Setup,
    Tally,
};
use crate::replica::{self, require_same, Layers};
use crate::route::{intermingled, pipeline_metrics, wl_ratios};
use crate::trace::{fleet_metrics, SpanRouter, Spans};
use crate::{Args, Run};

const SINKS: usize = 250;
/// Seed of the nominal placement and partition (the `robustness` bin's).
const NOMINAL_SEED: u64 = 2006;
/// Variants per sweep: one sweep is one operation of the loop.
const VARIANTS: usize = 256;

fn nominal() -> (Placement, Instance) {
    let p = synthetic_instance(SINKS, NOMINAL_SEED, "robust");
    let inst = intermingled(&p, NOMINAL_SEED ^ 0xBEEF);
    (p, inst)
}

fn spec(seed: u64) -> PerturbationSpec {
    PerturbationSpec::new(seed)
        .with_position_jitter(500.0)
        .with_load_jitter(0.2)
        .with_rc_jitter(0.1)
        .with_drop_rate(0.1)
        .with_survival_floor(0.7)
}

/// Counts a sweep's variants, failing those that errored; a survivor over
/// the skew bound fails one more.
fn tally_sweep(report: &RobustnessReport, tally: &mut Tally) {
    tally.attempted += report.variants;
    tally.failed += report.failures.len();
    if !within_bound(report.intra_group_skew.max) {
        tally.failed += 1;
    }
}

/// Runs the workload.
pub fn run(args: &Args, epoch: Instant) -> Run {
    let workers = nproc();
    pin_workers(workers);
    let router = AstDme::new();
    // Set-up routes the unperturbed instance too: the variants' baseline,
    // and enough work that `setup_s` is not a few microseconds of noise.
    let (mut setup, (placement, inst, spec, nominal_wl)) = Setup::new(|| {
        let (p, inst) = nominal();
        let s = spec(args.seed);
        s.validate().expect("valid spec");
        let wl = router
            .route_traced(&inst)
            .map_or(f64::NAN, |o| o.report.wirelength());
        (p, inst, s, wl)
    });
    let config = SweepConfig::new(VARIANTS).with_chunk(64);
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let mut spans = Spans::new(epoch);

    // Warm-up sweep: the reference every later sweep must reproduce. It
    // runs twice as wide as the timed sweeps, so the worker pool spawns
    // now every thread it will hold. A pool worker re-enlists only after
    // the sweep it helped has returned; a sweep started right after
    // another can find no idle worker and spawn one more, and peak memory
    // would depend on how often that race was lost.
    pin_workers(2 * workers);
    let reference = sweep(&inst, &spec, &config, &router).expect("the sweep runs");
    pin_workers(workers);
    let one = |tally: &mut Tally, report: RobustnessReport| {
        tally_sweep(&report, tally);
        tally.check(report == reference, "sweep repeats bit-identically");
        VARIANTS
    };

    if !args.trace {
        let timings = closed_loop(
            args.seconds,
            3,
            || setup.top_up(),
            |_| {
                one(
                    &mut tally,
                    sweep(&inst, &spec, &config, &router).expect("the sweep runs"),
                )
            },
        );
        pin_workers(1);
        let serial = sweep(&inst, &spec, &config, &router).expect("the sweep runs");
        tally.check(
            serial == reference,
            "one-thread sweep equals the fanned-out one",
        );
        let (ri, rc) = wl_ratios(&placement, nominal_wl, &mut tally);
        metrics.insert("op_s_p50", median(&timings.ops));
        metrics.insert("items_per_s", timings.items_per_s());
        metrics.insert("wirelength_um", reference.wirelength.p50);
        metrics.insert("wl_ratio_intermingled", ri);
        metrics.insert("wl_ratio_clustered", rc);
        metrics.insert("setup_s", setup.median());
    } else {
        let mut wrapped = SpanRouter::new(&router, epoch);
        let (mut plain, mut traced, mut fanouts, mut stats) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        closed_loop(
            args.seconds,
            4,
            || {},
            |i| {
                let t = Instant::now();
                if i.is_multiple_of(2) {
                    let report = sweep(&inst, &spec, &config, &router).expect("the sweep runs");
                    plain.push(since(t));
                    return one(&mut tally, report);
                }
                wrapped.begin(i, &router, &[]);
                let report = sweep(&inst, &spec, &config, &wrapped).expect("the sweep runs");
                let wall = since(t);
                traced.push(wall);
                let (routes, st) = wrapped.drain();
                fanouts.push((routes, wall));
                stats.extend(st);
                one(&mut tally, report)
            },
        );
        fleet_metrics(&fanouts, &mut metrics);
        pipeline_metrics(&stats, traced.len() as f64, &mut metrics);
        metrics.insert("trace.overhead_pct", overhead_pct(&traced, &plain));
        metrics.insert("robustness.failures", reference.failures.len() as f64);
        spans.spans.extend(fanouts.into_iter().flat_map(|f| f.0));

        // Variant derivation and the engine / planner split, serially over
        // one sweep's variants, each replica checked against the library.
        pin_workers(1);
        let t = Instant::now();
        let variants: Vec<Instance> = (0..VARIANTS)
            .map(|v| spec.variant(&inst, v).expect("valid variant"))
            .collect();
        metrics.insert("robustness.derive_s", spans.close("derive", 0, t));
        let mut layers = Layers::default();
        let plan = router.plan();
        for (v, variant) in variants.iter().enumerate() {
            let r = replica::route(variant, &plan, &mut layers, &mut spans, v);
            let library = router.route_traced(variant).expect("variants route");
            require_same(&r, &library, v);
        }
        layers.report(1.0, &mut metrics);
    }
    Run {
        tally,
        metrics,
        spans,
        workers,
    }
}
