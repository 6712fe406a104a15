//! Monte Carlo robustness sweeps: route thousands of seeded perturbations
//! of one nominal instance through the fleet and distill the skew and
//! wirelength distributions.
//!
//! The paper routes one static instance; robustness work (TRIX, Gradient
//! TRIX) treats the *distribution* of skew under placement jitter,
//! parameter variation and sink loss as the first-class metric. This
//! module provides that workload:
//!
//! * a [`PerturbationSpec`] describes the noise — uniform sink-position
//!   jitter, relative load and RC-parameter noise, and random sink drops
//!   held above a survival floor — plus the seed that makes every variant
//!   reproducible;
//! * [`PerturbationSpec::variant`] derives variant *i* deterministically
//!   and **independently** (each variant seeds its own [`ChaCha12Rng`]
//!   from a splitmix of the spec seed and the variant index), so the set
//!   of variants never depends on chunking, thread count, or how many
//!   variants the sweep asks for — variant 17 of a 64-variant sweep is
//!   bit-identical to variant 17 of a 10 000-variant sweep;
//! * [`sweep`] fans the variants out **barrier-free** through
//!   [`astdme_par::claim_loop`] under a [`BatchPolicy`] (per-instance
//!   deadlines and [`FaultPlan`] injection included): the calling thread
//!   and pool helpers derive variants on demand, route them, and reduce
//!   each outcome to scalars on the routing thread (full trees are
//!   dropped there, never crossing a channel); the scalars stream to the
//!   caller's accumulator through a bounded channel — no chunk barriers,
//!   so no worker ever idles waiting for a chunk's slowest variant;
//!   memory is O(variants) doubles plus the in-flight bound, never
//!   O(variants) trees or instances;
//! * the result is a [`RobustnessReport`]: running mean/min/max and exact
//!   p50/p90/p99 over global skew, intra-group skew and wirelength, plus
//!   per-variant failure accounting ([`VariantFailure`]) for every slot
//!   that panicked, overran its deadline, or produced malformed output.
//!
//! Determinism is the load-bearing property: given the same nominal
//! instance, spec, and config, the report is bit-identical at every
//! thread count (the fleet's batch ≡ sequential guarantee, plus
//! fixed-order accumulation here), so whole distribution reports pin into
//! golden tests — see `tests/robustness.rs`.

use std::collections::BTreeMap;

use astdme_engine::{Groups, Instance, Sink};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::fault::FaultPlan;
use crate::fleet::BatchPolicy;
use crate::{ClockRouter, RouteError};

/// A seeded description of how to perturb a nominal instance into Monte
/// Carlo variants.
///
/// All noise is uniform and centered: position jitter is an absolute
/// ±range in µm, load and RC jitter are relative ±fractions (strictly
/// below 1, so capacitances and RC parameters stay positive), and each
/// sink independently drops with probability [`drop_rate`] — but never
/// below the [`survival_floor`] fraction of sinks, and never the last
/// member of a group (the variant keeps the nominal group structure).
///
/// [`drop_rate`]: Self::drop_rate
/// [`survival_floor`]: Self::survival_floor
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbationSpec {
    /// Master seed; every variant derives its own RNG from this and its
    /// variant index.
    pub seed: u64,
    /// Absolute sink-position jitter (µm): each coordinate moves by a
    /// uniform draw from `[-position_jitter, +position_jitter]`.
    pub position_jitter: f64,
    /// Relative sink-load jitter: each capacitance scales by a uniform
    /// factor from `[1 - load_jitter, 1 + load_jitter]`. Must be `< 1`.
    pub load_jitter: f64,
    /// Relative RC-parameter jitter: unit resistance and capacitance each
    /// scale by an independent uniform factor from
    /// `[1 - rc_jitter, 1 + rc_jitter]`. Must be `< 1`.
    pub rc_jitter: f64,
    /// Per-sink drop probability, in `[0, 1)`.
    pub drop_rate: f64,
    /// Minimum surviving fraction of sinks, in `(0, 1]`. Dropped sinks
    /// are restored (lowest index first) until the floor holds.
    pub survival_floor: f64,
}

impl PerturbationSpec {
    /// A no-op spec with the given seed: zero jitter, zero drops. Layer
    /// noise on with the `with_*` builders.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            position_jitter: 0.0,
            load_jitter: 0.0,
            rc_jitter: 0.0,
            drop_rate: 0.0,
            survival_floor: 0.5,
        }
    }

    /// Sets the absolute position jitter (µm); returns `self`.
    pub fn with_position_jitter(mut self, um: f64) -> Self {
        self.position_jitter = um;
        self
    }

    /// Sets the relative load jitter; returns `self`.
    pub fn with_load_jitter(mut self, fraction: f64) -> Self {
        self.load_jitter = fraction;
        self
    }

    /// Sets the relative RC-parameter jitter; returns `self`.
    pub fn with_rc_jitter(mut self, fraction: f64) -> Self {
        self.rc_jitter = fraction;
        self
    }

    /// Sets the per-sink drop probability; returns `self`.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the survival floor (minimum surviving sink fraction);
    /// returns `self`.
    pub fn with_survival_floor(mut self, fraction: f64) -> Self {
        self.survival_floor = fraction;
        self
    }

    /// Validates the spec's ranges.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::BadParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), RouteError> {
        let bad = |msg: String| Err(RouteError::BadParameter(msg));
        if !self.position_jitter.is_finite() || self.position_jitter < 0.0 {
            return bad(format!(
                "position_jitter must be finite and non-negative, got {}",
                self.position_jitter
            ));
        }
        for (name, v) in [
            ("load_jitter", self.load_jitter),
            ("rc_jitter", self.rc_jitter),
        ] {
            if !v.is_finite() || !(0.0..1.0).contains(&v) {
                return bad(format!("{name} must lie in [0, 1), got {v}"));
            }
        }
        if !self.drop_rate.is_finite() || !(0.0..1.0).contains(&self.drop_rate) {
            return bad(format!(
                "drop_rate must lie in [0, 1), got {}",
                self.drop_rate
            ));
        }
        if !self.survival_floor.is_finite()
            || !(0.0..=1.0).contains(&self.survival_floor)
            || self.survival_floor == 0.0
        {
            return bad(format!(
                "survival_floor must lie in (0, 1], got {}",
                self.survival_floor
            ));
        }
        Ok(())
    }

    /// Derives Monte Carlo variant `index` of `nominal`.
    ///
    /// Bit-deterministic and *independent per index*: the variant's RNG is
    /// seeded from a splitmix of `self.seed` and `index`, and the draw
    /// order is fixed (per sink: x jitter, y jitter, load factor, drop
    /// draw; then the two RC factors), so the same `(spec, index)` always
    /// yields the same instance regardless of any other variant.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::BadParameter`] when the spec fails
    /// [`PerturbationSpec::validate`]. With a valid spec, derivation
    /// itself cannot fail: jitter keeps positions finite and loads
    /// positive, and drops preserve the survival floor and at least one
    /// member per group.
    pub fn variant(&self, nominal: &Instance, index: usize) -> Result<Instance, RouteError> {
        self.validate()?;
        let mut rng = ChaCha12Rng::seed_from_u64(mix_seed(self.seed, index as u64));
        let n = nominal.sink_count();
        let mut sinks = Vec::with_capacity(n);
        let mut dropped = Vec::new();
        for sink in nominal.sinks() {
            let ux = rng.random_range(0.0..1.0);
            let uy = rng.random_range(0.0..1.0);
            let ul = rng.random_range(0.0..1.0);
            let ud = rng.random_range(0.0..1.0);
            let mut s = *sink;
            s.pos.x += (2.0 * ux - 1.0) * self.position_jitter;
            s.pos.y += (2.0 * uy - 1.0) * self.position_jitter;
            s.cap *= 1.0 + (2.0 * ul - 1.0) * self.load_jitter;
            dropped.push(ud < self.drop_rate);
            sinks.push(s);
        }
        let ur = rng.random_range(0.0..1.0);
        let uc = rng.random_range(0.0..1.0);
        let rc = astdme_delay::RcParams::new(
            nominal.rc().r_per_um() * (1.0 + (2.0 * ur - 1.0) * self.rc_jitter),
            nominal.rc().c_per_um() * (1.0 + (2.0 * uc - 1.0) * self.rc_jitter),
        );

        // Enforce the drop constraints deterministically, independent of
        // the draws' outcome order: every group keeps its lowest-index
        // member, then lowest-index dropped sinks are restored until the
        // survival floor holds.
        let assignment = nominal.groups().assignment();
        let group_count = nominal.groups().group_count();
        let mut survivors_per_group = vec![0usize; group_count];
        for (i, &is_dropped) in dropped.iter().enumerate() {
            if !is_dropped {
                survivors_per_group[assignment[i]] += 1;
            }
        }
        for (g, survivors) in survivors_per_group.iter_mut().enumerate() {
            if *survivors == 0 {
                let first = (0..n)
                    .find(|&i| assignment[i] == g)
                    .expect("nonempty group");
                dropped[first] = false;
                *survivors = 1;
            }
        }
        let floor = ((self.survival_floor * n as f64).ceil() as usize).clamp(1, n);
        let mut surviving = dropped.iter().filter(|&&d| !d).count();
        for i in 0..n {
            if surviving >= floor {
                break;
            }
            if dropped[i] {
                dropped[i] = false;
                survivors_per_group[assignment[i]] += 1;
                surviving += 1;
            }
        }

        let kept: Vec<usize> = (0..n).filter(|&i| !dropped[i]).collect();
        let sinks: Vec<Sink> = kept.iter().map(|&i| sinks[i]).collect();
        let groups =
            Groups::from_assignments(kept.iter().map(|&i| assignment[i]).collect(), group_count)?
                .with_bounds(nominal.groups().bounds().to_vec())?;
        Ok(Instance::new(sinks, groups, rc, nominal.source())?)
    }
}

/// SplitMix64 finalizer over the spec seed and variant index: decorrelates
/// consecutive variant streams without any cross-variant state.
fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a sweep runs: variant count, in-flight bound, and the fleet
/// hardening policy applied to every variant.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of Monte Carlo variants to route.
    pub variants: usize,
    /// Bound on routed-but-not-yet-accumulated variant results in flight
    /// between the pool workers and the accumulating caller: workers that
    /// run ahead of the accumulator block instead of piling up results.
    /// It bounds memory only and never affects the report (variants are
    /// index-seeded, so delivery order is invisible to it).
    pub chunk: usize,
    /// The [`BatchPolicy`] every variant routes under, with faults and
    /// errors keyed by variant index. The thread count never moves a
    /// reported bit.
    pub policy: BatchPolicy,
}

impl SweepConfig {
    /// A sweep of `variants` variants: 64 results in flight, no deadline,
    /// no injected faults.
    pub fn new(variants: usize) -> Self {
        Self {
            variants,
            chunk: 64,
            policy: BatchPolicy::new(),
        }
    }

    /// Sets the in-flight bound (clamped to at least 1); returns `self`.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Sets the per-variant deadline budget; returns `self`.
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.policy = self.policy.with_deadline(seconds);
        self
    }

    /// Sets the fault schedule, keyed by variant index; returns `self`.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.policy = self.policy.with_faults(faults);
        self
    }
}

/// Distribution summary of one scalar metric over the surviving variants:
/// running mean/min/max plus exact nearest-rank percentiles.
///
/// All fields are `0.0` when `count` is zero (never NaN, so reports stay
/// comparable bit-for-bit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Number of values summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Exact 50th percentile (nearest-rank).
    pub p50: f64,
    /// Exact 90th percentile (nearest-rank).
    pub p90: f64,
    /// Exact 99th percentile (nearest-rank).
    pub p99: f64,
}

impl MetricSummary {
    const EMPTY: Self = Self {
        count: 0,
        mean: 0.0,
        min: 0.0,
        max: 0.0,
        p50: 0.0,
        p90: 0.0,
        p99: 0.0,
    };
}

/// Streaming accumulator behind a [`MetricSummary`]: a running sum and
/// extrema plus the retained scalar values for exact percentiles. The
/// retained state is O(variants) *doubles* — the full trees the values
/// came from are dropped by the sweep loop as soon as they are measured.
#[derive(Debug, Clone, Default)]
struct MetricAcc {
    sum: f64,
    min: f64,
    max: f64,
    values: Vec<f64>,
}

impl MetricAcc {
    fn push(&mut self, v: f64) {
        if self.values.is_empty() {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += v;
        self.values.push(v);
    }

    fn summary(mut self) -> MetricSummary {
        let n = self.values.len();
        if n == 0 {
            return MetricSummary::EMPTY;
        }
        self.values.sort_by(f64::total_cmp);
        let pct = |q: f64| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            self.values[rank - 1]
        };
        MetricSummary {
            count: n,
            mean: self.sum / n as f64,
            min: self.min,
            max: self.max,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        }
    }
}

/// One failed variant: which one, and why (the stable
/// [`RouteError::kind`] string plus the full error message).
#[derive(Debug, Clone, PartialEq)]
pub struct VariantFailure {
    /// Sweep-global variant index.
    pub variant: usize,
    /// Stable failure class (see [`RouteError::kind`]).
    pub kind: &'static str,
    /// The error's display message.
    pub message: String,
}

/// The distilled result of a robustness sweep.
///
/// Bit-deterministic for a given nominal instance, spec, and config at
/// every thread count — including the failure list, which is ordered by
/// variant index. (A [`RouteError::DeadlineExceeded`] failure's *message*
/// embeds measured wall-clock and is the one run-dependent field; sweeps
/// without deadline overruns golden-test exactly.)
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Variants requested (and attempted).
    pub variants: usize,
    /// Variants that routed successfully.
    pub succeeded: usize,
    /// Per-variant failures, ascending by variant index.
    pub failures: Vec<VariantFailure>,
    /// Global source-to-sink skew distribution over the survivors.
    pub global_skew: MetricSummary,
    /// Worst intra-group skew distribution over the survivors.
    pub intra_group_skew: MetricSummary,
    /// Total wirelength distribution over the survivors.
    pub wirelength: MetricSummary,
}

impl RobustnessReport {
    /// Failure counts per stable [`RouteError::kind`] class, e.g.
    /// `[("deadline_exceeded", 1), ("panicked", 1)]`, sorted by class.
    pub fn failure_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for f in &self.failures {
            *counts.entry(f.kind).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

/// One variant's result, reduced to scalars on the thread that routed it.
enum VariantOutcome {
    Routed {
        global_skew: f64,
        intra_group_skew: f64,
        wirelength: f64,
    },
    Failed {
        kind: &'static str,
        message: String,
    },
}

/// Derives variant `index`, routes it under `policy`, and reduces the
/// outcome to the three report scalars — the full tree (and the variant
/// instance itself) drop here, on the routing worker, so only scalars
/// ever cross the stream back to the accumulator.
fn route_variant<R>(
    nominal: &Instance,
    spec: &PerturbationSpec,
    policy: &BatchPolicy,
    router: &R,
    index: usize,
) -> VariantOutcome
where
    R: ClockRouter + ?Sized,
{
    match spec.variant(nominal, index) {
        Ok(inst) => match crate::fleet::route_caught(router, &inst, index, policy) {
            Ok(out) => VariantOutcome::Routed {
                global_skew: out.report.global_skew(),
                intra_group_skew: out.report.max_intra_group_skew(),
                wirelength: out.report.wirelength(),
            },
            Err(e) => VariantOutcome::Failed {
                kind: e.kind(),
                message: e.to_string(),
            },
        },
        // Unreachable with a pre-validated spec (see
        // `PerturbationSpec::variant`); accounted per-variant so a
        // mid-sweep surprise cannot lose the rest of the report.
        Err(e) => VariantOutcome::Failed {
            kind: e.kind(),
            message: e.to_string(),
        },
    }
}

/// The in-order accumulator behind a [`RobustnessReport`]. Pushes must
/// arrive in ascending variant order: f64 summation is non-associative,
/// so index-ordered accumulation is what keeps reports bit-identical at
/// every thread count.
#[derive(Default)]
struct ReportAcc {
    succeeded: usize,
    failures: Vec<VariantFailure>,
    global_skew: MetricAcc,
    intra_group_skew: MetricAcc,
    wirelength: MetricAcc,
}

impl ReportAcc {
    fn push(&mut self, index: usize, outcome: VariantOutcome) {
        match outcome {
            VariantOutcome::Routed {
                global_skew,
                intra_group_skew,
                wirelength,
            } => {
                self.succeeded += 1;
                self.global_skew.push(global_skew);
                self.intra_group_skew.push(intra_group_skew);
                self.wirelength.push(wirelength);
            }
            VariantOutcome::Failed { kind, message } => self.failures.push(VariantFailure {
                variant: index,
                kind,
                message,
            }),
        }
    }

    fn finish(self, variants: usize) -> RobustnessReport {
        RobustnessReport {
            variants,
            succeeded: self.succeeded,
            failures: self.failures,
            global_skew: self.global_skew.summary(),
            intra_group_skew: self.intra_group_skew.summary(),
            wirelength: self.wirelength.summary(),
        }
    }
}

/// Routes `config.variants` seeded perturbations of `nominal` through
/// `router` and distills the outcome distributions; see the [module
/// docs](self) for the determinism and memory contract.
///
/// The fan-out is **barrier-free**: the calling thread and pool helpers
/// claim variant indices from a shared cursor, derive + route + reduce
/// each variant, and stream the scalars to the caller's accumulator
/// through a channel bounded at [`SweepConfig::chunk`] results — no
/// worker ever idles at a chunk boundary waiting for the slowest
/// variant. The caller re-buffers
/// out-of-order arrivals and accumulates strictly in variant order, so
/// the report is bit-identical at every thread count and in-flight bound.
/// Failures — injected or genuine — consume their own variant's slot
/// only; every other variant's metrics are bit-identical to a
/// failure-free sweep.
///
/// # Errors
///
/// Returns [`RouteError::BadParameter`] when the spec fails validation.
/// Per-variant routing failures do *not* fail the sweep; they are
/// accounted in [`RobustnessReport::failures`].
pub fn sweep<R>(
    nominal: &Instance,
    spec: &PerturbationSpec,
    config: &SweepConfig,
    router: &R,
) -> Result<RobustnessReport, RouteError>
where
    R: ClockRouter + Sync + ?Sized,
{
    spec.validate()?;
    let mut acc = ReportAcc::default();
    // Consume in completion order, accumulate in index order: a small
    // reorder buffer holds early arrivals until their predecessors land.
    let mut pending: BTreeMap<usize, VariantOutcome> = BTreeMap::new();
    let mut next_index = 0usize;
    astdme_par::claim_loop(
        config.variants,
        config.chunk,
        |index| route_variant(nominal, spec, &config.policy, router, index),
        |index, outcome| {
            pending.insert(index, outcome);
            while let Some(outcome) = pending.remove(&next_index) {
                acc.push(next_index, outcome);
                next_index += 1;
            }
        },
    );
    debug_assert!(pending.is_empty(), "every variant accumulated");
    Ok(acc.finish(config.variants))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultKind};
    use crate::pipeline::StageId;
    use crate::{AstDme, RcParams};
    use astdme_geom::Point;

    fn nominal(n: usize, k: usize) -> Instance {
        let sinks: Vec<Sink> = (0..n)
            .map(|i| Sink::new(Point::new(650.0 * i as f64, (i % 3) as f64 * 400.0), 1e-14))
            .collect();
        let assignment: Vec<usize> = (0..n).map(|i| i % k).collect();
        Instance::new(
            sinks,
            Groups::from_assignments(assignment, k).unwrap(),
            RcParams::default(),
            Point::new(0.0, 2500.0),
        )
        .unwrap()
    }

    fn spec() -> PerturbationSpec {
        PerturbationSpec::new(42)
            .with_position_jitter(150.0)
            .with_load_jitter(0.2)
            .with_rc_jitter(0.1)
            .with_drop_rate(0.15)
            .with_survival_floor(0.6)
    }

    #[test]
    fn variants_are_deterministic_and_index_independent() {
        let inst = nominal(14, 3);
        let s = spec();
        let a = s.variant(&inst, 7).unwrap();
        let b = s.variant(&inst, 7).unwrap();
        assert_eq!(a, b, "same (spec, index) must yield the same instance");
        let c = s.variant(&inst, 8).unwrap();
        assert_ne!(a, c, "different indices must perturb differently");
    }

    #[test]
    fn variants_respect_the_survival_floor_and_groups() {
        let inst = nominal(20, 4);
        let s = spec().with_drop_rate(0.9).with_survival_floor(0.5);
        for i in 0..50 {
            let v = s.variant(&inst, i).unwrap();
            assert!(v.sink_count() >= 10, "variant {i} fell below the floor");
            assert_eq!(v.groups().group_count(), 4, "variant {i} lost a group");
            assert_eq!(v.groups().bounds(), inst.groups().bounds());
        }
    }

    #[test]
    fn zero_noise_spec_reproduces_the_nominal_instance() {
        let inst = nominal(9, 3);
        let v = PerturbationSpec::new(5).variant(&inst, 3).unwrap();
        assert_eq!(v, inst);
    }

    #[test]
    fn spec_validation_rejects_bad_ranges() {
        let inst = nominal(6, 2);
        for bad in [
            PerturbationSpec::new(1).with_load_jitter(1.0),
            PerturbationSpec::new(1).with_rc_jitter(-0.1),
            PerturbationSpec::new(1).with_drop_rate(1.0),
            PerturbationSpec::new(1).with_survival_floor(0.0),
            PerturbationSpec::new(1).with_position_jitter(f64::NAN),
        ] {
            let err = bad.variant(&inst, 0).unwrap_err();
            assert_eq!(err.kind(), "bad_parameter", "{bad:?}");
        }
    }

    #[test]
    fn sweep_accounts_for_every_variant() {
        let inst = nominal(10, 2);
        let report = sweep(
            &inst,
            &spec(),
            &SweepConfig::new(12).with_chunk(5),
            &AstDme::new(),
        )
        .unwrap();
        assert_eq!(report.variants, 12);
        assert_eq!(report.succeeded + report.failures.len(), 12);
        assert_eq!(report.succeeded, 12, "no faults injected: all must route");
        assert_eq!(report.global_skew.count, 12);
        assert!(report.wirelength.min <= report.wirelength.p50);
        assert!(report.wirelength.p50 <= report.wirelength.p90);
        assert!(report.wirelength.p90 <= report.wirelength.p99);
        assert!(report.wirelength.p99 <= report.wirelength.max);
        assert!(report.wirelength.mean > 0.0);
    }

    #[test]
    fn chunking_is_invisible_to_the_report() {
        let inst = nominal(10, 2);
        let s = spec();
        let a = sweep(
            &inst,
            &s,
            &SweepConfig::new(9).with_chunk(3),
            &AstDme::new(),
        )
        .unwrap();
        let b = sweep(
            &inst,
            &s,
            &SweepConfig::new(9).with_chunk(64),
            &AstDme::new(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sweep_yields_an_empty_report() {
        let inst = nominal(8, 2);
        let report = sweep(&inst, &spec(), &SweepConfig::new(0), &AstDme::new()).unwrap();
        assert_eq!(report.variants, 0);
        assert_eq!(report.succeeded, 0);
        assert_eq!(report.global_skew, MetricSummary::EMPTY);
    }

    #[test]
    fn injected_faults_fail_their_variants_only() {
        let inst = nominal(10, 2);
        let s = spec();
        let faults = FaultPlan::new()
            .inject(
                3,
                Fault {
                    stage: StageId::Merge,
                    kind: FaultKind::Panic,
                },
            )
            .inject(
                7,
                Fault {
                    stage: StageId::Embed,
                    kind: FaultKind::Corrupt,
                },
            );
        let config = SweepConfig::new(10).with_chunk(4).with_faults(faults);
        let report = sweep(&inst, &s, &config, &AstDme::new()).unwrap();
        assert_eq!(report.succeeded, 8);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.failures[0].variant, 3);
        assert_eq!(report.failures[0].kind, "panicked");
        assert_eq!(report.failures[1].variant, 7);
        assert_eq!(report.failures[1].kind, "malformed_output");
        assert_eq!(
            report.failure_counts(),
            vec![("malformed_output", 1), ("panicked", 1)]
        );
        // Survivors' distributions equal the fault-free sweep minus the
        // two failed variants' values.
        let clean = sweep(
            &inst,
            &s,
            &SweepConfig::new(10).with_chunk(4),
            &AstDme::new(),
        )
        .unwrap();
        assert_eq!(report.global_skew.count, 8);
        assert!(clean.global_skew.min <= report.global_skew.min);
        assert!(clean.global_skew.max >= report.global_skew.max);
    }
}
