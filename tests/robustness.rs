//! Robustness-sweep determinism and fleet fault tolerance.
//!
//! The contract under test: a seeded Monte Carlo sweep is bit-identical
//! at every thread count (the distribution report golden-tests exactly),
//! and injected faults — panics, deadline overruns, corrupted outputs —
//! fail only their own variant's slot while every survivor's outcome is
//! bit-identical to a fault-free run. Regenerate the golden distribution
//! after an intentional engine change with:
//!
//! ```sh
//! ASTDME_BLESS=1 cargo test --test robustness -- --nocapture
//! ```

use std::num::NonZeroUsize;

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    robustness, AstDme, BatchPlan, BatchPolicy, EngineConfig, Fault, FaultKind, FaultPlan,
    Instance, PerturbationSpec, RouteError, StageId, SweepConfig,
};
use proptest::prelude::*;

const BOUND: f64 = 10e-12;

/// The nominal instance every sweep perturbs: a 12-sink, 3-group
/// intermingled scenario, small enough for debug-mode 1000-variant runs.
fn nominal() -> Instance {
    let p = synthetic_instance(12, 2006, "robust");
    let inst = partition::intermingled(&p, 3, 5).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(BOUND)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

fn spec() -> PerturbationSpec {
    PerturbationSpec::new(0xA57_D43)
        .with_position_jitter(400.0)
        .with_load_jitter(0.25)
        .with_rc_jitter(0.1)
        .with_drop_rate(0.2)
        .with_survival_floor(0.5)
}

fn router() -> AstDme {
    AstDme::new().with_engine(EngineConfig::fast())
}

/// The golden fields of the 1000-variant report, in the order
/// [`report_fields`] lists them. Regenerate with `ASTDME_BLESS=1`.
const GOLDEN: [(&str, f64); 13] = [
    ("succeeded", 1000.0),
    ("global_skew.mean", 1.8866298491918902e-11),
    ("global_skew.min", 5.960689162191586e-12),
    ("global_skew.max", 5.772659083820915e-10),
    ("global_skew.p50", 1.0658365720399555e-11),
    ("global_skew.p90", 1.4802002408908253e-11),
    ("global_skew.p99", 2.313619649377505e-10),
    ("intra_group_skew.p99", 1.0000000000000379e-11),
    ("wirelength.mean", 306655.4597962914),
    ("wirelength.min", 184946.836784676),
    ("wirelength.max", 379293.570318688),
    ("wirelength.p50", 307124.795670469),
    ("wirelength.p99", 365711.7893648027),
];

fn report_fields(r: &robustness::RobustnessReport) -> Vec<(&'static str, f64)> {
    vec![
        ("succeeded", r.succeeded as f64),
        ("global_skew.mean", r.global_skew.mean),
        ("global_skew.min", r.global_skew.min),
        ("global_skew.max", r.global_skew.max),
        ("global_skew.p50", r.global_skew.p50),
        ("global_skew.p90", r.global_skew.p90),
        ("global_skew.p99", r.global_skew.p99),
        ("intra_group_skew.p99", r.intra_group_skew.p99),
        ("wirelength.mean", r.wirelength.mean),
        ("wirelength.min", r.wirelength.min),
        ("wirelength.max", r.wirelength.max),
        ("wirelength.p50", r.wirelength.p50),
        ("wirelength.p99", r.wirelength.p99),
    ]
}

/// The headline acceptance test: a seeded 1000-variant sweep, run at
/// several thread counts, produces one bit-exact distribution report —
/// golden-tested field by field.
#[test]
fn thousand_variant_sweep_is_bit_deterministic_and_golden() {
    let bless = std::env::var_os("ASTDME_BLESS").is_some();
    let inst = nominal();
    let config = SweepConfig::new(1000).with_chunk(128);
    let mut reports = Vec::new();
    for threads in [1usize, 2, 3, 8] {
        astdme_par::set_thread_override(NonZeroUsize::new(threads));
        reports.push(robustness::sweep(&inst, &spec(), &config, &router()).expect("sweep runs"));
    }
    for (i, report) in reports.iter().enumerate().skip(1) {
        assert_eq!(report, &reports[0], "report diverged at sweep {i}");
    }
    let report = &reports[0];
    assert!(report.failures.is_empty(), "no faults injected");
    assert_eq!(report.variants, 1000);
    let fields = report_fields(report);
    if bless {
        println!("const GOLDEN: [(&str, f64); {}] = [", fields.len());
        for (name, v) in &fields {
            println!("    (\"{name}\", {v:?}),");
        }
        println!("];");
        return;
    }
    let mut failures = Vec::new();
    for ((name, got), (gname, want)) in fields.iter().zip(&GOLDEN) {
        assert_eq!(name, gname, "golden rows out of order");
        if got != want {
            failures.push(format!("{name}: {got:?} != snapshot {want:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "robustness distribution diverged (rerun with ASTDME_BLESS=1):\n{}",
        failures.join("\n")
    );
}

/// The fault-tolerance acceptance test: injecting a panic and a deadline
/// overrun into 2 of N variants yields exactly those 2 error slots, with
/// correct indices and kinds, and every survivor's outcome bit-identical
/// to the fault-free run.
#[test]
fn two_injected_faults_fail_exactly_two_variants() {
    let inst = nominal();
    let s = spec();
    let n = 8usize;
    let variants: Vec<Instance> = (0..n)
        .map(|i| s.variant(&inst, i).expect("variant builds"))
        .collect();
    let r = router();
    let plan = BatchPlan::new(&variants);
    let clean = plan.route(&variants, &r);
    // The stall (1.3 s) dwarfs the budget (1.0 s); the budget dwarfs what
    // any 12-sink variant needs, so exactly one deadline failure.
    let policy = BatchPolicy::new().with_deadline(1.0).with_faults(
        FaultPlan::new()
            .inject(
                2,
                Fault {
                    stage: StageId::Merge,
                    kind: FaultKind::Panic,
                },
            )
            .inject(
                5,
                Fault {
                    stage: StageId::Embed,
                    kind: FaultKind::Stall { seconds: 1.3 },
                },
            ),
    );
    let (faulted, _) = plan.route_with_policy(&variants, &r, &policy);
    let errors: Vec<usize> = (0..n).filter(|&i| faulted[i].is_err()).collect();
    assert_eq!(errors, vec![2, 5], "exactly the injected variants fail");
    match &faulted[2] {
        Err(RouteError::Panicked {
            instance, message, ..
        }) => {
            assert_eq!(*instance, 2);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("variant 2: expected Panicked, got {other:?}"),
    }
    match &faulted[5] {
        Err(RouteError::DeadlineExceeded {
            instance, stage, ..
        }) => {
            assert_eq!(*instance, 5);
            assert_eq!(*stage, StageId::Embed);
        }
        other => panic!("variant 5: expected DeadlineExceeded, got {other:?}"),
    }
    for i in (0..n).filter(|i| !errors.contains(i)) {
        let want = clean[i].as_ref().expect("clean run routes");
        let got = faulted[i].as_ref().expect("survivor routes");
        assert_eq!(got.tree, want.tree, "survivor {i} tree diverged");
        assert_eq!(got.report, want.report, "survivor {i} report diverged");
    }
    // The same schedule through the sweep API accounts both failures.
    let report = robustness::sweep(
        &inst,
        &s,
        &SweepConfig::new(n)
            .with_chunk(3)
            .with_deadline(1.0)
            .with_faults(policy.faults.clone()),
        &r,
    )
    .expect("sweep runs");
    assert_eq!(report.succeeded, n - 2);
    assert_eq!(report.failures.len(), 2);
    assert_eq!(
        (report.failures[0].variant, report.failures[0].kind),
        (2, "panicked")
    );
    assert_eq!(
        (report.failures[1].variant, report.failures[1].kind),
        (5, "deadline_exceeded")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed + spec ⇒ bit-identical variant sets and a bit-identical
    /// report at thread overrides 1, 2, 3 and 8.
    #[test]
    fn sweep_is_bit_identical_across_thread_overrides(
        seed in any::<u64>(),
        jitter in 0.0..600.0f64,
        drop_rate in 0.0..0.4f64,
    ) {
        let inst = nominal();
        let s = PerturbationSpec::new(seed)
            .with_position_jitter(jitter)
            .with_load_jitter(0.2)
            .with_rc_jitter(0.05)
            .with_drop_rate(drop_rate)
            .with_survival_floor(0.5);
        let config = SweepConfig::new(10).with_chunk(4);
        let r = router();
        let variants: Vec<Instance> = (0..10)
            .map(|i| s.variant(&inst, i).expect("variant builds"))
            .collect();
        let mut reference = None;
        for threads in [1usize, 2, 3, 8] {
            astdme_par::set_thread_override(NonZeroUsize::new(threads));
            // The variant set itself is derivation-order independent.
            for (i, v) in variants.iter().enumerate() {
                prop_assert_eq!(
                    &s.variant(&inst, i).expect("variant builds"), v,
                    "variant {} diverged at {} threads", i, threads
                );
            }
            let report = robustness::sweep(&inst, &s, &config, &r).expect("sweep runs");
            match &reference {
                None => reference = Some(report),
                Some(want) => prop_assert_eq!(
                    &report, want,
                    "report diverged at {} threads", threads
                ),
            }
        }
    }

    /// Injecting a fault into variant k never changes any survivor's tree.
    #[test]
    fn fault_on_variant_k_never_changes_survivors(
        k in 0usize..6,
        fault_stage in 0usize..4,
    ) {
        let inst = nominal();
        let s = spec();
        let variants: Vec<Instance> = (0..6)
            .map(|i| s.variant(&inst, i).expect("variant builds"))
            .collect();
        let r = router();
        let plan = BatchPlan::new(&variants);
        let clean = plan.route(&variants, &r);
        let stage = [StageId::Group, StageId::Merge, StageId::Embed, StageId::Repair][fault_stage];
        let policy = BatchPolicy::new().with_faults(FaultPlan::new().inject(
            k,
            Fault { stage, kind: FaultKind::Panic },
        ));
        let (faulted, _) = plan.route_with_policy(&variants, &r, &policy);
        for i in 0..6 {
            if i == k {
                prop_assert!(faulted[i].is_err(), "variant {} must fail", i);
                prop_assert_eq!(
                    faulted[i].as_ref().unwrap_err().kind(), "panicked",
                    "variant {} wrong failure kind", i
                );
            } else {
                let want = clean[i].as_ref().expect("clean run routes");
                let got = faulted[i].as_ref().expect("survivor routes");
                prop_assert_eq!(&got.tree, &want.tree, "survivor {} diverged", i);
            }
        }
    }
}
