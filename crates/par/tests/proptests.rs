//! Claim-loop delivery under skew: random mixed-cost workloads run at
//! thread overrides 1/2/3/8 and in-flight bounds 1/4/len must deliver
//! every index exactly once, with the value the serial loop computes —
//! work claiming changes who computes an item, never what it is.

use std::num::NonZeroUsize;

use proptest::prelude::*;

/// Deterministic busy-work whose cost scales with `rounds`: the value the
/// scheduler must reproduce regardless of which worker crunched it.
fn crunch(x: u64, rounds: u32) -> u64 {
    (0..rounds as u64).fold(x, |acc, i| {
        acc.wrapping_mul(6364136223846793005)
            .wrapping_add(i)
            .rotate_left(17)
    })
}

/// A skewed workload: item values plus per-item cost classes mixing very
/// cheap items with items hundreds of times more expensive, in random
/// positions — the shape that starves a fixed contiguous-chunk schedule.
fn workload() -> impl Strategy<Value = Vec<(u64, u32)>> {
    (1usize..120, any::<u64>()).prop_map(|(n, seed)| {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        (0..n)
            .map(|_| {
                let value = next();
                let rounds = match next() % 5 {
                    0 => 12_000, // expensive outlier
                    1 => 800,
                    _ => 40, // the cheap majority
                };
                (value, rounds as u32)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_index_is_delivered_exactly_once(items in workload()) {
        let f = |i: usize| crunch(items[i].0 ^ i as u64, items[i].1);
        let serial: Vec<u64> = (0..items.len()).map(f).collect();
        for threads in [1usize, 2, 3, 8] {
            astdme_par::set_thread_override(NonZeroUsize::new(threads));
            for in_flight in [1, 4, items.len()] {
                let mut got: Vec<Option<u64>> = vec![None; items.len()];
                let mut twice = None;
                let stats = astdme_par::claim_loop(items.len(), in_flight, f, |i, r| {
                    if got[i].replace(r).is_some() {
                        twice = Some(i);
                    }
                });
                prop_assert_eq!(twice, None, "{} threads, in_flight {}", threads, in_flight);
                prop_assert_eq!(
                    got.iter().map(|r| r.expect("every index delivered")).collect::<Vec<_>>(),
                    serial.clone(),
                    "claim_loop diverged at {} threads, in_flight {}", threads, in_flight
                );
                prop_assert_eq!(stats.worker_items.iter().sum::<usize>(), items.len());
            }
        }
    }
}
