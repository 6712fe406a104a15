//! Unit tests of the from-scratch planner and the exact-cost kernel, and
//! the toy [`MergeSpace`] the planner tests share.

use super::*;
use astdme_geom::Point;

/// A toy space over explicit points with optional delays.
pub(crate) struct Pts {
    pub(crate) pts: Vec<Point>,
    pub(crate) delays: Vec<f64>,
}

impl Pts {
    pub(crate) fn new(coords: &[(f64, f64)]) -> Self {
        Self {
            pts: coords.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            delays: vec![0.0; coords.len()],
        }
    }
}

impl MergeSpace for Pts {
    fn region(&self, id: usize) -> Trr {
        Trr::from_point(self.pts[id])
    }
    fn regions(&self, id: usize, out: &mut Vec<Trr>) {
        out.push(self.region(id));
    }
    fn delay(&self, id: usize) -> f64 {
        self.delays[id]
    }
}

/// The exact-cost loop as the merge forest ran it before the kernel
/// moved here: candidate lists, `a` outer, early exit at zero.
fn nested_loop_reference(a: &[Trr], b: &[Trr]) -> f64 {
    let mut best = f64::INFINITY;
    for ca in a {
        for cb in b {
            best = best.min(ca.distance(cb));
            if best <= 0.0 {
                return best;
            }
        }
    }
    best
}

#[test]
fn min_region_distance_matches_the_nested_loop_bit_for_bit() {
    let diamond = |x: f64, y: f64, r: f64| Trr::from_point(Point::new(x, y)).dilate(r);
    let mut s: u64 = 23;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 16) % 100_000) as f64 / 97.0
    };
    let mut random = |n: usize| -> Vec<Trr> {
        (0..n)
            .map(|_| diamond(next(), next(), next() / 50.0))
            .collect()
    };
    let far = random(5);
    let other = random(7);
    let lists: Vec<(&str, Vec<Trr>, Vec<Trr>)> = vec![
        // Diamonds of radius 1 whose tips meet: distance exactly zero.
        (
            "touching",
            vec![diamond(0.0, 0.0, 1.0)],
            vec![diamond(2.0, 0.0, 1.0)],
        ),
        (
            "overlapping",
            vec![diamond(0.0, 0.0, 2.0)],
            vec![diamond(1.0, 0.5, 1.0)],
        ),
        // The second pair touches, so the scan stops before the rest.
        (
            "early exit",
            vec![
                diamond(50.0, 50.0, 1.0),
                diamond(0.0, 0.0, 1.0),
                diamond(9.0, 9.0, 0.5),
            ],
            vec![diamond(2.0, 0.0, 1.0), diamond(-40.0, 3.0, 2.0)],
        ),
        (
            "single left",
            vec![diamond(10.0, -4.0, 0.25)],
            other.clone(),
        ),
        ("single right", far.clone(), vec![diamond(10.0, -4.0, 0.25)]),
        (
            "single both",
            vec![diamond(3.0, 1.0, 0.0)],
            vec![diamond(-7.0, 2.5, 0.0)],
        ),
        ("several", far, other),
    ];
    for (name, a, b) in &lists {
        for (x, y) in [(a, b), (b, a)] {
            let got = min_region_distance(x, y);
            assert_eq!(
                got.to_bits(),
                nested_loop_reference(x, y).to_bits(),
                "{name}"
            );
            // The early exit never changes the value: a full scan agrees.
            let full = x
                .iter()
                .flat_map(|r| y.iter().map(move |t| r.distance(t)))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(got.total_cmp(&full), std::cmp::Ordering::Equal, "{name}");
        }
    }
    assert_eq!(min_region_distance(&lists[0].1, &lists[0].2), 0.0);
    assert_eq!(min_region_distance(&lists[1].1, &lists[1].2), 0.0);
    assert!(min_region_distance(&lists[6].1, &lists[6].2) > 0.0);
}

#[test]
fn greedy_picks_the_global_minimum_pair() {
    let s = Pts::new(&[(0.0, 0.0), (5.0, 0.0), (100.0, 0.0), (101.0, 0.0)]);
    let plan = plan_round(&s, &[0, 1, 2, 3], &TopoConfig::greedy());
    assert_eq!(plan, vec![(2, 3)]);
}

#[test]
fn multi_merge_returns_disjoint_pairs() {
    let s = Pts::new(&[
        (0.0, 0.0),
        (1.0, 0.0),
        (10.0, 0.0),
        (11.0, 0.0),
        (20.0, 0.0),
        (21.5, 0.0),
    ]);
    let cfg = TopoConfig {
        order: MergeOrder::MultiMerge { fraction: 0.5 },
        delay_weight: 0.0,
    };
    let plan = plan_round(&s, &[0, 1, 2, 3, 4, 5], &cfg);
    assert_eq!(plan.len(), 3);
    let mut seen = std::collections::HashSet::new();
    for (a, b) in &plan {
        assert!(seen.insert(*a));
        assert!(seen.insert(*b));
    }
    // Best pair first.
    assert_eq!(plan[0], (0, 1));
}

#[test]
fn select_disjoint_matches_a_set_based_selection() {
    // Keys straddle several bitset words, repeat, and include the
    // first and last bit of a word.
    let mut s: u64 = 11;
    let ranked: Vec<(usize, usize)> = (0..400)
        .map(|_| {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let a = ((s >> 20) % 300) as usize;
            (a, (a + 1 + ((s >> 40) % 63) as usize) % 300)
        })
        .chain([(0, 63), (64, 127), (1000, 1001)])
        .collect();
    for limit in [2, 7, 50, 1000] {
        let mut used = std::collections::BTreeSet::new();
        let mut want = Vec::new();
        for &(a, b) in &ranked {
            if want.len() < limit && !used.contains(&a) && !used.contains(&b) {
                used.insert(a);
                used.insert(b);
                want.push((a, b));
            }
        }
        assert_eq!(select_disjoint(ranked.iter().copied(), limit), want);
    }
}

#[test]
fn empty_and_single_return_no_pairs() {
    let s = Pts::new(&[(0.0, 0.0)]);
    assert!(plan_round(&s, &[], &TopoConfig::default()).is_empty());
    assert!(plan_round(&s, &[0], &TopoConfig::default()).is_empty());
}

#[test]
fn delay_bias_promotes_slow_subtrees() {
    let mut s = Pts::new(&[(0.0, 0.0), (10.0, 0.0), (100.0, 0.0), (115.0, 0.0)]);
    // The far pair is slower; with enough bias it merges first even
    // though it is geometrically more expensive.
    s.delays = vec![0.0, 0.0, 1e-12, 1e-12];
    let unbiased = plan_round(&s, &[0, 1, 2, 3], &TopoConfig::greedy());
    assert_eq!(unbiased, vec![(0, 1)]);
    let biased = plan_round(
        &s,
        &[0, 1, 2, 3],
        &TopoConfig {
            order: MergeOrder::GreedyNearest,
            delay_weight: 1e13, // 10 um per 1e-12 s
        },
    );
    assert_eq!(biased, vec![(2, 3)]);
}

#[test]
fn grid_and_bruteforce_agree_on_larger_sets() {
    // 40 points: exercises the grid path (> 32) against brute force.
    let mut coords = Vec::new();
    let mut s: u64 = 7;
    for _ in 0..40 {
        s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        coords.push((((s >> 20) % 1000) as f64, ((s >> 40) % 1000) as f64));
    }
    let space = Pts::new(&coords);
    let active: Vec<usize> = (0..coords.len()).collect();
    let greedy = plan_round(&space, &active, &TopoConfig::greedy());
    let bf = nearest_bruteforce(&active, |i, j| space.pts[i].dist(space.pts[j]));
    let best_bf = bf
        .iter()
        .min_by(|x, y| x.2.partial_cmp(&y.2).unwrap())
        .unwrap();
    assert_eq!(greedy[0], (best_bf.0, best_bf.1));
}

#[test]
fn multi_merge_fraction_bounds_pair_count() {
    let coords: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 3.0, 0.0)).collect();
    let s = Pts::new(&coords);
    let active: Vec<usize> = (0..100).collect();
    let cfg = TopoConfig {
        order: MergeOrder::MultiMerge { fraction: 0.25 },
        delay_weight: 0.0,
    };
    let plan = plan_round(&s, &active, &cfg);
    assert!(!plan.is_empty());
    assert!(plan.len() <= 25);
}
