//! Unit tests for [`GridIndex`] build/maintenance and ring-walk queries.

use super::*;
use astdme_geom::{Point, Trr};
use proptest::prelude::*;

fn pts(coords: &[(f64, f64)]) -> Vec<(usize, Trr)> {
    coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (i, Trr::from_point(Point::new(x, y))))
        .collect()
}

fn build(items: &[(usize, Trr)]) -> GridIndex {
    GridIndex::build(items.iter().copied())
}

/// Notes a cap of `f64::INFINITY` on every item's cell, which turns
/// [`GridIndex::neighbors_within_capped`] into a plain range query.
fn uncap(idx: &mut GridIndex, items: &[(usize, Trr)]) {
    for (_, t) in items {
        idx.note_cap(t, f64::INFINITY);
    }
}

#[test]
fn nearest_matches_bruteforce_on_random_points() {
    // Deterministic pseudo-random layout.
    let mut coords = Vec::new();
    let mut s: u64 = 42;
    for _ in 0..200 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = ((s >> 16) % 10_000) as f64 / 10.0;
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let y = ((s >> 16) % 10_000) as f64 / 10.0;
        coords.push((x, y));
    }
    let items = pts(&coords);
    let idx = build(&items);
    for (key, region) in &items {
        let (nn, d) = idx.nearest(*key, region, None).best.unwrap();
        // Brute force.
        let (bf, bd) = items
            .iter()
            .filter(|(k, _)| k != key)
            .map(|(k, t)| (*k, region.distance(t)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(
            (d - bd).abs() < 1e-9,
            "key {key}: grid found {nn}@{d}, brute force {bf}@{bd}"
        );
    }
}

#[test]
fn nearest_none_for_single_item() {
    let items = pts(&[(0.0, 0.0)]);
    let idx = build(&items);
    assert!(idx.nearest(0, &items[0].1, None).best.is_none());
}

#[test]
fn insert_remove_roundtrip() {
    let items = pts(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
    let mut idx = build(&items);
    assert_eq!(idx.len(), 3);
    assert!(idx.remove(1, &items[1].1));
    assert!(!idx.remove(1, &items[1].1));
    assert_eq!(idx.len(), 2);
    let (nn, d) = idx.nearest(0, &items[0].1, None).best.unwrap();
    assert_eq!(nn, 2);
    assert_eq!(d, 20.0);
    idx.insert(1, items[1].1);
    let (nn, _) = idx.nearest(0, &items[0].1, None).best.unwrap();
    assert_eq!(nn, 1);
}

#[test]
fn regions_with_extent_use_region_distance() {
    // A big region whose center is far but whose edge is near.
    let a = (0usize, Trr::from_point(Point::new(0.0, 0.0)));
    let big = (1usize, Trr::from_point(Point::new(100.0, 0.0)).dilate(95.0));
    let far = (2usize, Trr::from_point(Point::new(30.0, 0.0)));
    let items = vec![a, big, far];
    let idx = build(&items);
    let (nn, d) = idx.nearest(0, &items[0].1, None).best.unwrap();
    assert_eq!(nn, 1, "the dilated region is nearer by set distance");
    assert!((d - 5.0).abs() < 1e-9);
}

#[test]
fn uncapped_range_query_finds_exactly_the_in_range_items() {
    let items = pts(&[
        (0.0, 0.0),
        (10.0, 0.0),
        (25.0, 0.0),
        (100.0, 0.0),
        (31.0, 0.0),
    ]);
    let mut idx = build(&items);
    uncap(&mut idx, &items);
    let mut found: Vec<(usize, f64)> = Vec::new();
    idx.neighbors_within_capped(0, &items[0].1, 30.0, |k, d| found.push((k, d)));
    found.sort_by_key(|&(k, _)| k);
    assert_eq!(found, vec![(1, 10.0), (2, 25.0)]);
    // A tight bound: nothing else lies within 1.0 of the far item.
    let mut none = 0;
    idx.neighbors_within_capped(3, &items[3].1, 1.0, |_, _| none += 1);
    assert_eq!(none, 0);
}

#[test]
fn clustered_points_found_across_cells() {
    let items = pts(&[
        (0.0, 0.0),
        (1000.0, 1000.0),
        (1000.5, 1000.5),
        (2000.0, 0.0),
    ]);
    let idx = build(&items);
    let (nn, _) = idx.nearest(1, &items[1].1, None).best.unwrap();
    assert_eq!(nn, 2);
    let (nn0, d0) = idx.nearest(0, &items[0].1, None).best.unwrap();
    assert_eq!(nn0, 1);
    assert!((d0 - 2000.0).abs() < 1e-9);
}

#[test]
fn build_keeps_input_order_within_each_cell() {
    // Four coincident items share a cell; their order is the input order,
    // and `iter` walks cells in row-major order.
    let items = pts(&[(5.0, 5.0), (0.0, 0.0), (5.0, 5.0), (5.0, 5.0), (5.0, 5.0)]);
    let idx = build(&items);
    let keys: Vec<usize> = idx.iter().map(|&(k, _)| k).collect();
    assert_eq!(keys, vec![1, 0, 2, 3, 4]);
    assert_eq!(idx.items.len(), items.len(), "a build leaves no free slots");
}

/// The cell the `floor` form of [`GridIndex::cell_of`] picks.
fn floored_cell(idx: &GridIndex, p: Point) -> (i64, i64) {
    let cx = ((p.x - idx.origin.x) / idx.cell_size).floor() as i64;
    let cy = ((p.y - idx.origin.y) / idx.cell_size).floor() as i64;
    (cx.clamp(0, idx.grid_w - 1), cy.clamp(0, idx.grid_h - 1))
}

#[test]
fn truncating_cell_math_equals_the_floor_form() {
    let items = pts(&[(0.0, 0.0), (10.0, 3.0), (25.0, 40.0), (7.5, 12.5)]);
    let idx = build(&items);
    let specials = [
        0.0,
        -0.0,
        -1e-300,
        -0.4,
        -1.0,
        -2.5,
        0.4,
        1.0,
        7.5,
        12.5,
        39.999,
        40.0,
        1e300,
        -1e300,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut rng = Lcg(7);
    let randoms = (0..200).map(|_| rng.next(2000) as f64 / 16.0 - 40.0);
    let coords: Vec<f64> = specials.into_iter().chain(randoms).collect();
    for &x in &coords {
        for &y in &coords {
            let p = Point::new(x, y);
            assert_eq!(idx.cell_of(p), floored_cell(&idx, p), "({x}, {y})");
        }
    }
}

/// A small deterministic generator for the property test's layouts.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, m: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % m
    }

    /// A region on a coarse lattice (so centers often coincide), sometimes
    /// dilated (so regions overlap at distance 0), and with `outside`
    /// sometimes far beyond the lattice (so it clamps into a border cell).
    fn region(&mut self, outside: bool) -> Trr {
        let (mut x, mut y) = (self.next(12) as f64 * 7.5, self.next(12) as f64 * 7.5);
        if outside && self.next(4) == 0 {
            x = if self.next(2) == 0 { -400.0 } else { 900.0 } + self.next(50) as f64;
            y += self.next(3) as f64 * 300.0 - 300.0;
        }
        let t = Trr::from_point(Point::new(x, y));
        match self.next(5) {
            0 => t.dilate(self.next(4) as f64 * 6.0),
            _ => t,
        }
    }
}

/// The brute-force answer of [`GridIndex::nearest`] over `live` (other
/// than `key`) plus `incumbent`: the smallest `(distance, key)`, and
/// whether another candidate lies at its distance.
fn bf_nearest(
    live: &[(usize, Trr)],
    key: usize,
    region: &Trr,
    incumbent: Option<(usize, f64)>,
) -> (Option<(usize, f64)>, bool) {
    let mut all: Vec<(usize, f64)> = live
        .iter()
        .filter(|(k, _)| *k != key && Some(*k) != incumbent.map(|(ik, _)| ik))
        .map(|(k, t)| (*k, region.distance(t)))
        .chain(incumbent)
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let best = all.first().copied();
    let tied = all.len() > 1 && best.is_some_and(|(_, d)| all[1].1 <= d);
    (best, tied)
}

/// Checks every query against brute force over `live`, for each live item
/// and a few absent probes.
fn check(idx: &GridIndex, live: &[(usize, Trr)], rng: &mut Lcg) {
    assert_eq!(idx.len(), live.len());
    for c in &idx.cells {
        assert!(c.start + c.len <= c.end);
    }
    let probes: Vec<(usize, Trr)> = (0..3).map(|_| (usize::MAX, rng.region(true))).collect();
    for &(key, region) in live.iter().chain(&probes) {
        // Incumbents: none, the farthest live item, the largest key tied
        // for nearest, and an absent key exactly as near as the nearest.
        let others = || {
            live.iter()
                .filter(|(k, _)| *k != key)
                .map(|(k, t)| (*k, region.distance(t)))
        };
        let (want, _) = bf_nearest(live, key, &region, None);
        let worst = others().max_by(|a, b| a.1.total_cmp(&b.1));
        let last_tied = others()
            .filter(|&(_, d)| Some(d) == want.map(|(_, wd)| wd))
            .max_by_key(|&(k, _)| k);
        let absent = want.map(|(_, d)| (usize::MAX - 1, d));
        for incumbent in [None, worst, last_tied, absent] {
            let got = idx.nearest(key, &region, incumbent);
            let (best, tied) = bf_nearest(live, key, &region, incumbent);
            assert_eq!(got.best, best, "nearest of {key} from {incumbent:?}");
            assert_eq!(got.tied, tied, "tie flag of {key} from {incumbent:?}");
        }
        // Range query: every reported item is in range; every item
        // within both the bound and its cell's cap is reported.
        let base = want.map_or(10.0, |(_, d)| d);
        for bound in [0.0, base, base + 0.5, base + 40.0] {
            let mut seen: Vec<usize> = Vec::new();
            idx.neighbors_within_capped(key, &region, bound, |k, d| {
                assert!(d <= bound && k != key);
                seen.push(k);
            });
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            assert_eq!(before, seen.len(), "each item reported once");
            for (k, t) in live.iter().filter(|(k, _)| *k != key) {
                let d = region.distance(t);
                // Caps are stored one ulp past the noted value.
                let cap = idx.cells[idx.index_of(t)].cap;
                if d <= bound && d < cap {
                    assert!(seen.contains(k), "item {k}@{d} missed (bound {bound})");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random builds followed by random inserts and removes: every query
    /// agrees with brute force, exact ties and all.
    #[test]
    fn mixed_updates_match_bruteforce(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let n0 = rng.next(40) as usize;
        let mut live: Vec<(usize, Trr)> = (0..n0).map(|k| (k, rng.region(false))).collect();
        let mut idx = GridIndex::build(live.iter().copied());
        let mut next_key = n0;
        for step in 0..60 {
            if step % 5 == 0 {
                // Caps on a random subset of the live items' cells.
                for &(_, t) in &live {
                    if rng.next(3) == 0 {
                        idx.note_cap(&t, rng.next(40) as f64);
                    }
                }
            }
            if live.is_empty() || rng.next(5) < 3 {
                let t = rng.region(true);
                idx.insert(next_key, t);
                live.push((next_key, t));
                next_key += 1;
            } else {
                let (k, t) = live.swap_remove(rng.next(live.len() as u64) as usize);
                prop_assert!(idx.remove(k, &t));
                prop_assert!(!idx.remove(k, &t), "a removed key is gone");
            }
            check(&idx, &live, &mut rng);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The nearest query equals a linear scan in key order that keeps the
    /// first strict minimum, excluding the query item itself, reports a
    /// tie exactly when another item lies at the same distance, and
    /// measures fewer items than the index holds. Integer-coordinate
    /// points and dilated hulls on a small lattice make exact distance
    /// ties common.
    #[test]
    fn nearest_matches_the_first_in_key_order(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let n = 1 + rng.next(60) as usize;
        // Keys scrambled against the input (and hence cell) order.
        let items: Vec<(usize, Trr)> = (0..n)
            .map(|i| {
                let p = Point::new(rng.next(16) as f64, rng.next(16) as f64);
                let t = Trr::from_point(p);
                let t = if rng.next(4) == 0 { t.dilate(rng.next(3) as f64) } else { t };
                (i * 7919 % 1009, t)
            })
            .collect();
        let idx = GridIndex::build(items.iter().copied());
        let mut by_key = items.clone();
        by_key.sort_by_key(|&(k, _)| k);
        for &(key, region) in &items {
            let mut want: Option<(usize, f64)> = None;
            let mut ties = 0;
            for &(k, t) in &by_key {
                let d = region.distance(&t);
                if k != key && want.is_none_or(|(_, bd)| d < bd) {
                    want = Some((k, d));
                    ties = 0;
                } else if k != key && want.is_some_and(|(_, bd)| d <= bd) {
                    ties += 1;
                }
            }
            let got = idx.nearest(key, &region, None);
            prop_assert_eq!(got.best, want, "query {}", key);
            prop_assert_eq!(got.tied, ties > 0, "query {}", key);
            prop_assert!(got.visits < n, "{} visits over {} items", got.visits, n);
        }
    }
}
