use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use super::*;

fn g(i: u32) -> GroupId {
    GroupId(i)
}

fn is_inline(m: &DelayMap) -> bool {
    matches!(m.entries, Store::Inline { .. })
}

#[test]
fn leaf_is_zero_point() {
    let m = DelayMap::leaf(g(3));
    assert_eq!(m.group_count(), 1);
    let r = m.range(g(3)).unwrap();
    assert_eq!((r.lo, r.hi), (0.0, 0.0));
    assert!(m.range(g(0)).is_none());
}

#[test]
fn shift_moves_all_ranges() {
    let m = DelayMap::from_entries(vec![
        (g(0), DelayRange { lo: 1.0, hi: 2.0 }),
        (g(1), DelayRange::point(5.0)),
    ])
    .shifted(10.0);
    assert_eq!(m.range(g(0)).unwrap().lo, 11.0);
    assert_eq!(m.range(g(1)).unwrap().hi, 15.0);
    // Spread is invariant under shift.
    assert_eq!(m.range(g(0)).unwrap().spread(), 1.0);
}

#[test]
fn shared_groups_intersection() {
    let a = DelayMap::from_entries(vec![
        (g(0), DelayRange::point(0.0)),
        (g(2), DelayRange::point(0.0)),
        (g(5), DelayRange::point(0.0)),
    ]);
    let b = DelayMap::from_entries(vec![
        (g(2), DelayRange::point(0.0)),
        (g(3), DelayRange::point(0.0)),
        (g(5), DelayRange::point(0.0)),
    ]);
    assert_eq!(a.shared_groups(&b), vec![g(2), g(5)]);
    assert_eq!(
        DelayMap::leaf(g(0)).shared_groups(&DelayMap::leaf(g(1))),
        vec![]
    );
}

#[test]
fn merge_hulls_shared_ranges() {
    let a = DelayMap::from_entries(vec![(g(0), DelayRange { lo: 1.0, hi: 2.0 })]);
    let b = DelayMap::from_entries(vec![
        (g(0), DelayRange { lo: 0.5, hi: 1.5 }),
        (g(1), DelayRange::point(7.0)),
    ]);
    let m = a.merge(&b);
    assert_eq!(m.group_count(), 2);
    let r0 = m.range(g(0)).unwrap();
    assert_eq!((r0.lo, r0.hi), (0.5, 2.0));
    assert_eq!(m.range(g(1)).unwrap().lo, 7.0);
}

#[test]
fn merge_is_commutative() {
    let a = DelayMap::from_entries(vec![
        (g(0), DelayRange { lo: 0.0, hi: 1.0 }),
        (g(2), DelayRange::point(3.0)),
    ]);
    let b = DelayMap::from_entries(vec![
        (g(1), DelayRange::point(4.0)),
        (g(2), DelayRange { lo: 2.0, hi: 5.0 }),
    ]);
    assert_eq!(a.merge(&b), b.merge(&a));
}

#[test]
fn max_spread_and_overall_range() {
    let m = DelayMap::from_entries(vec![
        (g(0), DelayRange { lo: 1.0, hi: 4.0 }),
        (g(1), DelayRange { lo: 0.0, hi: 2.0 }),
    ]);
    assert_eq!(m.max_spread(), 3.0);
    let o = m.overall_range().unwrap();
    assert_eq!((o.lo, o.hi), (0.0, 4.0));
    assert!(DelayMap::default().overall_range().is_none());
}

#[test]
fn maps_larger_than_inline_capacity_spill_transparently() {
    // 6 groups: exceeds INLINE_GROUPS both via from_entries and via
    // merge-driven growth; behavior must be identical to the inline
    // case.
    let big = DelayMap::from_entries(
        (0..6)
            .map(|i| (g(i), DelayRange::point(i as f64)))
            .collect(),
    );
    assert_eq!(big.group_count(), 6);
    for i in 0..6 {
        assert_eq!(big.range(g(i)).unwrap().lo, i as f64);
    }
    // Merge two disjoint maps of 3 and 4 groups: the union outgrows the
    // inline capacity.
    let lo = DelayMap::from_entries((0..3).map(|i| (g(i), DelayRange::point(0.0))).collect());
    let hi = DelayMap::from_entries((3..7).map(|i| (g(i), DelayRange::point(1.0))).collect());
    let m = lo.merge(&hi);
    assert_eq!(m.group_count(), 7);
    assert_eq!(m.shifted(2.0).range(g(6)).unwrap().hi, 3.0);
    assert_eq!(m, hi.merge(&lo));
}

#[test]
#[should_panic(expected = "duplicate group")]
fn duplicate_groups_rejected() {
    let _ = DelayMap::from_entries(vec![
        (g(0), DelayRange::point(0.0)),
        (g(0), DelayRange::point(1.0)),
    ]);
}

#[test]
fn wide_group_ids_spill_at_any_size() {
    let wide = DelayMap::leaf(g(256));
    assert!(!is_inline(&wide));
    assert!(is_inline(&DelayMap::leaf(g(255))));
    let m = DelayMap::leaf(g(3)).merge(&wide.shifted(1.0));
    assert!(!is_inline(&m));
    assert_eq!(m.groups().collect::<Vec<_>>(), vec![g(3), g(256)]);
    assert_eq!(m.range(g(256)), Some(DelayRange::point(1.0)));
    assert_eq!(m.range(g(0)), None);
    assert_eq!(m, DelayMap::from_entries(m.iter().collect()));
}

/// The naive model a [`DelayMap`] must agree with: entries sorted by
/// group.
type Model = Vec<Entry>;

/// A 64-bit LCG, so one generated seed drives a whole case.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (u64::MAX >> 16) as f64
    }
}

/// `k` distinct groups with ids in `0..span`, each drawn from `reuse`
/// half the time (so two models share groups), with random ranges, some
/// of them points.
fn model(rng: &mut Lcg, k: usize, reuse: &[GroupId], span: u64) -> Model {
    let mut m: Model = Vec::new();
    while m.len() < k {
        let id = if !reuse.is_empty() && rng.next().is_multiple_of(2) {
            reuse[rng.next() as usize % reuse.len()]
        } else {
            g((rng.next() % span) as u32)
        };
        if m.iter().any(|&(h, _)| h == id) {
            continue;
        }
        let lo = rng.unit() * 1e-10;
        let hi = if rng.next().is_multiple_of(4) {
            lo
        } else {
            lo + rng.unit() * 1e-11
        };
        m.push((id, DelayRange { lo, hi }));
    }
    m.sort_by_key(|&(id, _)| id);
    m
}

fn model_merge(a: &Model, b: &Model) -> Model {
    let mut out: Model = a.clone();
    for &(id, r) in b {
        match out.iter_mut().find(|(h, _)| *h == id) {
            Some((_, q)) => *q = q.hull(&r),
            None => out.push((id, r)),
        }
    }
    out.sort_by_key(|&(id, _)| id);
    out
}

/// The model's map built by a path other than `from_entries`: each group
/// as the hull of two shifted leaves, merged in descending group order.
fn built_from_leaves(m: &Model) -> DelayMap {
    m.iter().rev().fold(DelayMap::default(), |acc, &(id, r)| {
        let leaf = DelayMap::leaf(id);
        acc.merge(&leaf.shifted(r.lo).merge(&leaf.shifted(r.hi)))
    })
}

/// Every observation of `map` agrees with the model `m`.
fn agrees(map: &DelayMap, m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.iter().collect::<Model>(), m.clone());
    prop_assert_eq!(
        map.groups().collect::<Vec<_>>(),
        m.iter().map(|&(id, _)| id).collect::<Vec<_>>()
    );
    prop_assert_eq!(map.group_count(), m.len());
    for id in 0..300 {
        let want = m.iter().find(|&&(h, _)| h == g(id)).map(|&(_, r)| r);
        prop_assert_eq!(map.range(g(id)), want);
    }
    let spread = m.iter().map(|(_, r)| r.spread()).fold(0.0, f64::max);
    prop_assert_eq!(map.max_spread(), spread);
    let overall = (!m.is_empty()).then(|| DelayRange {
        lo: m.iter().map(|(_, r)| r.lo).fold(f64::INFINITY, f64::min),
        hi: m
            .iter()
            .map(|(_, r)| r.hi)
            .fold(f64::NEG_INFINITY, f64::max),
    });
    prop_assert_eq!(map.overall_range(), overall);
    let fits = m.len() <= INLINE_GROUPS && m.iter().all(|&(id, _)| id.0 < 256);
    prop_assert_eq!(is_inline(map), fits, "canonical form of {:?}", m);
    Ok(())
}

proptest! {
    #[test]
    fn delay_maps_agree_with_a_sorted_vec_model(
        ka in 0usize..11,
        kb in 0usize..11,
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        let ma = model(&mut rng, ka, &[], 300);
        let reuse: Vec<GroupId> = ma.iter().map(|&(id, _)| id).collect();
        let mb = model(&mut rng, kb, &reuse, 300);
        let mut shuffled = ma.clone();
        shuffled.reverse();
        let a = DelayMap::from_entries(shuffled);
        let b = DelayMap::from_entries(mb.clone());
        agrees(&a, &ma)?;
        agrees(&b, &mb)?;

        // Built another way, the map is equal and prints identically.
        let a2 = built_from_leaves(&ma);
        agrees(&a2, &ma)?;
        prop_assert_eq!(&a2, &a);
        prop_assert_eq!(format!("{a2:?}"), format!("{a:?}"));
        prop_assert_eq!(format!("{a2}"), format!("{a}"));
        prop_assert_eq!(format!("{a:?}"), format!("DelayMap {{ entries: {ma:?} }}"));
        let shown: Vec<String> = ma.iter().map(|(id, r)| format!("{id}: {r}")).collect();
        prop_assert_eq!(format!("{a}"), format!("{{{}}}", shown.join(", ")));
        prop_assert_eq!(a == b, ma == mb);

        let d = rng.unit() * 1e-11;
        let shifted: Model = ma.iter().map(|&(id, r)| (id, r.shift(d))).collect();
        agrees(&a.shifted(d), &shifted)?;

        let merged = model_merge(&ma, &mb);
        agrees(&a.merge(&b), &merged)?;
        agrees(&b.merge(&a), &merged)?;
        agrees(&a.merge(&DelayMap::default()), &ma)?;

        let shared: Vec<(GroupId, DelayRange, DelayRange)> = ma
            .iter()
            .filter_map(|&(id, ra)| {
                mb.iter().find(|&&(h, _)| h == id).map(|&(_, rb)| (id, ra, rb))
            })
            .collect();
        prop_assert_eq!(a.shared_ranges(&b).collect::<Vec<_>>(), shared.clone());
        prop_assert_eq!(
            a.shared_groups(&b),
            shared.iter().map(|&(id, ..)| id).collect::<Vec<_>>()
        );
    }
}

/// A map's stored form, bit for bit: whether it is inline, and every
/// entry's id and range bits.
fn stored_bits(m: &DelayMap) -> (bool, Vec<(u32, u64, u64)>) {
    let entries = m.iter().map(|(g, r)| (g.0, r.lo.to_bits(), r.hi.to_bits()));
    (is_inline(m), entries.collect())
}

/// A model whose ranges are sometimes signed-zero points.
fn zeroed(rng: &mut Lcg, mut m: Model) -> Model {
    for (_, r) in &mut m {
        match rng.next() % 6 {
            0 => *r = DelayRange::point(0.0),
            1 => *r = DelayRange::point(-0.0),
            _ => {}
        }
    }
    m
}

proptest! {
    #[test]
    fn shifted_merge_is_shift_then_merge_bit_for_bit(
        ka in 0usize..11,
        kb in 0usize..11,
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Narrow ids keep maps of up to four groups inline; wide ones
        // (up to 299) spill at any size.
        let span = if wide { 300 } else { 12 };
        let mut rng = Lcg(seed);
        let ma = model(&mut rng, ka.min(span as usize), &[], span);
        let ma = zeroed(&mut rng, ma);
        let reuse: Vec<GroupId> = ma.iter().map(|&(id, _)| id).collect();
        let mb = model(&mut rng, kb.min(span as usize), &reuse, span);
        let mb = zeroed(&mut rng, mb);
        let (a, b) = (DelayMap::from_entries(ma), DelayMap::from_entries(mb));
        let shifts = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            rng.unit() * 1e-11,
        ];
        for da in shifts {
            for db in shifts {
                let fused = a.shifted_merge(da, &b, db);
                let want = a.shifted(da).merge(&b.shifted(db));
                prop_assert_eq!(
                    stored_bits(&fused),
                    stored_bits(&want),
                    "shifts {:?}/{:?} of {:?} and {:?}", da, db, a, b
                );
                if let Store::Heap(v) = &fused.entries {
                    prop_assert_eq!(v.capacity(), v.len(), "one exact-size list");
                }
            }
        }
    }
}
