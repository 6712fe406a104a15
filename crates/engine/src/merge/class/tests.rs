//! `ClassState` tests: fusing, bitwise snapshot equality, and an oracle
//! for `effective_entries_into` (its per-class hulls must equal an
//! independent stable-sort-and-fold reference bit for bit).

use super::*;
use crate::DelayRange;

/// One class entry: `(class, adj_lo, adj_hi, min member bound)`.
type ClassEntry = (u32, f64, f64, f64);

/// Groups per class table: enough for spilled (5–10 group) maps.
const K: usize = 10;

/// A 64-bit LCG, so one seed drives a whole case.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value in `[-1e-11, 1e-11)`, with a one-in-four chance of a signed
    /// zero and a one-in-eight chance of an infinity when `wild`.
    fn value(&mut self, wild: bool) -> f64 {
        match self.below(8) {
            0 | 2 if wild => [0.0, -0.0][self.below(2)],
            1 if wild => [f64::INFINITY, f64::NEG_INFINITY][self.below(2)],
            _ => (self.next() as f64 / (u64::MAX >> 16) as f64 - 0.5) * 2e-11,
        }
    }
}

/// A class table over `K` groups (every chain ends at a root): unfused,
/// partly fused (random links to lower groups), or fully fused into
/// group 0 through a chain.
fn class_table(rng: &mut Lcg, kind: usize) -> Vec<u32> {
    (0..K as u32)
        .map(|g| match kind {
            0 => g,
            1 if g > 0 && rng.below(2) == 0 => rng.below(g as usize) as u32,
            1 => g,
            _ => g.saturating_sub(1),
        })
        .collect()
}

/// A random map over `k` distinct groups of `0..K`.
fn map(rng: &mut Lcg, k: usize) -> DelayMap {
    let mut ids: Vec<u32> = (0..K as u32).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i + 1));
    }
    DelayMap::from_entries(
        ids[..k]
            .iter()
            .map(|&g| {
                let lo = rng.value(true);
                let hi = if rng.below(4) == 0 { lo } else { lo + 1e-12 };
                (GroupId(g), DelayRange { lo, hi })
            })
            .collect(),
    )
}

/// Every group's class entry, in group order.
fn per_group(state: &ClassState, m: &DelayMap) -> Vec<ClassEntry> {
    m.iter()
        .map(|(g, r)| {
            let i = g.index();
            let off = state.phi[i];
            (state.class_of(g), r.lo - off, r.hi - off, state.bounds[i])
        })
        .collect()
}

/// The reference: a stable sort by class, then a fold of each class's
/// entries in group order, written out independently of the engine's
/// helpers.
fn reference(mut entries: Vec<ClassEntry>) -> Vec<ClassEntry> {
    entries.sort_by_key(|e| e.0);
    let mut out: Vec<ClassEntry> = Vec::new();
    for e in entries {
        match out.last_mut() {
            Some(h) if h.0 == e.0 => *h = (h.0, h.1.min(e.1), h.2.max(e.2), h.3.min(e.3)),
            _ => out.push(e),
        }
    }
    out
}

fn bits(entries: &[ClassEntry]) -> Vec<(u32, u64, u64, u64)> {
    entries
        .iter()
        .map(|&(c, lo, hi, b)| (c, lo.to_bits(), hi.to_bits(), b.to_bits()))
        .collect()
}

#[test]
fn class_hulls_match_a_stable_fold_bit_for_bit() {
    let mut out = Vec::new();
    let mut single_class_maps = 0;
    for seed in 0..400u64 {
        let mut rng = Lcg(seed);
        let kind = seed as usize % 3;
        let state = ClassState {
            class_parent: class_table(&mut rng, kind),
            phi: (0..K).map(|_| rng.value(true)).collect(),
            bounds: (0..K).map(|_| rng.value(false).abs()).collect(),
        };
        for k in 0..=K {
            let m = map(&mut rng, k);
            state.effective_entries_into(&m, &mut out);
            let want = reference(per_group(&state, &m));
            assert_eq!(bits(&out), bits(&want), "seed {seed}, {k} groups: {m:?}");
            let classes: Vec<u32> = m.groups().map(|g| state.class_of(g)).collect();
            if k > 1 && classes.iter().all(|&c| c == classes[0]) {
                single_class_maps += 1;
            }
            if kind == 2 {
                assert!(out.len() <= 1, "a fully fused table has one class");
            }
            if kind == 0 {
                assert_eq!(out.len(), k, "unfused, every group is its own class");
            }
        }
    }
    assert!(
        single_class_maps > 1000,
        "{single_class_maps} single-class maps"
    );
}

#[test]
fn fusing_a_chain_shifts_every_absorbed_member_and_leaves_one_class() {
    let mut state = ClassState::new(vec![1e-11; 4]);
    // Group 2 into 1, then class 1 (now {1, 2}) into 0; group 3 stays out.
    state.fuse(1, 2, 3e-12);
    assert_eq!(state.class_of(GroupId(2)), 1);
    state.fuse(0, 1, -5e-12);
    for g in 0..3 {
        assert_eq!(state.class_of(GroupId(g)), 0, "group {g}");
    }
    assert_eq!(state.class_of(GroupId(3)), 3);
    // Each absorbed member moved by the delta of every fusion it was
    // absorbed in, in order; the kept root never moves.
    let offsets: Vec<u64> = state.phi.iter().map(|x| x.to_bits()).collect();
    let want = [0.0, -5e-12, 3e-12 + -5e-12, 0.0].map(f64::to_bits);
    assert_eq!(offsets, want);
    // One class, so a map over all three fused groups hulls into one entry
    // under their smallest bound.
    let m = DelayMap::from_entries(
        (0..3)
            .map(|g| {
                (
                    GroupId(g),
                    DelayRange {
                        lo: 1e-12,
                        hi: 2e-12,
                    },
                )
            })
            .collect(),
    );
    let mut out = Vec::new();
    state.effective_entries_into(&m, &mut out);
    assert_eq!(out.len(), 1);
    assert!(state.is_finite());
}

#[test]
fn a_nan_offset_is_same_bits_as_its_own_clone() {
    let mut state = ClassState::new(vec![1e-11, 1e-11]);
    let before = state.clone();
    state.fuse(0, 1, f64::NAN);
    assert!(state.phi[1].is_nan());
    assert!(!state.is_finite());
    // Float `==` would call NaN unequal to itself and refuse every
    // adoption under this state.
    assert!(state.same_bits(&state.clone()));
    assert!(state == state.clone());
    assert!(!state.same_bits(&before));
    // Signed zeros differ bitwise.
    let mut neg = before.clone();
    neg.phi[0] = -0.0;
    assert!(!neg.same_bits(&before));
}
