//! Independent verification of a routed tree.
//!
//! The audit re-derives every electrical quantity *from the routed tree
//! alone* — downstream capacitances bottom-up, then source-to-sink Elmore
//! delays top-down — and reports wirelength and skews. It shares no state
//! with the merge engine's bookkeeping, so agreement between the two is a
//! strong end-to-end correctness check (used heavily by the test suite),
//! and it doubles as the measurement harness for the experiment tables.

use astdme_delay::DelayModel;

use crate::{GroupId, Instance, RoutedTree};

/// Measured electrical properties of a routed clock tree.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    wirelength: f64,
    snaking: f64,
    sink_delays: Vec<(usize, f64)>,
    group_spreads: Vec<f64>,
    global_skew: f64,
}

impl AuditReport {
    /// Total routed wirelength including the source connection.
    #[inline]
    pub fn wirelength(&self) -> f64 {
        self.wirelength
    }

    /// Total snaking detour length.
    #[inline]
    pub fn snaking(&self) -> f64 {
        self.snaking
    }

    /// `(sink index, source-to-sink delay)` for every sink, ascending by
    /// sink index.
    #[inline]
    pub fn sink_delays(&self) -> &[(usize, f64)] {
        &self.sink_delays
    }

    /// Delay spread (max − min) within each group, indexed by group.
    #[inline]
    pub fn group_spreads(&self) -> &[f64] {
        &self.group_spreads
    }

    /// The worst intra-group skew across all groups — the constraint the
    /// AST problem must satisfy.
    pub fn max_intra_group_skew(&self) -> f64 {
        self.group_spreads.iter().copied().fold(0.0, f64::max)
    }

    /// Global skew: max − min delay over *all* sinks regardless of group
    /// (the "Maximum Skew" column of the paper's tables; for AST routing
    /// this includes the unconstrained inter-group offsets).
    #[inline]
    pub fn global_skew(&self) -> f64 {
        self.global_skew
    }

    /// Delay of a specific sink.
    pub fn sink_delay(&self, sink: usize) -> Option<f64> {
        self.sink_delays
            .binary_search_by_key(&sink, |(s, _)| *s)
            .ok()
            .map(|i| self.sink_delays[i].1)
    }
}

/// Audits `tree` against `inst` under `model`.
///
/// # Panics
///
/// Panics if the tree's sink indices do not cover the instance's sinks
/// exactly once (which would indicate a routing bug, not bad input).
pub fn audit(tree: &RoutedTree, inst: &Instance, model: &DelayModel) -> AuditReport {
    let nodes = tree.nodes();
    let n = nodes.len();

    // Bottom-up: subtree capacitance at each node (sink load + child wire
    // and subtree caps). Every parent precedes its children (see
    // `RoutedTree::new`), so in reverse index order a node is final once
    // reached and adds itself into its parent. A routed node has at most
    // two children, and IEEE addition is commutative, so the sum is the
    // one a children-in-order post-order walk makes, bit for bit.
    let mut cap = vec![0.0f64; n];
    let mut seen = vec![false; inst.sink_count()];
    for (i, node) in nodes.iter().enumerate().rev() {
        if let Some(s) = node.sink {
            assert!(!seen[s], "sink {s} appears twice in the routed tree");
            seen[s] = true;
            cap[i] += inst.sinks()[s].cap;
        }
        if let Some(p) = node.parent {
            cap[p] += cap[i] + model.wire_cap(node.wire);
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "routed tree does not reach every sink"
    );

    // Top-down, in index order: Elmore delay from the source. The source
    // connection wire drives the root's entire subtree. Every sink
    // appears exactly once (asserted above), so each slot is written
    // once, already in sink order.
    let mut delay = vec![0.0f64; n];
    let mut sink_delays: Vec<(usize, f64)> = vec![(0, 0.0); inst.sink_count()];
    for (i, node) in nodes.iter().enumerate() {
        let upstream = node.parent.map_or(0.0, |p| delay[p]);
        delay[i] = upstream + model.wire_delay(node.wire, cap[i]);
        if let Some(s) = node.sink {
            sink_delays[s] = (s, delay[i]);
        }
    }

    let k = inst.groups().group_count();
    let mut lo = vec![f64::INFINITY; k];
    let mut hi = vec![f64::NEG_INFINITY; k];
    for &(s, d) in &sink_delays {
        let g = inst.group_of(s).index();
        lo[g] = lo[g].min(d);
        hi[g] = hi[g].max(d);
    }
    let group_spreads: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| h - l).collect();
    let all_lo = sink_delays
        .iter()
        .map(|&(_, d)| d)
        .fold(f64::INFINITY, f64::min);
    let all_hi = sink_delays
        .iter()
        .map(|&(_, d)| d)
        .fold(f64::NEG_INFINITY, f64::max);

    AuditReport {
        wirelength: tree.total_wirelength(),
        snaking: tree.total_snaking(),
        sink_delays,
        group_spreads,
        global_skew: all_hi - all_lo,
    }
}

/// Per-group delay extremes `(group, min delay, max delay)` — the
/// inter-group offsets `S_{i,j}` of the paper's Ch. II fall out as
/// differences between entries.
pub fn group_ranges(report: &AuditReport, inst: &Instance) -> Vec<(GroupId, f64, f64)> {
    let k = inst.groups().group_count();
    let mut lo = vec![f64::INFINITY; k];
    let mut hi = vec![f64::NEG_INFINITY; k];
    for &(s, d) in report.sink_delays() {
        let g = inst.group_of(s).index();
        lo[g] = lo[g].min(d);
        hi[g] = hi[g].max(d);
    }
    (0..k).map(|g| (GroupId(g as u32), lo[g], hi[g])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Groups, RoutedNode, Sink};
    use astdme_delay::RcParams;
    use astdme_geom::Point;
    use proptest::prelude::*;

    /// The audit as it was before its two linear passes: a CSR child index
    /// and an explicit post-order walk, children in ascending order. The
    /// oracle the linear passes must match bit for bit.
    fn csr_audit(tree: &RoutedTree, inst: &Instance, model: &DelayModel) -> Vec<(usize, f64)> {
        let n = tree.nodes().len();
        let children = tree.children();
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![(0usize, false)];
        while let Some((i, expanded)) = stack.pop() {
            if expanded {
                order.push(i);
            } else {
                stack.push((i, true));
                for &c in &children[i] {
                    stack.push((c, false));
                }
            }
        }
        let mut cap = vec![0.0f64; n];
        for &i in &order {
            let node = &tree.nodes()[i];
            if let Some(s) = node.sink {
                cap[i] += inst.sinks()[s].cap;
            }
            for &c in &children[i] {
                cap[i] += cap[c] + model.wire_cap(tree.nodes()[c].wire);
            }
        }
        let mut delay = vec![0.0f64; n];
        for &i in order.iter().rev() {
            let node = &tree.nodes()[i];
            let upstream = match node.parent {
                Some(p) => delay[p],
                None => 0.0,
            };
            delay[i] = upstream + model.wire_delay(node.wire, cap[i]);
        }
        let mut sink_delays = vec![(0, 0.0); inst.sink_count()];
        for (node, sink) in tree.sink_nodes() {
            sink_delays[sink] = (sink, delay[node]);
        }
        sink_delays
    }

    /// A random routed tree and its instance, drawn from `seed`: starting
    /// from a lone root, each of `splits` splits gives a random current
    /// leaf two children with random wire lengths, so every parent
    /// precedes its children but the order is not the embed's pre-order.
    /// Leaves become the sinks, numbered in a random order, with random
    /// loads.
    fn random_tree(splits: usize, seed: u64) -> (RoutedTree, Instance) {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 16) as f64 / (u64::MAX >> 16) as f64
        };
        let node = |parent, wire: f64| RoutedNode {
            pos: Point::new(wire, 0.5 * wire),
            parent,
            wire,
            sink: None,
        };
        let mut nodes = vec![node(None, 37.0)];
        let mut leaves = vec![0usize];
        for _ in 0..splits {
            let at = (next() * leaves.len() as f64) as usize % leaves.len();
            let p = leaves.swap_remove(at);
            for _ in 0..2 {
                leaves.push(nodes.len());
                nodes.push(node(Some(p), next() * 900.0));
            }
        }
        let m = leaves.len();
        // Number the leaves in a random order (Fisher–Yates).
        let mut sinks: Vec<usize> = (0..m).collect();
        for i in 0..m {
            let j = i + (next() * (m - i) as f64) as usize % (m - i);
            sinks.swap(i, j);
        }
        for (&leaf, &s) in leaves.iter().zip(&sinks) {
            nodes[leaf].sink = Some(s);
        }
        let inst = Instance::new(
            (0..m)
                .map(|s| Sink::new(Point::new(s as f64, 0.0), 1e-16 + next() * 5e-14))
                .collect(),
            Groups::from_assignments((0..m).map(|s| s % 3).collect(), m.min(3)).unwrap(),
            RcParams::default(),
            Point::new(0.0, 0.0),
        )
        .unwrap();
        (RoutedTree::new(Point::new(0.0, 0.0), nodes), inst)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn linear_passes_match_the_csr_audit_bit_for_bit(
            splits in 0usize..120,
            seed in any::<u64>(),
        ) {
            let (tree, inst) = random_tree(splits, seed);
            for model in [DelayModel::elmore(*inst.rc()), DelayModel::pathlength()] {
                let want = csr_audit(&tree, &inst, &model);
                let got = audit(&tree, &inst, &model);
                prop_assert_eq!(got.sink_delays().len(), want.len());
                for (&(s, d), &(ws, wd)) in got.sink_delays().iter().zip(&want) {
                    prop_assert_eq!(s, ws);
                    prop_assert_eq!(d.to_bits(), wd.to_bits());
                }
            }
        }
    }

    /// Hand-built 2-sink tree with a known Elmore solution.
    fn fixture() -> (RoutedTree, Instance) {
        // source at (0,0) -> root at (100,0) -> sinks at (200,0) and
        // (100,100), each 100 um from the root.
        let tree = RoutedTree::new(
            Point::new(0.0, 0.0),
            vec![
                RoutedNode {
                    pos: Point::new(100.0, 0.0),
                    parent: None,
                    wire: 100.0,
                    sink: None,
                },
                RoutedNode {
                    pos: Point::new(200.0, 0.0),
                    parent: Some(0),
                    wire: 100.0,
                    sink: Some(0),
                },
                RoutedNode {
                    pos: Point::new(100.0, 100.0),
                    parent: Some(0),
                    wire: 100.0,
                    sink: Some(1),
                },
            ],
        );
        let inst = Instance::new(
            vec![
                Sink::new(Point::new(200.0, 0.0), 1e-14),
                Sink::new(Point::new(100.0, 100.0), 1e-14),
            ],
            Groups::single(2).unwrap(),
            RcParams::default(),
            Point::new(0.0, 0.0),
        )
        .unwrap();
        (tree, inst)
    }

    #[test]
    fn audit_matches_hand_computed_elmore() {
        let (tree, inst) = fixture();
        let model = DelayModel::elmore(*inst.rc());
        let report = audit(&tree, &inst, &model);

        let (r, c) = (0.003, 2e-17);
        // Leaf edges: each 100 um driving one sink cap.
        let d_leaf = r * 100.0 * (c * 100.0 / 2.0 + 1e-14);
        // Subtree cap at root: 2 sinks + 2 x 100 um of wire.
        let cap_root = 2e-14 + 2.0 * c * 100.0;
        let d_root = r * 100.0 * (c * 100.0 / 2.0 + cap_root);
        let expected = d_root + d_leaf;
        for &(_, d) in report.sink_delays() {
            assert!((d - expected).abs() < 1e-22, "{d} vs {expected}");
        }
        assert!(report.max_intra_group_skew() < 1e-22);
        assert_eq!(report.wirelength(), 300.0);
        assert_eq!(report.snaking(), 0.0);
    }

    #[test]
    fn audit_detects_imbalance() {
        let (mut tree, inst) = fixture();
        // Lengthen one leaf edge: delays diverge.
        let mut nodes = tree.nodes().to_vec();
        nodes[1].wire = 150.0;
        tree = RoutedTree::new(tree.source(), nodes);
        let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
        assert!(report.max_intra_group_skew() > 1e-15);
        assert_eq!(report.global_skew(), report.max_intra_group_skew());
        // The extra 50 um is counted as snaking (positions unchanged).
        assert_eq!(report.snaking(), 50.0);
    }

    #[test]
    fn audit_separates_groups() {
        let (tree, inst) = fixture();
        let inst2 = inst
            .with_groups(Groups::from_assignments(vec![0, 1], 2).unwrap())
            .unwrap();
        let report = audit(&tree, &inst2, &DelayModel::elmore(*inst2.rc()));
        // Balanced tree: zero everywhere, but now two per-group spreads.
        assert_eq!(report.group_spreads().len(), 2);
        assert!(report.max_intra_group_skew() < 1e-22);
        let ranges = group_ranges(&report, &inst2);
        assert_eq!(ranges.len(), 2);
    }

    #[test]
    fn sink_delay_lookup() {
        let (tree, inst) = fixture();
        let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
        assert!(report.sink_delay(0).is_some());
        assert!(report.sink_delay(5).is_none());
    }

    #[test]
    #[should_panic(expected = "does not reach every sink")]
    fn audit_rejects_missing_sinks() {
        let (tree, inst) = fixture();
        let bigger = Instance::new(
            vec![
                Sink::new(Point::new(200.0, 0.0), 1e-14),
                Sink::new(Point::new(100.0, 100.0), 1e-14),
                Sink::new(Point::new(0.0, 500.0), 1e-14),
            ],
            Groups::single(3).unwrap(),
            *inst.rc(),
            inst.source(),
        )
        .unwrap();
        let _ = audit(&tree, &bigger, &DelayModel::elmore(*inst.rc()));
    }
}
