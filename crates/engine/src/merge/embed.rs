//! Top-down embedding: turning a finished merge forest root into a routed
//! tree by walking candidate provenance.

use astdme_geom::Point;

use crate::{CandKind, MergeForest, RoutedNode, RoutedTree};

use super::NodeId;

impl MergeForest {
    /// Top-down embedding: turns the finished subtree `root` into a routed
    /// tree connected to `source`.
    ///
    /// Picks the root candidate minimizing total wirelength including the
    /// source connection, then walks the provenance, placing each child at
    /// the nearest point of its recorded region (snaking detours make up
    /// any electrical/geometric difference).
    ///
    /// # Panics
    ///
    /// Panics if `root` is stale.
    pub fn embed(&self, root: NodeId, source: Point) -> RoutedTree {
        // Choose the root candidate. total_cmp: a poisoned (NaN) cost must
        // lose deterministically to every finite one, not panic here.
        let (best_idx, _) = self
            .list(root)
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.wirelen + c.region.distance_to_point(source)))
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("nodes always keep at least one candidate");

        let mut nodes: Vec<RoutedNode> = Vec::new();
        // Stack of (forest node, candidate index, parent routed index,
        // electrical wire to parent, parent point).
        let root_cand = &self.list(root)[best_idx];
        let root_pos = root_cand.region.nearest_point(source);
        let mut stack = vec![(
            root,
            best_idx,
            None::<usize>,
            source.dist(root_pos),
            root_pos,
        )];
        while let Some((nid, cidx, parent, wire, pos)) = stack.pop() {
            let me = nodes.len();
            let cand = &self.list(nid)[cidx];
            nodes.push(RoutedNode {
                pos,
                parent,
                wire,
                sink: self.nodes[nid.0].sink(),
            });
            if let Some((a, b)) = self.nodes[nid.0].children() {
                let CandKind {
                    cand_a,
                    cand_b,
                    ea,
                    eb,
                } = cand.kind;
                let (cand_a, cand_b) = (cand_a as usize, cand_b as usize);
                let pa = self.list(a)[cand_a].region.nearest_point(pos);
                let pb = self.list(b)[cand_b].region.nearest_point(pos);
                debug_assert!(
                    pos.dist(pa) <= ea + 1e-6 * (1.0 + ea),
                    "child a unreachable: {} > {}",
                    pos.dist(pa),
                    ea
                );
                debug_assert!(
                    pos.dist(pb) <= eb + 1e-6 * (1.0 + eb),
                    "child b unreachable: {} > {}",
                    pos.dist(pb),
                    eb
                );
                stack.push((a, cand_a, Some(me), ea, pa));
                stack.push((b, cand_b, Some(me), eb, pb));
            }
        }
        RoutedTree::new(source, nodes)
    }
}
