//! The final routed clock tree.

use astdme_geom::Point;

/// One node of a routed clock tree: an embedding point plus the electrical
/// wire length to its parent.
///
/// `wire` is the *routed* length (µm), which may exceed the Manhattan
/// distance between `pos` and the parent's position when the edge snakes;
/// the snaking detour is real wire and counts toward wirelength, delay and
/// capacitance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedNode {
    /// Embedding location.
    pub pos: Point,
    /// Index of the parent node, or `None` for the tree root (which
    /// connects straight to the clock source).
    pub parent: Option<usize>,
    /// Electrical wire length to the parent (to the source for the root).
    pub wire: f64,
    /// The sink this node drives, if it is a leaf.
    pub sink: Option<usize>,
}

/// The children adjacency of a [`RoutedTree`] in one compressed layout:
/// `children[i]` is the slice of node `i`'s children, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Children {
    /// `list[offsets[i]..offsets[i + 1]]` are node `i`'s children.
    offsets: Vec<usize>,
    list: Vec<usize>,
}

impl std::ops::Index<usize> for Children {
    type Output = [usize];

    #[inline]
    fn index(&self, i: usize) -> &[usize] {
        &self.list[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// A routed clock tree: the output of top-down embedding.
///
/// Node 0 is always the tree root; every other node's `parent` is an
/// earlier node, so index order visits parents before children and
/// reverse index order children before parents. The clock source is a
/// separate point feeding the root through the root's `wire`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedTree {
    source: Point,
    nodes: Vec<RoutedNode>,
}

impl RoutedTree {
    /// Assembles a tree from nodes produced by embedding.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, node 0 has a parent, or any node's
    /// parent does not precede it (the embed's pre-order, and every
    /// rewrite of an embedded tree's wires, keeps parents first).
    pub fn new(source: Point, nodes: Vec<RoutedNode>) -> Self {
        assert!(!nodes.is_empty(), "a routed tree needs at least one node");
        assert!(nodes[0].parent.is_none(), "node 0 must be the root");
        for (i, n) in nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(p < i, "node {i} has invalid parent {p}");
            } else {
                assert!(i == 0, "only node 0 may lack a parent");
            }
        }
        Self { source, nodes }
    }

    /// The clock source position `s0`.
    #[inline]
    pub fn source(&self) -> Point {
        self.source
    }

    /// All nodes; index 0 is the root.
    #[inline]
    pub fn nodes(&self) -> &[RoutedNode] {
        &self.nodes
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> &RoutedNode {
        &self.nodes[0]
    }

    /// Total routed wirelength, including the source connection and all
    /// snaking detours.
    pub fn total_wirelength(&self) -> f64 {
        self.nodes.iter().map(|n| n.wire).sum()
    }

    /// Iterates `(node index, sink index)` over all sink leaves.
    pub fn sink_nodes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.sink.map(|s| (i, s)))
    }

    /// Children adjacency: `children[i]` lists the node indices whose
    /// parent is `i`, in ascending order.
    pub fn children(&self) -> Children {
        let n = self.nodes.len();
        // Counting sort by parent: count, prefix-sum, then place in
        // ascending child order.
        let mut offsets = vec![0usize; n + 1];
        for p in self.nodes.iter().filter_map(|node| node.parent) {
            offsets[p + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut list = vec![0usize; n.saturating_sub(1)];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                list[next[p]] = i;
                next[p] += 1;
            }
        }
        Children { offsets, list }
    }

    /// Sum of snaking detour lengths: routed wire beyond the Manhattan
    /// distance of each edge (diagnostic for the ablation benches).
    pub fn total_snaking(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| {
                let parent_pos = match n.parent {
                    Some(p) => self.nodes[p].pos,
                    None => self.source,
                };
                (n.wire - n.pos.dist(parent_pos)).max(0.0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_tree() -> RoutedTree {
        RoutedTree::new(
            Point::new(0.0, 0.0),
            vec![
                RoutedNode {
                    pos: Point::new(1.0, 0.0),
                    parent: None,
                    wire: 1.0,
                    sink: None,
                },
                RoutedNode {
                    pos: Point::new(3.0, 0.0),
                    parent: Some(0),
                    wire: 2.0,
                    sink: Some(0),
                },
                RoutedNode {
                    pos: Point::new(1.0, 2.0),
                    parent: Some(0),
                    wire: 5.0, // snaked: Manhattan distance is 2
                    sink: Some(1),
                },
            ],
        )
    }

    #[test]
    fn wirelength_sums_all_edges() {
        assert_eq!(tiny_tree().total_wirelength(), 8.0);
    }

    #[test]
    fn snaking_counts_detours_only() {
        assert_eq!(tiny_tree().total_snaking(), 3.0);
    }

    #[test]
    fn children_adjacency() {
        let ch = tiny_tree().children();
        assert_eq!(ch[0], vec![1, 2]);
        assert!(ch[1].is_empty());
    }

    #[test]
    fn sink_nodes_enumerates_leaves() {
        let sinks: Vec<_> = tiny_tree().sink_nodes().collect();
        assert_eq!(sinks, vec![(1, 0), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "invalid parent")]
    fn bad_parent_rejected() {
        let _ = RoutedTree::new(
            Point::new(0.0, 0.0),
            vec![
                RoutedNode {
                    pos: Point::new(0.0, 0.0),
                    parent: None,
                    wire: 0.0,
                    sink: None,
                },
                RoutedNode {
                    pos: Point::new(1.0, 0.0),
                    parent: Some(9),
                    wire: 1.0,
                    sink: Some(0),
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "invalid parent")]
    fn parent_after_child_rejected() {
        let node = |parent, sink| RoutedNode {
            pos: Point::new(0.0, 0.0),
            parent,
            wire: 1.0,
            sink,
        };
        let _ = RoutedTree::new(
            Point::new(0.0, 0.0),
            vec![
                node(None, None),
                node(Some(2), Some(0)),
                node(Some(0), None),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_tree_rejected() {
        let _ = RoutedTree::new(Point::new(0.0, 0.0), Vec::new());
    }
}
