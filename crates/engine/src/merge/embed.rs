//! Top-down embedding: turning a finished merge forest root into a routed
//! tree by walking candidate provenance.
//!
//! The walk is pre-order, so every subtree lands in one contiguous range
//! of the tree, and what it writes for a subtree depends only on the
//! subtree's candidate lists, the candidate chosen at its root and the
//! root's point. An embedding can therefore record where it put each
//! forest node ([`EmbedMap`]), and a later embedding of a forest that
//! shares whole subtrees with it ([`Standing`], an ECO flush's standing
//! route) copies those subtrees' ranges instead of walking them again.

use astdme_geom::Point;

use crate::{CandKind, MergeForest, RoutedNode, RoutedTree};

use super::{NodeId, NO_NODE};

/// Where an embedding put each forest node: the side table a later
/// embedding copies clean subtrees from (see [`Standing`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmbedMap {
    /// Per routed node, in tree order: its forest node and the candidate
    /// the walk chose there.
    origin: Vec<(u32, u32)>,
    /// Per forest node: its routed index, or [`NO_NODE`] for a node
    /// outside the embedded subtree.
    routed_of: Vec<u32>,
}

impl EmbedMap {
    fn note(&mut self, node: usize, cand: usize, routed: usize) {
        debug_assert_eq!(self.origin.len(), routed, "notes follow tree order");
        self.origin.push((node as u32, cand as u32));
        self.routed_of[node] = routed as u32;
    }
}

/// The standing embedding of an earlier forest, which an embedding of
/// this forest may copy subtrees from.
///
/// A subtree is copied when its root is *pristine* and the walk reaches
/// it with the candidate index and the point bits the standing embedding
/// recorded for its counterpart: only its root's parent and wire come
/// from the walk, and the rest of its range is the standing tree's, with
/// parent indices shifted. Pristine is the caller's guarantee that every
/// candidate the walk could read in the subtree is bit-identical to its
/// counterpart's, at the same list positions; the ECO replay grants it
/// to clean leaves and to adopted merges that take their recorded list,
/// append to nothing, and sit over two pristine children. The copy reads
/// only the standing tree and `map`, never the standing forest, whose
/// taken lists are empty by then.
#[derive(Debug, Clone)]
pub struct Standing<'a> {
    /// The standing routed tree, exactly as the embedding that wrote
    /// `map` produced it (no repair since).
    pub tree: &'a RoutedTree,
    /// The standing embedding's side table.
    pub map: &'a EmbedMap,
    /// Per node of the standing forest: this forest's counterpart, or
    /// [`NO_NODE`]. Every node of a pristine subtree has one.
    pub to_new: Vec<u32>,
    /// Per node of this forest: its standing counterpart if the node is
    /// pristine, [`NO_NODE`] otherwise.
    pub pristine: Vec<u32>,
}

impl Standing<'_> {
    /// The standing routed index of `nid`'s counterpart, when the walk
    /// reaches `nid` exactly as the standing embedding reached it.
    fn copy_source(&self, nid: usize, cidx: usize, pos: Point) -> Option<usize> {
        // `NO_NODE` indexes past every table, so `get` filters it out.
        let std = *self.pristine.get(nid)?;
        let r = *self.map.routed_of.get(std as usize)?;
        if r == NO_NODE {
            return None;
        }
        let r = r as usize;
        let was = self.tree.nodes()[r].pos;
        let same = self.map.origin[r].1 as usize == cidx
            && was.x.to_bits() == pos.x.to_bits()
            && was.y.to_bits() == pos.y.to_bits();
        same.then_some(r)
    }

    /// Appends the standing subtree below routed node `r` (its
    /// descendants, a pre-order range) under the node just placed at
    /// `me`, noting each copied node in `map` under its new forest id.
    /// Returns the number of nodes copied.
    fn copy_below(
        &self,
        r: usize,
        me: usize,
        nodes: &mut Vec<RoutedNode>,
        map: Option<&mut EmbedMap>,
    ) -> usize {
        let start = nodes.len();
        // In pre-order the subtree of `r` ends at the first node whose
        // parent precedes `r`.
        let rest = &self.tree.nodes()[r + 1..];
        let copied = rest
            .iter()
            .position(|n| n.parent.is_none_or(|p| p < r))
            .unwrap_or(rest.len());
        nodes.extend(rest[..copied].iter().map(|n| RoutedNode {
            parent: n.parent.map(|p| p - r + me),
            ..*n
        }));
        if let Some(map) = map {
            for (k, &(std, cand)) in self.map.origin[r + 1..r + 1 + copied].iter().enumerate() {
                let new = self.to_new[std as usize];
                debug_assert!(new != NO_NODE, "a pristine subtree maps whole");
                map.note(new as usize, cand as usize, start + k);
            }
        }
        copied
    }
}

/// The result of [`MergeForest::embed_with`].
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The routed tree.
    pub tree: RoutedTree,
    /// Where each forest node went, when asked for.
    pub map: Option<EmbedMap>,
    /// Routed nodes copied from the standing tree instead of walked.
    pub reused_nodes: usize,
}

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
        self.embed_with(root, source, None, false).tree
    }

    /// [`MergeForest::embed`] that copies every subtree `standing` lets it
    /// copy instead of walking it, and returns the [`EmbedMap`] of the new
    /// tree when `record` is set. The tree is the one `embed` returns,
    /// bit for bit, provided `standing` keeps its pristine guarantee.
    ///
    /// # Panics
    ///
    /// Panics if `root` is stale.
    pub fn embed_with(
        &self,
        root: NodeId,
        source: Point,
        standing: Option<&Standing<'_>>,
        record: bool,
    ) -> Embedding {
        // Choose the root candidate. total_cmp: a poisoned (NaN) cost must
        // lose deterministically to every finite one, not panic here.
        let (best_idx, _) = self
            .list(root)
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.wirelen + c.region.distance_to_point(source)))
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("nodes always keep at least one candidate");

        let mut nodes: Vec<RoutedNode> = Vec::with_capacity(self.nodes.len());
        let mut map = record.then(|| EmbedMap {
            origin: Vec::with_capacity(self.nodes.len()),
            routed_of: vec![NO_NODE; self.nodes.len()],
        });
        let mut reused_nodes = 0;
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
            nodes.push(RoutedNode {
                pos,
                parent,
                wire,
                sink: self.nodes[nid.0].sink(),
            });
            if let Some(map) = map.as_mut() {
                map.note(nid.0, cidx, me);
            }
            if let Some(std) = standing {
                if let Some(r) = std.copy_source(nid.0, cidx, pos) {
                    reused_nodes += std.copy_below(r, me, &mut nodes, map.as_mut());
                    continue;
                }
            }
            if let Some((a, b)) = self.nodes[nid.0].children() {
                let cand = &self.list(nid)[cidx];
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
        Embedding {
            tree: RoutedTree::new(source, nodes),
            map,
            reused_nodes,
        }
    }
}
