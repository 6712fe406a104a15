//! The region arena: the planner's own copy of every active subtree's
//! candidate regions, contiguous per subtree and laid out in the grid's
//! cell order.
//!
//! Exact pair distances ([`min_region_distance`](crate::min_region_distance))
//! read two subtrees' region lists. Reading them from the merge space
//! means two scattered candidate lists per evaluation (a 32 B region out
//! of every much larger candidate), cold in cache. Subtrees are immutable
//! once created, so the planner copies the regions once, when a subtree
//! enters the active set, and re-lays the copy out in cell order whenever
//! it rebuilds its grid: a sweep in cell order then reads its own spans in
//! memory order, and a neighbor's span sits a few cells away.
//!
//! A subtree with a single region (every leaf) stores nothing: its hull
//! *is* its region, bit for bit, and the entry already holds the hull.
//! The arena asks the space for the region count first
//! ([`MergeSpace::region_count`]), so such a subtree's region is never
//! read.
//!
//! Spans live in chunks, appended in order. A relayout copies every live
//! span into fresh chunks, one entry at a time, so the refresh sweep can
//! relocate each entry as it reaches it: entries it has not reached yet
//! still read their spans from the old chunks, which are freed only when
//! the relayout ends. Chunks are bounded in size to keep the arena
//! friendly to the allocator: one large buffer sized to each round's live
//! regions left holes the merge space's small allocations split, and a
//! route's peak memory crept up from one route to the next. They also
//! start small: the first chunk of a relayout holds [`FIRST_CHUNK`]
//! regions and each further one doubles, up to [`CHUNK`], so a
//! few-hundred-sink route does not pay for 16 KiB chunks it cannot fill.

use astdme_geom::Trr;

use super::Entry;
use crate::MergeSpace;

/// [`Entry::start`] of an entry whose one region is its hull: no span.
pub(super) const HULL: u32 = u32::MAX;

/// Regions in the largest chunk (16 KiB), and the stride of span starts.
/// A span never straddles two chunks; a longer one gets a chunk of its
/// own.
const CHUNK: usize = 512;

/// Regions in the first chunk of the arena and of every relayout; each
/// further chunk doubles the last one's size, up to [`CHUNK`].
const FIRST_CHUNK: usize = 16;

/// The chunked span store; see the module docs. A span's start is its
/// chunk id times [`CHUNK`] plus its offset in the chunk.
#[derive(Debug, Default)]
pub(super) struct RegionArena {
    /// Chunk id → its regions; a freed id holds an empty `Vec`.
    chunks: Vec<Vec<Trr>>,
    /// Ids of freed chunks, reused before the table grows.
    free_ids: Vec<u32>,
    /// Ids of the chunks holding live spans, in fill order (the last one
    /// takes new spans).
    used: Vec<u32>,
    /// During a relayout: the chunks that predate it.
    old: Vec<u32>,
    /// Staging for [`RegionArena::store`].
    staged: Vec<Trr>,
}

/// Whether two regions are the same bits (the `float-eq` discipline: a
/// region compared for identity, never for closeness).
fn same_bits(a: &Trr, b: &Trr) -> bool {
    let bits = |t: &Trr| [t.u().lo(), t.u().hi(), t.v().lo(), t.v().hi()].map(f64::to_bits);
    bits(a) == bits(b)
}

impl RegionArena {
    /// Copies subtree `key`'s regions (from `space`) into the arena and
    /// returns the entry's `(start, len)`. A single region is `hull` bit
    /// for bit (see [`MergeSpace::region`]): it is not read, stores
    /// nothing and returns [`HULL`].
    pub(super) fn store<S: MergeSpace>(&mut self, space: &S, key: usize, hull: &Trr) -> (u32, u32) {
        let mut staged = std::mem::take(&mut self.staged);
        staged.clear();
        if space.region_count(key) == 1 {
            debug_assert!(
                {
                    space.regions(key, &mut staged);
                    same_bits(&staged[0], hull)
                },
                "subtree {key}'s one region is its hull"
            );
            self.staged = staged;
            return (HULL, 1);
        }
        space.regions(key, &mut staged);
        assert!(!staged.is_empty(), "subtree {key} has no candidate regions");
        let len = u32::try_from(staged.len()).expect("candidate counts fit u32");
        let span = (self.place(&staged), len);
        self.staged = staged;
        span
    }

    /// The candidate regions of `e`, in candidate order.
    #[inline]
    pub(super) fn regions<'a>(&'a self, e: &'a Entry) -> &'a [Trr] {
        if e.start == HULL {
            return std::slice::from_ref(&e.region);
        }
        let (id, off) = (e.start as usize / CHUNK, e.start as usize % CHUNK);
        &self.chunks[id][off..off + e.len as usize]
    }

    /// Whether no entry stores a span (every active subtree is a single
    /// region), so a relayout has nothing to move.
    pub(super) fn is_empty(&self) -> bool {
        self.used.is_empty()
    }

    /// Starts a relayout: from now on spans go to fresh chunks, and the
    /// current ones are freed by [`RegionArena::end_relayout`].
    pub(super) fn begin_relayout(&mut self) {
        self.old = std::mem::take(&mut self.used);
    }

    /// Copies `e`'s span into the fresh chunks (no-op without a span).
    /// Each live entry is relocated exactly once per relayout.
    #[inline]
    pub(super) fn relocate(&mut self, e: &mut Entry) {
        if e.start == HULL {
            return;
        }
        let (id, off) = (e.start as usize / CHUNK, e.start as usize % CHUNK);
        // The source is an old chunk, never the one `place` appends to.
        let src = std::mem::take(&mut self.chunks[id]);
        e.start = self.place(&src[off..off + e.len as usize]);
        self.chunks[id] = src;
    }

    /// Ends a relayout once every live entry has been relocated: the old
    /// chunks hold no live span and are freed.
    pub(super) fn end_relayout(&mut self) {
        for id in self.old.drain(..) {
            self.chunks[id as usize] = Vec::new();
            self.free_ids.push(id);
        }
    }

    /// Appends `span` to the last used chunk, or to a new chunk (twice the
    /// last one's size, see [`FIRST_CHUNK`]) when it does not fit; returns
    /// its start.
    fn place(&mut self, span: &[Trr]) -> u32 {
        // A chunk's size is its capacity (`Vec::with_capacity` is exact).
        let last = self.used.last().map(|&id| id as usize);
        let room = |c: &Vec<Trr>| c.capacity().min(CHUNK).saturating_sub(c.len());
        let id = match last {
            Some(id) if span.len() <= room(&self.chunks[id]) => id,
            _ => {
                let size = last.map_or(FIRST_CHUNK, |id| 2 * self.chunks[id].capacity());
                self.new_chunk(span.len().max(size.min(CHUNK)))
            }
        };
        let chunk = &mut self.chunks[id];
        let off = chunk.len();
        chunk.extend_from_slice(span);
        u32::try_from(id * CHUNK + off)
            .ok()
            .filter(|&s| s != HULL)
            .expect("region arena starts fit u32")
    }

    /// A fresh chunk of `cap` regions; returns its id.
    fn new_chunk(&mut self, cap: usize) -> usize {
        let id = match self.free_ids.pop() {
            Some(id) => id as usize,
            None => {
                self.chunks.push(Vec::new());
                self.chunks.len() - 1
            }
        };
        self.chunks[id] = Vec::with_capacity(cap);
        self.used.push(id as u32);
        id
    }
}
