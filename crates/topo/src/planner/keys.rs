//! The dense key tables: position-map growth and active-set maintenance.
//!
//! All per-key state lives in flat vectors indexed by key (see the
//! dense-key invariant in the [`planner`](super) module docs). Removal is
//! always `swap_remove` — the same discipline on the point-update and
//! refresh paths, so the entries order (and hence exact-tie breaking) is
//! identical on both.

use super::{Entry, MergePlanner, CONSUMED, NO_POS};
use crate::MergeSpace;

/// The entry index a `pos` table holds for `key`, if the key is active.
#[inline]
pub(super) fn active_pos(pos: &[u32], key: usize) -> Option<usize> {
    match pos.get(key) {
        Some(&p) if p < CONSUMED => Some(p as usize),
        _ => None,
    }
}

impl MergePlanner {
    /// The entry index of an active key, if any.
    #[inline]
    pub(super) fn pos_of(&self, key: usize) -> Option<usize> {
        active_pos(&self.pos, key)
    }

    /// The result key of the refresh merge that consumed `key`, if a
    /// refresh round consumed it ([`MergePlanner::drop_key`] tags it). The
    /// refresh sweep asks only about neighbors consumed in its own round.
    #[inline]
    pub(super) fn consumer_of(&self, key: usize) -> Option<usize> {
        match self.pos.get(key) {
            Some(&p) if p != NO_POS && p >= CONSUMED => Some((p - CONSUMED) as usize),
            _ => None,
        }
    }

    /// Grows the dense per-key tables to cover `key` (`rev` only while
    /// the point-update path maintains it).
    pub(super) fn ensure_key(&mut self, key: usize) {
        assert!(key < CONSUMED as usize, "planner keys must be below 2^31");
        if key >= self.pos.len() {
            self.pos.resize(key + 1, NO_POS);
        }
        if self.point_valid && key >= self.rev.len() {
            self.rev.resize_with(key + 1, Vec::new);
        }
    }

    /// Removes an active key; caches that pointed at it are invalidated
    /// and re-queried lazily, seeded with `hint` (the merge result that
    /// consumed the key — it sits where the key was).
    pub(super) fn remove_key(&mut self, key: usize, hint: usize) {
        let i = self
            .pos_of(key)
            .expect("apply_merge called with an inactive key");
        self.pos[key] = NO_POS;
        self.clear_nn(i);
        let entry = self.entries.swap_remove(i);
        if i < self.entries.len() {
            self.pos[self.entries[i].key()] = i as u32;
        }
        self.grid.remove(key, &entry.region);
        // Whoever pointed at the removed key loses its neighbor: re-query.
        if !self.rev[key].is_empty() {
            let mut back_refs = std::mem::take(&mut self.rev[key]);
            for &k in &back_refs {
                let k = k as usize;
                let Some(ki) = self.pos_of(k) else {
                    continue; // stale back-reference
                };
                if self.entries[ki].nn().is_some_and(|nn| nn.key == key) {
                    self.clear_nn(ki);
                    self.dirty.push((k, hint));
                }
            }
            back_refs.clear();
            self.rev_pool.push(back_refs);
        }
    }

    /// Removes `key`, consumed by the merge that created `merged`, from the
    /// active set only — no grid, pair-set or back-reference maintenance.
    /// Valid solely on the refresh path, which rebuilds all of those from
    /// the surviving entries. The key's `pos` slot keeps `merged` as the
    /// refresh sweep's re-query hint ([`MergePlanner::consumer_of`]). Uses
    /// the same swap-remove discipline as [`MergePlanner::remove_key`], so
    /// the entries order (and hence tie-breaking) is identical on both
    /// paths.
    pub(super) fn drop_key(&mut self, key: usize, merged: usize) {
        let i = self
            .pos_of(key)
            .expect("apply_merge called with an inactive key");
        // `merged` < CONSUMED: checked by `ensure_key` when it registers.
        self.pos[key] = CONSUMED | merged as u32;
        self.entries.swap_remove(i);
        if i < self.entries.len() {
            self.pos[self.entries[i].key()] = i as u32;
        }
    }

    /// Adds `key` to the active set only (refresh path; see
    /// [`MergePlanner::drop_key`]).
    pub(super) fn add_key_deferred<S: MergeSpace>(&mut self, space: &S, key: usize) {
        self.ensure_key(key);
        assert!(self.pos_of(key).is_none(), "duplicate planner key {key}");
        self.pos[key] = self.entries.len() as u32;
        let entry = Entry::new(space, &mut self.arena, key);
        self.entries.push(entry);
    }

    /// Registers a new key in the grid and active set, deferring neighbor
    /// derivation to the round's maintenance sweep.
    pub(super) fn register_key<S: MergeSpace>(&mut self, space: &S, key: usize) {
        self.ensure_key(key);
        assert!(self.pos_of(key).is_none(), "duplicate planner key {key}");
        let entry = Entry::new(space, &mut self.arena, key);
        self.grid.insert(key, entry.region);
        self.pos[key] = self.entries.len() as u32;
        self.entries.push(entry);
        self.dirty.push((key, super::NO_HINT));
    }
}
