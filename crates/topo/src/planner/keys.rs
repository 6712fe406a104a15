//! The dense key tables: position-map growth and active-set maintenance.
//!
//! All per-key state lives in flat vectors indexed by key (see the
//! dense-key invariant in the [`planner`](super) module docs). Removal is
//! always `swap_remove`.

use super::{Entry, MergePlanner, KEY_BOUND, NO_POS};
use crate::MergeSpace;

/// The entry index a `pos` table holds for `key`, if the key is active.
#[inline]
pub(super) fn active_pos(pos: &[u32], key: usize) -> Option<usize> {
    match pos.get(key) {
        Some(&p) if p != NO_POS => Some(p as usize),
        _ => None,
    }
}

impl MergePlanner {
    /// The entry index of an active key, if any.
    #[inline]
    pub(super) fn pos_of(&self, key: usize) -> Option<usize> {
        active_pos(&self.pos, key)
    }

    /// Grows the dense per-key tables to cover `key` (`rev` only while
    /// the point-update path maintains it).
    pub(super) fn ensure_key(&mut self, key: usize) {
        assert!(key < KEY_BOUND, "planner keys must be below 2^31");
        if key >= self.pos.len() {
            self.pos.resize(key + 1, NO_POS);
        }
        if self.point_valid && key >= self.rev.len() {
            self.rev.resize_with(key + 1, Vec::new);
        }
    }

    /// Removes an active key; caches that pointed at it are invalidated
    /// and re-queried lazily.
    pub(super) fn remove_key(&mut self, key: usize) {
        let entry = self.drop_key(key);
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
                    self.entries[ki].clear_nn(); // its pair goes stale in the lazy heap
                    self.dirty.push(k);
                }
            }
            back_refs.clear();
            self.rev_pool.push(back_refs);
        }
    }

    /// Removes an active key from the active set only and returns its
    /// entry — no grid, pair-set or back-reference maintenance. On its own
    /// valid solely on the refresh path, which rebuilds all of those from
    /// the surviving entries.
    pub(super) fn drop_key(&mut self, key: usize) -> Entry {
        let i = self
            .pos_of(key)
            .expect("apply_merge called with an inactive key");
        self.pos[key] = NO_POS;
        let entry = self.entries.swap_remove(i);
        if i < self.entries.len() {
            self.pos[self.entries[i].key()] = i as u32;
        }
        entry
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
        self.dirty.push(key);
    }
}
