//! Engine tuning knobs.

/// Configuration of the merge engine.
///
/// The defaults reproduce the paper's setup; the knobs exist for the
/// ablation benches and for callers trading runtime against wirelength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// How many wire splits to sample when a merge leaves a continuum of
    /// feasible splits (different-group SDR merges and bounded-skew
    /// windows). Zero-skew same-group merges always produce exactly one.
    pub split_samples: usize,
    /// Maximum number of candidates kept per subtree root after pruning.
    pub max_candidates: usize,
    /// How many child-candidate pairs to expand per merge: the cheapest
    /// by estimated merge cost (distance plus forced snaking or offset
    /// repair), ties in child-candidate order. Ranking prices pairs in
    /// distance order and stops once no unpriced pair can make the cut,
    /// so a small limit also keeps ranking cheap.
    pub pair_limit: usize,
    /// Absolute skew tolerance in seconds for feasibility checks.
    pub skew_tol: f64,
    /// Fuse sink groups globally on first contact (the paper's Fig. 6
    /// steps 6–7: "merge all sink groups involved"), fixing their relative
    /// offsets at the fusing merge. This guarantees every later merge
    /// shares at most one effective group, so offset conflicts — and the
    /// wire sneaking they force — never arise. Disable to exercise the
    /// general per-subtree offset-adjustment machinery instead (more
    /// faithful to reading instance 2 literally, usually more wire).
    /// The flag decides only whether a merge fuses the classes it joins;
    /// off, every group stays its own class at offset zero.
    pub fuse_groups: bool,
}

impl EngineConfig {
    /// A budget-friendly configuration for very large instances: fewer
    /// candidates and samples.
    pub fn fast() -> Self {
        Self {
            split_samples: 3,
            max_candidates: 4,
            pair_limit: 2,
            skew_tol: 1e-18,
            fuse_groups: true,
        }
    }

    /// A thorough configuration: more positional diversity, slower.
    pub fn thorough() -> Self {
        Self {
            split_samples: 9,
            max_candidates: 12,
            pair_limit: 4,
            skew_tol: 1e-18,
            fuse_groups: true,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            split_samples: 5,
            max_candidates: 8,
            pair_limit: 3,
            skew_tol: 1e-18,
            fuse_groups: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_effort() {
        let f = EngineConfig::fast();
        let d = EngineConfig::default();
        let t = EngineConfig::thorough();
        assert!(f.split_samples <= d.split_samples);
        assert!(d.split_samples <= t.split_samples);
        assert!(f.max_candidates <= d.max_candidates);
        assert!(d.max_candidates <= t.max_candidates);
    }
}
