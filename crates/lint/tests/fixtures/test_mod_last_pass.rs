//! The test module is the file's last item, however its body nests.

use std::collections::{BTreeMap, BTreeSet};

pub fn sizes(map: &BTreeMap<u32, u32>, set: &BTreeSet<u32>) -> usize {
    map.len() + set.len()
}

#[cfg(test)]
#[allow(unused_imports)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let pair: [usize; 2] = [0; 2];
        assert_eq!(sizes(&BTreeMap::new(), &BTreeSet::new()), pair[1]);
    }
}
