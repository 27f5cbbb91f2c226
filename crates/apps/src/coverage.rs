//! Basic-block coverage bookkeeping for the MySQL-like application.
//!
//! The paper measures effectiveness partly as test-suite coverage improvement
//! (§6.1: MySQL's own suite reaches 73% basic-block coverage; LFI lifts it to
//! ≥74% overall and by 12% in the InnoDB ibuf module).  The simulated server
//! registers its basic blocks here and marks them as it executes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A registry of (module, block) pairs and which of them have executed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    blocks: BTreeMap<String, BTreeSet<String>>,
    hit: BTreeMap<String, BTreeSet<String>>,
}

impl CoverageMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a block (idempotent).
    pub(crate) fn register(&mut self, module: &str, block: &str) {
        self.blocks.entry(module.to_owned()).or_default().insert(block.to_owned());
    }

    /// Marks a block as executed, registering it if needed.
    pub(crate) fn hit(&mut self, module: &str, block: &str) {
        self.register(module, block);
        self.hit.entry(module.to_owned()).or_default().insert(block.to_owned());
    }

    /// Total number of registered blocks.
    pub(crate) fn total_blocks(&self) -> usize {
        self.blocks.values().map(BTreeSet::len).sum()
    }

    /// Number of blocks hit.
    pub(crate) fn hit_blocks(&self) -> usize {
        self.hit.values().map(BTreeSet::len).sum()
    }

    /// Overall coverage, in [0, 1].
    pub(crate) fn overall(&self) -> f64 {
        ratio(self.hit_blocks(), self.total_blocks())
    }

    /// Coverage of one module, in [0, 1].
    pub fn module(&self, module: &str) -> f64 {
        let total = self.blocks.get(module).map_or(0, BTreeSet::len);
        let hit = self.hit.get(module).map_or(0, BTreeSet::len);
        ratio(hit, total)
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl fmt::Display for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} blocks ({:.1}%)", self.hit_blocks(), self.total_blocks(), self.overall() * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_accounting() {
        let mut map = CoverageMap::new();
        map.register("parser", "ok_1");
        map.register("parser", "err_1");
        map.register("ibuf", "ok_1");
        map.hit("parser", "ok_1");
        assert_eq!(map.total_blocks(), 3);
        assert_eq!(map.hit_blocks(), 1);
        assert!((map.overall() - 1.0 / 3.0).abs() < 1e-9);
        assert!((map.module("parser") - 0.5).abs() < 1e-9);
        assert_eq!(map.module("ibuf"), 0.0);
        assert_eq!(map.module("missing"), 0.0);
        assert!(map.to_string().contains("1/3"));
    }
}
