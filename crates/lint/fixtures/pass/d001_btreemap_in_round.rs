// prc-lint-fixture: path = crates/net/src/network.rs
//! Ordered maps keep the shared collection round byte-identical across
//! the flat and tree drivers.

use std::collections::BTreeMap;

pub fn routes() -> BTreeMap<u32, Vec<u32>> {
    BTreeMap::new()
}
