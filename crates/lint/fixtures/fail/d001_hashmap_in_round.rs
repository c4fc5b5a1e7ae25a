// prc-lint-fixture: path = crates/net/src/network.rs
//! An unordered map in the shared collection round: D001. Visiting
//! order would depend on hashing, breaking byte-identity between the
//! flat and tree drivers.

use std::collections::HashMap;
