//! Crash-safe persistence primitives — re-exported from
//! [`esharp_storage::atomic`], where they moved when the paged storage
//! layer landed below this crate. Every existing
//! `esharp_relation::atomic::...` path keeps working; new code should
//! prefer depending on `esharp-storage` directly.

pub use esharp_storage::atomic::*;
