//! # esharp-expert
//!
//! The baseline expert detector of e# (EDBT 2016, §3): Pal & Counts'
//! topical-authority framework, "simplified for production purposes".
//!
//! * Candidate selection: authors and mentioned users of tweets matching
//!   **all** query terms after lower-casing.
//! * Features: topical signal (TS), mention impact (MI), retweet impact
//!   (RI).
//! * Normalization: log transform (the features are log-normal) + z-score.
//! * Ranking: weighted sum, minimum z-score threshold (the Figure 9 knob),
//!   top-15.
//! * The optional cluster-analysis precision filter the paper discarded is
//!   available behind [`DetectorConfig::cluster_filter`] for ablations.
//!
//! e# itself (`esharp-core`) wraps this detector with query expansion; per
//! the paper it "can work with any Expertise Retrieval system".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cluster_filter;
mod detector;
mod features;
pub mod features_ext;
mod normalize;
#[cfg(any(test, feature = "test-support"))]
pub mod oracle;

pub use detector::{Detector, DetectorConfig, ExpertResult};
pub use features::{Features, TopicCounts};
pub use features_ext::{ExtendedFeatures, ExtendedWeights};
pub use normalize::log_transform;
