//! # esharp-cli
//!
//! The command-line surface of the reproduction:
//!
//! * `esharp` — build / search / inspect / sql / cluster / serve / ingest
//!   (see `src/bin/esharp.rs`).
//! * `repro` — regenerates every table and figure of the paper's
//!   evaluation (see EXPERIMENTS.md), including the clustering back-end
//!   ablation (`ablation_backends`).
//!
//! Performance is measured by the repo benchmark under `benchmark/`
//! (see `benchmark/README.md` and PERF.md), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
