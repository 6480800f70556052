//! # nlrm-bench
//!
//! The experiment harness: everything needed to regenerate every table and
//! figure of the paper's evaluation (§5), plus ablations.
//!
//! * [`runner`] — the trial protocol: warm a monitored cluster, snapshot it,
//!   then run each allocation policy against a **clone** of the same cluster
//!   so every policy faces an identical future (the simulation-exact version
//!   of the paper's "ran all four approaches in sequence, repeated 5
//!   times").
//! * [`gains`] — Tables 2–3 arithmetic: percentage gains (average, median,
//!   maximum) of the network-and-load-aware policy over each baseline, and
//!   per-policy coefficients of variation.
//! * [`heatmap`] — ASCII renderings of the P2P bandwidth heatmaps
//!   (Fig. 2a, Fig. 7); [`plot`] — dependency-free SVG line charts and
//!   heatmaps so the binaries emit actual figures.
//! * [`report`] — Markdown/CSV table writers; experiment binaries write
//!   their outputs under `results/`.
//! * [`synthetic`] — seeded tiered `Loads` for the `scale_micro` kernel
//!   benches; whole decisions at scale are timed on the real chain by
//!   `monitor_sweep`'s chain rows.
//!
//! One binary per experiment lives in `src/bin/` — see DESIGN.md's
//! experiment index for the mapping to paper figures/tables.

pub mod gains;
pub mod heatmap;
pub mod plot;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod synthetic;
pub mod trace_scenario;

pub use gains::{GainTable, PolicyStats};
pub use runner::{Experiment, TrialResult};
