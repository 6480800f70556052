//! # nlrm-sim-core
//!
//! Discrete-event simulation core used by the whole `nlrm` workspace.
//!
//! The ICPP'20 paper evaluates its allocator on a live shared cluster at
//! IIT Kanpur. We reproduce that substrate in simulation, which requires a
//! small but solid foundation:
//!
//! * [`SimTime`] / [`Duration`] — a totally-ordered virtual clock,
//! * [`EventQueue`] — a deterministic event queue with FIFO tie-breaking,
//! * [`FaultPlan`] — scheduled kill/hang/delay fault injection against
//!   arbitrary targets, drained as virtual time advances,
//! * [`RngFactory`] — named, independent, reproducible RNG streams,
//! * [`process`] — stochastic processes (Ornstein–Uhlenbeck, Poisson spike
//!   trains, bounded random walks, Markov chains, diurnal modulation) that
//!   drive background node load and network traffic,
//! * [`window`] — time-windowed running means (the paper's 1/5/15-minute
//!   attribute histories),
//! * [`stats`] — summary statistics (mean/median/max/CoV) used throughout
//!   the evaluation section,
//! * [`forecast`] — NWS-style one-step-ahead predictors and the adaptive
//!   best-of ensemble (paper §2's forecasting substrate),
//! * [`series`] — time series recording for the figure reproductions.
//!
//! Everything is deterministic given a seed: the experiments in
//! `nlrm-bench` rely on replaying identical cluster histories under
//! different allocation policies.

pub mod event;
pub mod fault;
pub mod forecast;
pub mod process;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod window;

pub use event::EventQueue;
pub use fault::{FaultAction, FaultEvent, FaultPlan};
pub use rng::RngFactory;
pub use series::TimeSeries;
pub use stats::{OnlineStats, Summary};
pub use time::{Duration, SimTime};
