//! # nlrm-topology
//!
//! Network topology model for the simulated cluster.
//!
//! The paper's testbed is "a tree-like hierarchical topology with 4 switches,
//! each switch connects 10–15 nodes using Gigabit Ethernet" (§5). This crate
//! models exactly that family: compute nodes attached to switches, switches
//! arranged in a tree, every attachment and trunk being a [`Link`] with a
//! capacity and base latency. Routing walks up to the lowest common ancestor
//! and back down, which gives the 1–4 hop distances the paper's node
//! numbering reflects (Fig. 2a).

pub mod graph;
pub mod route;
pub mod tier;

pub use graph::{Link, LinkId, LinkParams, NodeId, SwitchId, Topology};
pub use route::Route;
pub use tier::SwitchIndex;
