//! Synthetic tiered clusters for the allocator's scale benches.

use nlrm_core::{Loads, TieredNl};
use nlrm_sim_core::rng::{frac, splitmix64};
use nlrm_topology::NodeId;

/// `v` nodes in `per_switch`-node switches, built straight as `Loads`:
/// seeded compute loads, exact intra-switch and aggregated inter-switch
/// network loads (`TieredNl`), 4 spare process slots per node.
pub fn tiered_loads(v: u32, per_switch: u32, seed: u64) -> Loads {
    let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
    let switch_of: Vec<u32> = (0..v).map(|n| n / per_switch).collect();
    let nl = TieredNl::from_fns(
        &nodes,
        &switch_of,
        v.div_ceil(per_switch) as usize,
        |a, b| {
            let h = splitmix64(seed ^ (a.index() as u64 * 1_000_003 + b.index() as u64));
            0.05 + 0.3 * frac(h)
        },
        |s, t| {
            let h = splitmix64(seed ^ (((s as u64) << 32) | t as u64));
            0.2 + 0.6 * frac(h)
        },
    );
    let cl: Vec<f64> = (0..v)
        .map(|n| 0.1 + 0.8 * frac(splitmix64(seed ^ (n as u64 + 17))))
        .collect();
    Loads::from_parts(nodes, cl, nl, vec![4u32; v as usize])
}
