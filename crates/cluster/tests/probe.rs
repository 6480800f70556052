//! The single-walk pair probe against separate measurements.
//!
//! `ClusterSim::probe` walks the route once and reads latency, residual and
//! capacity per link. It must return the bits that separate latency,
//! bandwidth and peak calls return, draw its noise in the same order, and
//! agree with per-link reference formulas over the route.

use nlrm_cluster::iitk::{campus, iitk_cluster};
use nlrm_cluster::ClusterSim;
use nlrm_sim_core::time::Duration;
use nlrm_topology::NodeId;

/// Latency, available and peak bandwidth of `u`–`v`, one route walk per
/// quantity, from the per-link state.
fn reference(c: &ClusterSim, u: NodeId, v: NodeId) -> [f64; 3] {
    let topo = c.topology();
    let route = topo.route(u, v);
    let latency = route
        .iter()
        .map(|&l| {
            // the network's per-hop queueing model
            let util = c.network().total_util(l);
            topo.link(l).params.latency_s * (1.0 + 3.0 * (util / (1.0 - util)).min(20.0))
        })
        .sum();
    let avail = route
        .iter()
        .map(|&l| c.link_residual_bps(l))
        .fold(f64::INFINITY, f64::min);
    let peak = route
        .iter()
        .map(|&l| topo.link(l).params.capacity_bps)
        .fold(f64::INFINITY, f64::min);
    [latency, avail, peak]
}

fn bits(x: [f64; 3]) -> [u64; 3] {
    x.map(f64::to_bits)
}

/// Probe every ordered pair (self-pairs included) of `cluster` once with
/// the single-walk probe and once with separate calls, on two clones.
fn check(mut cluster: ClusterSim) {
    cluster.advance(Duration::from_secs(600));
    // congest one cross-switch path so queueing terms are not all tiny
    let last = NodeId(cluster.num_nodes() as u32 - 1);
    for &l in cluster.topology().route(NodeId(0), last).iter() {
        cluster.add_job_util(l, 0.5);
    }
    let (mut one, mut separate) = (cluster.clone(), cluster);
    let (mut same_switch, mut cross_switch) = (0, 0);
    let nodes: Vec<NodeId> = one.topology().node_ids().collect();
    for &u in &nodes {
        for &v in &nodes {
            let exact = [
                one.latency_s(u, v),
                one.available_bandwidth_bps(u, v),
                one.peak_bandwidth_bps(u, v),
            ];
            assert_eq!(
                bits(exact),
                bits(reference(&one, u, v)),
                "exact path state of {u}-{v}"
            );
            let mut probe = one.probe(u, v);
            let got = [probe.latency_s(), probe.bandwidth_bps(), probe.peak_bps()];
            let want = [
                separate.measure_latency_s(u, v),
                separate.measure_bandwidth_bps(u, v),
                separate.peak_bandwidth_bps(u, v),
            ];
            assert_eq!(bits(got), bits(want), "probe of {u}-{v}");
            let topo = one.topology();
            if u != v && topo.switch_of(u) == topo.switch_of(v) {
                same_switch += 1;
            } else if u != v {
                cross_switch += 1;
            }
        }
    }
    assert!(same_switch > 0 && cross_switch > 0);
    // the measurement stream is where the separate calls left it
    let next = |c: &mut ClusterSim| c.measure_latency_s(NodeId(0), last).to_bits();
    assert_eq!(next(&mut one), next(&mut separate));
}

#[test]
fn single_walk_probe_matches_separate_calls_on_iitk() {
    check(iitk_cluster(7));
}

#[test]
fn single_walk_probe_matches_separate_calls_on_campus() {
    check(campus(3, 8, 5));
}
