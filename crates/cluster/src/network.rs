//! Background network traffic and effective P2P performance.
//!
//! Each link carries a background utilization process: a mean-reverting
//! component (ambient chatter from the shared cluster's users) plus an
//! on/off heavy-flow component (someone copying a dataset across the trunk).
//! Effective available bandwidth between two nodes is the bottleneck
//! residual capacity along their tree path; latency grows with queueing on
//! congested links. This is what produces the paper's Fig. 2: a heatmap with
//! topology-determined base values and strong temporal fluctuation.

use crate::profiles::ClusterProfile;
use nlrm_sim_core::process::{MarkovChain, OrnsteinUhlenbeck, Process};
use nlrm_topology::{LinkId, NodeId, Topology};
use rand::rngs::StdRng;

/// Maximum modeled utilization: a link never quite reaches 100% background
/// load, leaving a residual trickle (real TCP backs off similarly).
const UTIL_CAP: f64 = 0.97;

/// Queueing-delay inflation factor: per-hop latency grows as
/// `1 + QUEUE_FACTOR · u/(1−u)` with utilization `u` (M/M/1-like shape).
const QUEUE_FACTOR: f64 = 3.0;

/// The stochastic background traffic on one link.
#[derive(Debug, Clone)]
pub struct LinkTraffic {
    base: OrnsteinUhlenbeck,
    heavy: MarkovChain,
    rng: StdRng,
    util: f64,
}

impl LinkTraffic {
    /// Build traffic for a link. `mean_util` is the long-run background
    /// utilization; heavy flows come and go per the profile.
    pub fn new(profile: &ClusterProfile, mean_util: f64, rng: StdRng) -> Self {
        let heavy = if profile.heavy_flow_rate > 0.0 {
            MarkovChain::on_off(
                0.0,
                profile.heavy_flow_util,
                1.0 / profile.heavy_flow_rate,
                profile.heavy_flow_duration,
            )
        } else {
            MarkovChain::on_off(0.0, 0.0, 1.0, 1.0)
        };
        LinkTraffic {
            base: OrnsteinUhlenbeck::with_stationary_std(
                mean_util,
                1.0 / 120.0,
                profile.link_util_sigma,
                0.0,
            ),
            heavy,
            rng,
            util: mean_util,
        }
    }

    /// Advance by `dt` seconds; returns the new background utilization.
    pub fn step(&mut self, dt: f64) -> f64 {
        let base = self.base.step(dt, &mut self.rng);
        let heavy = self.heavy.step(dt, &mut self.rng);
        self.util = (base + heavy).clamp(0.0, UTIL_CAP);
        self.util
    }

    /// Current background utilization fraction.
    pub fn util(&self) -> f64 {
        self.util
    }

    /// Force the current utilization (trace replay).
    pub fn set_util(&mut self, util: f64) {
        self.util = util.clamp(0.0, UTIL_CAP);
    }
}

/// The network layer: per-link background traffic plus job-injected load.
#[derive(Debug, Clone)]
pub struct NetworkSim {
    traffic: Vec<LinkTraffic>,
    /// Additional utilization injected by simulated MPI jobs, per link.
    job_util: Vec<f64>,
    /// Utilization contributed by the attached node's own NIC traffic
    /// (access links only): couples the paper's "node data flow rate"
    /// attribute to the bandwidth that node's peers actually see.
    node_flow_util: Vec<f64>,
}

impl NetworkSim {
    /// Build traffic processes for every link of `topo`.
    pub fn new(
        topo: &Topology,
        profile: &ClusterProfile,
        mut link_rng: impl FnMut(usize) -> StdRng,
    ) -> Self {
        let traffic = topo
            .links()
            .iter()
            .map(|link| {
                let is_trunk = matches!(
                    (link.a, link.b),
                    (
                        nlrm_topology::graph::Endpoint::Switch(_),
                        nlrm_topology::graph::Endpoint::Switch(_)
                    )
                );
                let mean = if is_trunk {
                    profile.trunk_util_mean
                } else {
                    profile.access_util_mean
                };
                LinkTraffic::new(profile, mean, link_rng(link.id.index()))
            })
            .collect::<Vec<_>>();
        let n = traffic.len();
        NetworkSim {
            traffic,
            job_util: vec![0.0; n],
            node_flow_util: vec![0.0; n],
        }
    }

    /// Record the attached node's NIC flow as background utilization on its
    /// access link. Called by the cluster each dynamics step.
    pub fn set_node_flow_util(&mut self, l: LinkId, util: f64) {
        self.node_flow_util[l.index()] = util.clamp(0.0, UTIL_CAP);
    }

    /// Force a link's background utilization (trace replay). Clears any
    /// node-flow component so the override is exact.
    pub fn override_background(&mut self, l: LinkId, util: f64) {
        self.traffic[l.index()].set_util(util);
        self.node_flow_util[l.index()] = 0.0;
    }

    /// Advance all link processes by `dt` seconds.
    pub fn step(&mut self, dt: f64) {
        for t in &mut self.traffic {
            t.step(dt);
        }
    }

    /// Background utilization of a link (without job traffic).
    pub fn background_util(&self, l: LinkId) -> f64 {
        self.traffic[l.index()].util()
    }

    /// Total utilization including the attached node's NIC traffic and
    /// job-injected traffic, capped.
    pub fn total_util(&self, l: LinkId) -> f64 {
        (self.traffic[l.index()].util() + self.node_flow_util[l.index()] + self.job_util[l.index()])
            .clamp(0.0, UTIL_CAP)
    }

    /// Add (or with a negative value, remove) job-injected utilization.
    pub fn add_job_util(&mut self, l: LinkId, delta: f64) {
        let u = &mut self.job_util[l.index()];
        *u = (*u + delta).max(0.0);
    }

    /// Residual capacity of a link in bits/s, after background + job load.
    pub fn residual_bps(&self, topo: &Topology, l: LinkId) -> f64 {
        let cap = topo.link(l).params.capacity_bps;
        cap * (1.0 - self.total_util(l))
    }

    /// Effective available bandwidth between two nodes: the bottleneck
    /// residual along the tree path (bits/s). `u == v` → +∞ (no network).
    pub fn available_bandwidth_bps(&self, topo: &Topology, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return f64::INFINITY;
        }
        topo.route(u, v)
            .iter()
            .map(|&l| self.residual_bps(topo, l))
            .fold(f64::INFINITY, f64::min)
    }

    /// Current latency between two nodes in seconds: base propagation plus
    /// congestion-dependent queueing on every hop.
    pub fn latency_s(&self, topo: &Topology, u: NodeId, v: NodeId) -> f64 {
        topo.route(u, v)
            .iter()
            .map(|&l| {
                let base = topo.link(l).params.latency_s;
                let util = self.total_util(l);
                base * (1.0 + QUEUE_FACTOR * (util / (1.0 - util)).min(20.0))
            })
            .sum()
    }

    /// Peak (zero-load) bandwidth between two nodes: the raw bottleneck
    /// capacity. This is the paper's "peak bandwidth" used to form the
    /// complement of available bandwidth.
    pub fn peak_bandwidth_bps(&self, topo: &Topology, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return f64::INFINITY;
        }
        topo.route(u, v)
            .iter()
            .map(|&l| topo.link(l).params.capacity_bps)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_sim_core::rng::RngFactory;
    use nlrm_topology::LinkParams;

    fn network() -> (Topology, NetworkSim) {
        let topo =
            Topology::star_of_switches(&[2, 2], LinkParams::gigabit(), LinkParams::gigabit());
        let f = RngFactory::new(21);
        let net = NetworkSim::new(&topo, &ClusterProfile::shared_lab(), |i| {
            f.stream("link", i as u64)
        });
        (topo, net)
    }

    #[test]
    fn utilization_stays_in_bounds() {
        let (_, mut net) = network();
        for _ in 0..2000 {
            net.step(5.0);
            for l in 0..net.traffic.len() {
                let u = net.total_util(LinkId(l as u32));
                assert!((0.0..=UTIL_CAP).contains(&u), "util {u}");
            }
        }
    }

    #[test]
    fn same_node_is_infinite_bandwidth() {
        let (topo, net) = network();
        assert!(net
            .available_bandwidth_bps(&topo, NodeId(0), NodeId(0))
            .is_infinite());
    }

    #[test]
    fn cross_switch_bandwidth_not_above_same_switch_on_average() {
        let (topo, mut net) = network();
        let mut same = 0.0;
        let mut cross = 0.0;
        let n = 500;
        for _ in 0..n {
            net.step(30.0);
            same += net.available_bandwidth_bps(&topo, NodeId(0), NodeId(1));
            cross += net.available_bandwidth_bps(&topo, NodeId(0), NodeId(2));
        }
        assert!(
            cross / n as f64 <= same / n as f64,
            "cross {} vs same {}",
            cross / n as f64,
            same / n as f64
        );
    }

    #[test]
    fn job_traffic_reduces_residual() {
        let (topo, mut net) = network();
        let l = topo.access_link(NodeId(0));
        let before = net.residual_bps(&topo, l);
        net.add_job_util(l, 0.5);
        let after = net.residual_bps(&topo, l);
        assert!(after < before);
        net.add_job_util(l, -0.5);
        assert!((net.residual_bps(&topo, l) - before).abs() < 1e-6);
    }

    #[test]
    fn job_util_never_negative() {
        let (topo, mut net) = network();
        let l = topo.access_link(NodeId(0));
        net.add_job_util(l, -5.0);
        assert!(net.total_util(l) >= 0.0);
        assert!(net.residual_bps(&topo, l) <= topo.link(l).params.capacity_bps);
    }

    #[test]
    fn latency_grows_with_congestion() {
        let (topo, mut net) = network();
        let quiet = net.latency_s(&topo, NodeId(0), NodeId(2));
        for &l in topo.route(NodeId(0), NodeId(2)).iter() {
            net.add_job_util(l, 0.9);
        }
        let busy = net.latency_s(&topo, NodeId(0), NodeId(2));
        assert!(busy > quiet * 2.0, "quiet {quiet}, busy {busy}");
    }

    #[test]
    fn peak_bandwidth_is_capacity() {
        let (topo, net) = network();
        assert_eq!(net.peak_bandwidth_bps(&topo, NodeId(0), NodeId(2)), 1e9);
    }

    #[test]
    fn heavy_flows_eventually_appear_on_trunks() {
        let (topo, mut net) = network();
        // find a trunk link
        let trunk = topo
            .links()
            .iter()
            .find(|l| {
                matches!(
                    (l.a, l.b),
                    (
                        nlrm_topology::graph::Endpoint::Switch(_),
                        nlrm_topology::graph::Endpoint::Switch(_)
                    )
                )
            })
            .unwrap()
            .id;
        let mut peak: f64 = 0.0;
        for _ in 0..10_000 {
            net.step(10.0);
            peak = peak.max(net.background_util(trunk));
        }
        // heavy flow adds ~0.45 util; with OU base this should exceed 0.5 at some point
        assert!(peak > 0.5, "trunk never got busy, peak {peak}");
    }
}
