//! The cluster simulator: nodes + network under one virtual clock.

use crate::network::{NetworkSim, PathState};
use crate::node::{NodeDynamics, NodeSpec, NodeState};
use crate::profiles::ClusterProfile;
use nlrm_sim_core::process::standard_normal;
use nlrm_sim_core::rng::RngFactory;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::{LinkId, NodeId, Topology};
use rand::rngs::StdRng;

/// A simulated shared cluster.
///
/// Owns the topology, per-node background dynamics, and per-link background
/// traffic, and advances them all in fixed-resolution virtual time. The
/// monitoring daemons and the MPI executor both talk to this type: daemons
/// through the noisy `measure_*` API (they see what a real probe would see),
/// the executor through the exact residual-capacity API (the network itself
/// is never fooled by measurement noise).
///
/// `ClusterSim` is `Clone`, and a clone replays *identically*: the
/// experiment harness clones one cluster per allocation policy so that every
/// policy faces exactly the same future — the simulation equivalent of the
/// paper's "we ran all four approaches in sequence … repeated 5 times".
#[derive(Debug, Clone)]
pub struct ClusterSim {
    topo: Topology,
    specs: Vec<NodeSpec>,
    dynamics: Vec<NodeDynamics>,
    states: Vec<NodeState>,
    network: NetworkSim,
    /// Runnable processes injected by simulated jobs, per node.
    job_load: Vec<f64>,
    clock: SimTime,
    step: Duration,
    measure_rng: StdRng,
    measurement_noise: f64,
    /// Scheduled up/down transitions: `(time, node, up)`, kept sorted.
    failures: Vec<(SimTime, NodeId, bool)>,
}

impl ClusterSim {
    /// Build a cluster over `topo` with the given node hardware and
    /// background-activity profile. All randomness derives from `seed`.
    pub fn new(topo: Topology, specs: Vec<NodeSpec>, profile: ClusterProfile, seed: u64) -> Self {
        assert_eq!(
            specs.len(),
            topo.num_nodes(),
            "one spec per topology node required"
        );
        let factory = RngFactory::new(seed).child("cluster");
        let mut param_rng = factory.named("node-params");
        let dynamics: Vec<NodeDynamics> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let params = profile.sample_node_params(&mut param_rng);
                NodeDynamics::new(params, spec.cores, factory.stream("node-dyn", i as u64))
            })
            .collect();
        let network = NetworkSim::new(&topo, &profile, |i| factory.stream("link", i as u64));
        let n = specs.len();
        ClusterSim {
            topo,
            specs,
            dynamics,
            states: vec![NodeState::idle(); n],
            network,
            job_load: vec![0.0; n],
            clock: SimTime::ZERO,
            step: Duration::from_secs(5),
            measure_rng: factory.named("measurement"),
            measurement_noise: profile.measurement_noise,
            failures: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Static spec of a node.
    pub fn spec(&self, node: NodeId) -> &NodeSpec {
        &self.specs[node.index()]
    }

    /// All specs, indexed by node.
    pub fn specs(&self) -> &[NodeSpec] {
        &self.specs
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.specs.len()
    }

    /// Schedule a node failure (down) at time `t`.
    pub fn schedule_failure(&mut self, t: SimTime, node: NodeId) {
        self.failures.push((t, node, false));
        self.failures.sort_by_key(|&(t, n, _)| (t, n));
    }

    /// Schedule a node recovery (up) at time `t`.
    pub fn schedule_recovery(&mut self, t: SimTime, node: NodeId) {
        self.failures.push((t, node, true));
        self.failures.sort_by_key(|&(t, n, _)| (t, n));
    }

    /// Immediately mark a node up or down.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.states[node.index()].up = up;
    }

    /// Advance virtual time to `target`, stepping all dynamics.
    pub fn advance_to(&mut self, target: SimTime) {
        while self.clock < target {
            let next = self.clock + self.step;
            let dt = self.step.as_secs_f64();
            // apply failures due in (clock, next]
            while let Some(&(t, node, up)) = self.failures.first() {
                if t <= next {
                    self.states[node.index()].up = up;
                    self.failures.remove(0);
                } else {
                    break;
                }
            }
            for i in 0..self.dynamics.len() {
                let was_up = self.states[i].up;
                let mut s = self.dynamics[i].step(dt, next);
                s.up = was_up;
                // the node's own NIC traffic congests its access link: this
                // is why the paper's "node data flow rate" attribute matters
                let node = NodeId(i as u32);
                let access = self.topo.access_link(node);
                let cap_mbps = self.topo.link(access).params.capacity_bps / 1e6;
                self.network
                    .set_node_flow_util(access, s.flow_rate_mbps / cap_mbps);
                self.states[i] = s;
            }
            self.network.step(dt);
            self.clock = next;
        }
    }

    /// Advance by a duration.
    pub fn advance(&mut self, d: Duration) {
        self.advance_to(self.clock + d);
    }

    /// Whether the node currently answers pings.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.states[node.index()].up
    }

    /// The node's current state as the OS would report it: background
    /// activity plus any job-injected load.
    pub fn node_state(&self, node: NodeId) -> NodeState {
        let i = node.index();
        let mut s = self.states[i];
        let cores = self.specs[i].cores as f64;
        s.cpu_load += self.job_load[i];
        s.cpu_util = (s.cpu_util + self.job_load[i] / cores).clamp(0.0, 1.0);
        s
    }

    /// Job-load injection: `procs` additional runnable processes on `node`.
    pub fn add_job_load(&mut self, node: NodeId, procs: f64) {
        let l = &mut self.job_load[node.index()];
        *l = (*l + procs).max(0.0);
    }

    /// Job traffic injection on a link (utilization fraction delta).
    pub fn add_job_util(&mut self, link: LinkId, delta: f64) {
        self.network.add_job_util(link, delta);
    }

    /// Exact residual capacity of a link in bits/s (used by the MPI
    /// executor's contention solver — no measurement noise).
    pub fn link_residual_bps(&self, link: LinkId) -> f64 {
        self.network.residual_bps(&self.topo, link)
    }

    /// Exact current latency between nodes, seconds.
    pub fn latency_s(&self, u: NodeId, v: NodeId) -> f64 {
        self.network.path(&self.topo, u, v).latency_s
    }

    /// Exact available bandwidth between nodes, bits/s.
    pub fn available_bandwidth_bps(&self, u: NodeId, v: NodeId) -> f64 {
        self.network.path(&self.topo, u, v).avail_bps
    }

    /// Peak (zero-load) bandwidth between nodes, bits/s.
    pub fn peak_bandwidth_bps(&self, u: NodeId, v: NodeId) -> f64 {
        self.network.path(&self.topo, u, v).peak_bps
    }

    /// Start probing the pair `u`–`v` the way the monitoring daemons do:
    /// the path is walked once, here, and each measurement read from the
    /// probe draws its own noise, in the order it is read.
    pub fn probe(&mut self, u: NodeId, v: NodeId) -> PathProbe<'_> {
        PathProbe {
            path: self.network.path(&self.topo, u, v),
            rng: &mut self.measure_rng,
            noise: self.measurement_noise,
        }
    }

    /// Probe the P2P bandwidth like the paper's `BandwidthD` (see
    /// [`PathProbe::bandwidth_bps`]).
    pub fn measure_bandwidth_bps(&mut self, u: NodeId, v: NodeId) -> f64 {
        self.probe(u, v).bandwidth_bps()
    }

    /// Probe P2P latency like `LatencyD` (see [`PathProbe::latency_s`]).
    pub fn measure_latency_s(&mut self, u: NodeId, v: NodeId) -> f64 {
        self.probe(u, v).latency_s()
    }

    /// Raw access to the network layer (ablations and tests).
    pub fn network(&self) -> &NetworkSim {
        &self.network
    }

    /// Force a node's instantaneous state (trace replay). The override
    /// lasts until the next dynamics step; replay drivers re-apply their
    /// frame after every advance.
    pub fn override_node_state(&mut self, node: NodeId, state: NodeState) {
        self.states[node.index()] = state;
    }

    /// Force a link's background utilization (trace replay); same lifetime
    /// as [`override_node_state`](Self::override_node_state).
    pub fn override_link_background(&mut self, link: LinkId, util: f64) {
        self.network.override_background(link, util);
    }
}

/// One probe of a node pair (see [`ClusterSim::probe`]): the exact path
/// state, blurred by the cluster's measurement noise as it is read.
#[derive(Debug)]
pub struct PathProbe<'a> {
    path: PathState,
    rng: &'a mut StdRng,
    noise: f64,
}

impl PathProbe<'_> {
    fn noise_factor(&mut self) -> f64 {
        // multiplicative lognormal noise ≈ what a short probe measures
        (self.noise * standard_normal(self.rng)).exp()
    }

    /// A ping-pong latency probe: truth × noise. Draws one noise factor.
    pub fn latency_s(&mut self) -> f64 {
        self.path.latency_s * self.noise_factor()
    }

    /// A short MPI transfer: the true available bandwidth blurred by
    /// measurement noise, clamped to the physical capacity. Draws one noise
    /// factor, unless the pair is one node (+∞, no network).
    pub fn bandwidth_bps(&mut self) -> f64 {
        let truth = self.path.avail_bps;
        if truth.is_infinite() {
            return truth;
        }
        (truth * self.noise_factor()).min(self.path.peak_bps)
    }

    /// Peak (zero-load) bandwidth: exact, draws nothing.
    pub fn peak_bps(&self) -> f64 {
        self.path.peak_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iitk;

    fn small() -> ClusterSim {
        iitk::small_cluster(8, 42)
    }

    #[test]
    fn advance_moves_clock_in_steps() {
        let mut c = small();
        c.advance_to(SimTime::from_secs(17));
        // snapped up to a multiple of the 5 s resolution
        assert_eq!(c.now(), SimTime::from_secs(20));
        c.advance(Duration::from_secs(10));
        assert_eq!(c.now(), SimTime::from_secs(30));
    }

    #[test]
    fn clone_replays_identically() {
        let mut a = small();
        let mut b = a.clone();
        a.advance_to(SimTime::from_secs(3600));
        b.advance_to(SimTime::from_secs(3600));
        for n in a.topology().node_ids().collect::<Vec<_>>() {
            assert_eq!(a.node_state(n), b.node_state(n));
        }
        assert_eq!(
            a.available_bandwidth_bps(NodeId(0), NodeId(5)),
            b.available_bandwidth_bps(NodeId(0), NodeId(5))
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = iitk::small_cluster(8, 1);
        let mut b = iitk::small_cluster(8, 2);
        a.advance_to(SimTime::from_secs(3600));
        b.advance_to(SimTime::from_secs(3600));
        let sa: f64 = (0..8).map(|i| a.node_state(NodeId(i)).cpu_load).sum();
        let sb: f64 = (0..8).map(|i| b.node_state(NodeId(i)).cpu_load).sum();
        assert_ne!(sa, sb);
    }

    #[test]
    fn job_load_shows_up_in_state() {
        let mut c = small();
        c.advance_to(SimTime::from_secs(60));
        let before = c.node_state(NodeId(0));
        c.add_job_load(NodeId(0), 4.0);
        let after = c.node_state(NodeId(0));
        assert!((after.cpu_load - before.cpu_load - 4.0).abs() < 1e-9);
        assert!(after.cpu_util >= before.cpu_util);
        c.add_job_load(NodeId(0), -4.0);
        let restored = c.node_state(NodeId(0));
        assert!((restored.cpu_load - before.cpu_load).abs() < 1e-9);
    }

    #[test]
    fn failures_apply_at_scheduled_time() {
        let mut c = small();
        c.schedule_failure(SimTime::from_secs(100), NodeId(3));
        c.schedule_recovery(SimTime::from_secs(200), NodeId(3));
        c.advance_to(SimTime::from_secs(50));
        assert!(c.is_up(NodeId(3)));
        c.advance_to(SimTime::from_secs(150));
        assert!(!c.is_up(NodeId(3)));
        c.advance_to(SimTime::from_secs(250));
        assert!(c.is_up(NodeId(3)));
    }

    #[test]
    fn measurement_noise_is_bounded_and_unbiased() {
        let mut c = small();
        c.advance_to(SimTime::from_secs(300));
        let truth = c.available_bandwidth_bps(NodeId(0), NodeId(4));
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| c.measure_bandwidth_bps(NodeId(0), NodeId(4)))
            .sum::<f64>()
            / n as f64;
        // lognormal with small sigma: mean within a few percent of truth
        assert!((mean / truth - 1.0).abs() < 0.05, "ratio {}", mean / truth);
        // never above physical capacity
        for _ in 0..200 {
            assert!(c.measure_bandwidth_bps(NodeId(0), NodeId(4)) <= 1e9 + 1.0);
        }
    }

    #[test]
    fn job_traffic_depresses_measured_bandwidth() {
        let mut c = small();
        c.advance_to(SimTime::from_secs(60));
        let before = c.available_bandwidth_bps(NodeId(0), NodeId(1));
        for &l in c.topology().route(NodeId(0), NodeId(1)).iter() {
            c.add_job_util(l, 0.6);
        }
        let after = c.available_bandwidth_bps(NodeId(0), NodeId(1));
        assert!(after < before * 0.7, "before {before}, after {after}");
    }
}
