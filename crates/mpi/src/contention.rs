//! Max-min fair bandwidth sharing for concurrent flows.
//!
//! When several of a job's messages cross the same link — or share a link
//! with background traffic — they split its residual capacity. We use the
//! classic progressive-filling algorithm: repeatedly find the most
//! constrained link, freeze its flows at the fair share, remove their
//! demand, and continue. This is what makes a cross-switch allocation pay
//! for the shared trunk, the effect at the heart of the paper's Fig. 7
//! analysis.

use nlrm_cluster::ClusterSim;
use nlrm_topology::{LinkId, NodeId};
use std::collections::HashMap;

/// One flow to be rated: a node-to-node transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload in bytes.
    pub bytes: f64,
}

/// The computed rate for a flow.
#[derive(Debug, Clone, PartialEq)]
pub struct RatedFlow {
    /// The flow.
    pub flow: Flow,
    /// Assigned rate in bits per second (∞ for intra-node flows).
    pub rate_bps: f64,
    /// Current path latency in seconds.
    pub latency_s: f64,
    /// Links the flow crosses.
    pub links: Vec<LinkId>,
}

impl RatedFlow {
    /// Completion time of the flow at its assigned rate.
    pub fn duration_s(&self) -> f64 {
        if self.rate_bps.is_infinite() {
            // intra-node copy: model a 50 GB/s memory pipe + 1 µs launch
            return 1e-6 + self.flow.bytes / 50e9;
        }
        self.latency_s + self.flow.bytes * 8.0 / self.rate_bps.max(1.0)
    }
}

/// Assign max-min fair rates to `flows` given the cluster's current
/// residual link capacities (background + other jobs already subtracted).
pub fn fair_share_rates(cluster: &ClusterSim, flows: &[Flow]) -> Vec<RatedFlow> {
    let topo = cluster.topology();
    // resolve paths
    let mut rated: Vec<RatedFlow> = flows
        .iter()
        .map(|f| {
            let links = topo.route(f.src, f.dst).to_vec();
            let latency_s = if links.is_empty() {
                0.0
            } else {
                cluster.latency_s(f.src, f.dst)
            };
            RatedFlow {
                flow: f.clone(),
                rate_bps: 0.0,
                latency_s,
                links,
            }
        })
        .collect();

    // residual capacity per involved link; keep a tiny floor so a fully
    // saturated link still trickles (TCP never fully starves)
    let mut capacity: HashMap<LinkId, f64> = HashMap::new();
    for rf in &rated {
        for &l in &rf.links {
            capacity
                .entry(l)
                .or_insert_with(|| cluster.link_residual_bps(l).max(1e6));
        }
    }

    let mut active: Vec<usize> = (0..rated.len())
        .filter(|&i| !rated[i].links.is_empty())
        .collect();
    // intra-node flows are infinitely fast as far as the network is concerned
    for rf in rated.iter_mut() {
        if rf.links.is_empty() {
            rf.rate_bps = f64::INFINITY;
        }
    }

    // progressive filling
    while !active.is_empty() {
        // per-link active flow counts
        let mut count: HashMap<LinkId, usize> = HashMap::new();
        for &i in &active {
            for &l in &rated[i].links {
                *count.entry(l).or_insert(0) += 1;
            }
        }
        // bottleneck link: smallest fair share
        let (&bottleneck, _) = count
            .iter()
            .min_by(|(la, &ca), (lb, &cb)| {
                let sa = capacity[la] / ca as f64;
                let sb = capacity[lb] / cb as f64;
                sa.total_cmp(&sb).then(la.cmp(lb))
            })
            .expect("active flows imply counted links");
        let share = capacity[&bottleneck] / count[&bottleneck] as f64;
        // freeze flows crossing the bottleneck
        let (frozen, rest): (Vec<usize>, Vec<usize>) = active
            .into_iter()
            .partition(|&i| rated[i].links.contains(&bottleneck));
        for &i in &frozen {
            rated[i].rate_bps = share;
            for &l in &rated[i].links {
                let c = capacity.get_mut(&l).expect("seen link");
                *c = (*c - share).max(0.0);
            }
        }
        active = rest;
    }
    rated
}

/// Completion time of a set of concurrent flows: the slowest flow's
/// duration (rates held constant for the round — a conservative model).
pub fn round_duration_s(rated: &[RatedFlow]) -> f64 {
    rated.iter().map(|r| r.duration_s()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster_with_profile;
    use nlrm_cluster::ClusterProfile;
    use nlrm_sim_core::time::Duration;

    fn quiet_cluster(n: usize) -> ClusterSim {
        let mut c = small_cluster_with_profile(n, ClusterProfile::quiet(), 3);
        c.advance(Duration::from_secs(30));
        c
    }

    #[test]
    fn single_flow_gets_full_residual() {
        let cluster = quiet_cluster(4);
        let flows = vec![Flow {
            src: NodeId(0),
            dst: NodeId(1),
            bytes: 1e6,
        }];
        let rated = fair_share_rates(&cluster, &flows);
        // quiet profile: ~1-2% background, so rate close to 1 Gb/s
        assert!(rated[0].rate_bps > 0.9e9, "rate {}", rated[0].rate_bps);
    }

    #[test]
    fn flows_sharing_a_link_split_it() {
        let cluster = quiet_cluster(4);
        // two flows out of node 0: share its access link
        let flows = vec![
            Flow {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1e6,
            },
            Flow {
                src: NodeId(0),
                dst: NodeId(2),
                bytes: 1e6,
            },
        ];
        let rated = fair_share_rates(&cluster, &flows);
        let total: f64 = rated.iter().map(|r| r.rate_bps).sum();
        let residual = cluster.link_residual_bps(cluster.topology().access_link(NodeId(0)));
        assert!(
            total <= residual * 1.001,
            "total {total} > residual {residual}"
        );
        assert!((rated[0].rate_bps - rated[1].rate_bps).abs() < 1.0);
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let cluster = quiet_cluster(6);
        let flows = vec![
            Flow {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1e6,
            },
            Flow {
                src: NodeId(2),
                dst: NodeId(3),
                bytes: 1e6,
            },
        ];
        let rated = fair_share_rates(&cluster, &flows);
        assert!(rated[0].rate_bps > 0.9e9);
        assert!(rated[1].rate_bps > 0.9e9);
    }

    #[test]
    fn intra_node_flow_is_network_free() {
        let cluster = quiet_cluster(3);
        let flows = vec![Flow {
            src: NodeId(1),
            dst: NodeId(1),
            bytes: 1e9,
        }];
        let rated = fair_share_rates(&cluster, &flows);
        assert!(rated[0].rate_bps.is_infinite());
        // 1 GB over a 50 GB/s pipe = 20 ms
        assert!((rated[0].duration_s() - 0.02).abs() < 0.001);
    }

    #[test]
    fn conservation_no_link_oversubscribed() {
        let cluster = quiet_cluster(8);
        // all-to-one incast on node 0
        let flows: Vec<Flow> = (1..8)
            .map(|i| Flow {
                src: NodeId(i),
                dst: NodeId(0),
                bytes: 1e6,
            })
            .collect();
        let rated = fair_share_rates(&cluster, &flows);
        let mut per_link: HashMap<LinkId, f64> = HashMap::new();
        for r in &rated {
            for &l in &r.links {
                *per_link.entry(l).or_insert(0.0) += r.rate_bps;
            }
        }
        for (l, used) in per_link {
            let cap = cluster.link_residual_bps(l).max(1e6);
            assert!(used <= cap * 1.001, "link {l:?} over: {used} > {cap}");
        }
    }

    #[test]
    fn round_duration_is_slowest_flow() {
        let cluster = quiet_cluster(4);
        let flows = vec![
            Flow {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1e3,
            },
            Flow {
                src: NodeId(2),
                dst: NodeId(3),
                bytes: 1e8,
            },
        ];
        let rated = fair_share_rates(&cluster, &flows);
        let d = round_duration_s(&rated);
        assert!((d - rated[1].duration_s()).abs() < 1e-12);
        assert!(d > 0.5, "100 MB on ~1 Gb/s should take ~0.8 s, got {d}");
    }
}
