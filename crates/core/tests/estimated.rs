//! Acceptance test for the sharded monitoring path: per-shard sweeps plus
//! landmark estimation, derived straight to a tiered NL, must pick a group
//! whose cost lands within a few percent of the exact-matrix winner's.

use nlrm_core::select::group_cost;
use nlrm_core::{allocate_pruned, Loads, StalenessPolicy};
use nlrm_core::{ComputeWeights, NetworkWeights};
use nlrm_monitor::daemons::DaemonConfig;
use nlrm_monitor::sample::LatencyStat;
use nlrm_monitor::{MonitorRuntime, MonitorTopo, ShardConfig};
use nlrm_sim_core::time::Duration;

/// Overwrite every usable pair of a (cloned) snapshot with the cluster's
/// noise-free ground truth at the same instant, yielding the exact-matrix
/// oracle the estimate is judged against.
fn oracle_snapshot(
    snap: &nlrm_monitor::ClusterSnapshot,
    cluster: &nlrm_cluster::ClusterSim,
) -> nlrm_monitor::ClusterSnapshot {
    let mut exact = snap.clone();
    let d = exact.densify();
    let usable = snap.usable_nodes();
    for (i, &u) in usable.iter().enumerate() {
        for &v in &usable[i + 1..] {
            d.latency
                .set(u, v, LatencyStat::constant(cluster.latency_s(u, v)));
            d.bandwidth_bps
                .set(u, v, cluster.available_bandwidth_bps(u, v));
            d.peak_bandwidth_bps
                .set(u, v, cluster.peak_bandwidth_bps(u, v));
        }
    }
    exact
}

/// The equivalence-scenario profile: realistic shared-lab dynamics, but
/// zero probe noise (a central monitor would suffer it identically) and
/// tame per-link heterogeneity so the tree-topology model — the regime
/// the tiered representation was already shown exact under (see
/// `equivalence.rs`) — approximately holds. What remains is exactly the
/// error the estimator itself introduces: rep-pair sampling and landmark
/// inference.
fn equivalence_profile() -> nlrm_cluster::ClusterProfile {
    let mut profile = nlrm_cluster::ClusterProfile::shared_lab();
    profile.measurement_noise = 0.0;
    profile.link_util_sigma = 0.05;
    profile.heavy_flow_rate = 0.0;
    profile
}

/// End-to-end equivalence scenarios: run the sharded monitor over a
/// cluster, then derive loads from its sampled estimate and from the
/// exact ground-truth matrix at the same instant. Winners are selected
/// per representation — sharded estimate vs the exact matrix at the same
/// tiered granularity central uses at scale — and both are costed under
/// the exact *dense* loads: the sharded winner must land within 5% of
/// the exact winner. Covers the all-direct path (iitk, 4 switches) and
/// the landmark-inference path (campus topologies, 13 and 21 switches).
#[test]
fn sharded_estimate_allocation_cost_is_within_5_percent_of_exact() {
    let policy = StalenessPolicy::off();
    let cw = ComputeWeights::paper_default();
    let nw = NetworkWeights::paper_default();

    let profile = equivalence_profile();
    let scenarios: Vec<(&str, nlrm_cluster::ClusterSim)> = vec![
        (
            "iitk",
            nlrm_cluster::iitk::iitk_cluster_with_profile(profile, 42),
        ),
        (
            "campus",
            nlrm_cluster::iitk::campus_with_profile(12, 8, profile, 42),
        ),
        (
            "campus20",
            nlrm_cluster::iitk::campus_with_profile(20, 10, profile, 7),
        ),
    ];
    for (name, mut cluster) in scenarios {
        let idx = cluster.topology().switch_index();
        let mut rt = MonitorRuntime::with_topo(
            &cluster,
            DaemonConfig::default(),
            MonitorTopo::Sharded(ShardConfig::new(idx.clone())),
        );
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        let est = Loads::derive_with_policy(&snap, &cw, &nw, Some(4), &policy).unwrap();
        let exact_snap = oracle_snapshot(&snap, &cluster);
        let exact_dense =
            Loads::derive_with_policy(&exact_snap, &cw, &nw, Some(4), &policy).unwrap();
        let exact_tiered = exact_dense.clone().into_tiered(&idx);

        for n in [8u32, 16, 32, 48] {
            for &(alpha, beta) in &[(0.3, 0.7), (0.5, 0.5), (0.7, 0.3)] {
                let exact_sel = allocate_pruned(&exact_tiered, n, alpha, beta).unwrap();
                let est_sel = allocate_pruned(&est, n, alpha, beta).unwrap();
                // cost both winners under the exact dense loads
                let exact_cost = group_cost(&exact_dense, &exact_sel.winner.nodes, alpha, beta);
                let est_cost = group_cost(&exact_dense, &est_sel.winner.nodes, alpha, beta);
                let eps = (est_cost - exact_cost) / exact_cost.max(1e-12);
                assert!(
                    eps <= 0.05,
                    "{name} n={n} α={alpha}: sharded winner costs {est_cost:.6} \
                     vs exact {exact_cost:.6} (ε={eps:.3})"
                );
            }
        }
    }
}
