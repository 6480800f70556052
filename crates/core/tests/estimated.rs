//! Acceptance tests for the estimated network-load representation: the
//! bound-pruned allocator over an [`EstimatedNl`] must never prune the
//! candidate the exact matrix would pick, and the end-to-end sharded
//! monitoring path (per-shard sweeps + landmark estimation) must land
//! within a few percent of the exact-matrix allocation cost.

use nlrm_core::candidate::generate_all_candidates;
use nlrm_core::select::group_cost;
use nlrm_core::{allocate_pruned, EstimatedNl, Loads, NlRep, StalenessPolicy, TieredNl};
use nlrm_core::{ComputeWeights, NetworkWeights};
use nlrm_monitor::daemons::DaemonConfig;
use nlrm_monitor::sample::LatencyStat;
use nlrm_monitor::{MonitorRuntime, MonitorTopo, ShardConfig, SymMatrix};
use nlrm_sim_core::time::Duration;
use nlrm_topology::{NodeId, SwitchId, SwitchIndex};

const NODES: u32 = 12;
const PER_SWITCH: u32 = 4;

fn switch_index() -> SwitchIndex {
    let assignment: Vec<SwitchId> = (0..NODES).map(|n| SwitchId(n / PER_SWITCH)).collect();
    SwitchIndex::from_assignment(assignment, (NODES / PER_SWITCH) as usize)
}

/// Same synthetic universe as the scaling equivalence test: tree-model
/// cross pairs, varied intra pairs and CL, one saturated node.
fn dense_loads() -> Loads {
    let mut nl = SymMatrix::new(NODES as usize, 0.0);
    for u in 0..NODES {
        for v in (u + 1)..NODES {
            let (su, sv) = (u / PER_SWITCH, v / PER_SWITCH);
            let val = if su == sv {
                0.05 + (0.013 * (u * 31 + v * 7) as f64) % 0.4
            } else {
                0.25 * (1 + su + sv) as f64
            };
            nl.set(NodeId(u), NodeId(v), val);
        }
    }
    let usable: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let cl: Vec<f64> = (0..NODES)
        .map(|n| 0.1 + 0.07 * ((n * 13) % 11) as f64)
        .collect();
    let mut pc: Vec<u32> = (0..NODES).map(|n| 2 + (n * 5) % 4).collect();
    pc[7] = 0;
    Loads::from_parts(usable, cl, nl, pc)
}

/// Wrap the dense universe in an estimated representation whose point
/// values match the tiered collapse and whose bands are widened by
/// `margin` on each side (so the true inter values always sit inside).
fn estimated_loads(margin: f64) -> Loads {
    let dense = dense_loads();
    let index = switch_index();
    let point = match &*dense.nl {
        NlRep::Dense(d) => TieredNl::from_dense(d, &dense.usable, &index),
        _ => unreachable!(),
    };
    let s = index.num_switches();
    let mut lo = vec![0.0f64; s * s];
    let mut hi = vec![0.0f64; s * s];
    for su in 0..s {
        for sv in 0..s {
            if su == sv {
                continue;
            }
            // reconstruct the uniform cross value the synthetic model uses
            let p = 0.25 * (1 + su + sv) as f64;
            lo[su * s + sv] = p * (1.0 - margin);
            hi[su * s + sv] = p * (1.0 + margin);
        }
    }
    Loads::from_parts(
        dense.usable.clone(),
        dense.cl.clone(),
        NlRep::Estimated(EstimatedNl::new(point, lo, hi)),
        dense.pc.clone(),
    )
}

/// The exhaustive winner under (group_cost, start id) order.
fn exhaustive_winner(loads: &Loads, n: u32, alpha: f64, beta: f64) -> (f64, NodeId) {
    let cands = generate_all_candidates(loads, n, alpha, beta);
    assert!(!cands.is_empty());
    cands
        .iter()
        .map(|c| (group_cost(loads, &c.nodes, alpha, beta), c.start))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .unwrap()
}

/// Pruning over lower-bound estimates must return exactly the winner an
/// exhaustive scan of the same estimated universe finds — for any band
/// width. A lower bound can only under-promise, never hide the optimum.
#[test]
fn pruned_over_estimates_matches_exhaustive_over_estimates() {
    for margin in [0.0, 0.1, 0.5, 2.0] {
        let est = estimated_loads(margin);
        for n in [1u32, 5, 12, 24] {
            for &(alpha, beta) in &[(0.3, 0.7), (0.5, 0.5), (0.0, 1.0)] {
                let want = exhaustive_winner(&est, n, alpha, beta);
                let got = allocate_pruned(&est, n, alpha, beta).unwrap();
                assert_eq!(
                    (got.cost, got.winner.start),
                    want,
                    "margin={margin} n={n} α={alpha}"
                );
            }
        }
    }
}

/// With the tree model exact (the synthetic cross pairs are uniform per
/// switch pair) the estimated representation's winner is the *same node
/// group* the exact dense matrix picks: the estimate never prunes the
/// exact-matrix winner.
#[test]
fn estimated_winner_is_the_exact_matrix_winner_on_tree_models() {
    let dense = dense_loads();
    for margin in [0.0, 0.25, 1.0] {
        let est = estimated_loads(margin);
        for n in [2u32, 8, 16] {
            for &(alpha, beta) in &[(0.3, 0.7), (0.5, 0.5)] {
                let exact = allocate_pruned(&dense, n, alpha, beta).unwrap();
                let estw = allocate_pruned(&est, n, alpha, beta).unwrap();
                assert_eq!(
                    estw.winner.start, exact.winner.start,
                    "margin={margin} n={n} α={alpha}"
                );
                assert_eq!(estw.winner.nodes, exact.winner.nodes);
            }
        }
    }
}

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
        let inter = rt.inter_estimate().expect("estimate published");
        let est = Loads::derive_sharded(&snap, &inter, &cw, &nw, Some(4), &policy).unwrap();
        assert!(
            matches!(*est.nl, NlRep::Estimated(_)),
            "derive_sharded must produce the estimated representation"
        );
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

/// `derive_sharded` bounds are sound: every usable pair's point NL sits
/// inside its `[lo, hi]` band.
#[test]
fn derive_sharded_bounds_contain_point_values() {
    let mut cluster = nlrm_cluster::iitk::iitk_cluster(7);
    let idx = cluster.topology().switch_index();
    let mut rt = MonitorRuntime::with_topo(
        &cluster,
        DaemonConfig::default(),
        MonitorTopo::Sharded(ShardConfig::new(idx.clone())),
    );
    let snap = rt
        .warm_snapshot(&mut cluster, Duration::from_secs(360))
        .unwrap();
    let inter = rt.inter_estimate().unwrap();
    let loads = Loads::derive_sharded(
        &snap,
        &inter,
        &ComputeWeights::paper_default(),
        &NetworkWeights::paper_default(),
        Some(4),
        &StalenessPolicy::off(),
    )
    .unwrap();
    let NlRep::Estimated(e) = &*loads.nl else {
        panic!("expected estimated representation");
    };
    for (i, &u) in loads.usable.iter().enumerate() {
        for &v in &loads.usable[i + 1..] {
            let p = loads.nl_between(u, v);
            let (lo, hi) = e.bounds(u, v);
            assert!(
                lo <= p + 1e-12 && p <= hi + 1e-12,
                "pair ({u},{v}): point {p} outside [{lo}, {hi}]"
            );
            assert!(lo >= 0.0);
        }
    }
}
