//! A sharded snapshot keeps the monitor's block shape, and `Loads::derive`
//! turns it straight into a `TieredNl`. These tests hold that path to the
//! dense reference: the same snapshot materialised into V×V matrices
//! through its accessors and derived the dense way. Every usable set, CL,
//! pc and pair NL must match bit for bit, and so must every `place()`
//! winner and candidate cost, on full and restricted views. The pruned
//! allocator must pick the exhaustive winner on block-derived loads.
//! Degenerate monitor output must match the reference too, or fail with
//! the same typed error, and never panic.

use nlrm_cluster::iitk::campus;
use nlrm_core::candidate::generate_all_candidates;
use nlrm_core::policies::place;
use nlrm_core::select::group_cost;
use nlrm_core::{allocate_pruned, AllocError, AllocationRequest, Loads, StalenessPolicy};
use nlrm_monitor::codec::{decode, encode, MonitorRecord};
use nlrm_monitor::daemons::DaemonConfig;
use nlrm_monitor::store::paths;
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime, MonitorTopo, PairSource, ShardConfig};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;

/// A warmed sharded monitor over `campus(clusters, per, seed)`.
fn sharded(clusters: usize, per: usize, seed: u64) -> (MonitorRuntime, ClusterSnapshot) {
    let mut cluster = campus(clusters, per, seed);
    let idx = cluster.topology().switch_index();
    let mut rt = MonitorRuntime::with_topo(
        &cluster,
        DaemonConfig::default(),
        MonitorTopo::Sharded(ShardConfig::new(idx)),
    );
    let snap = rt
        .warm_snapshot(&mut cluster, Duration::from_secs(360))
        .expect("sharded snapshot");
    (rt, snap)
}

fn reassemble(rt: &MonitorRuntime, snap: &ClusterSnapshot) -> ClusterSnapshot {
    ClusterSnapshot::assemble_sharded(rt.store(), snap.num_nodes(), snap.taken_at)
        .expect("reassembled snapshot")
}

fn derive(
    snap: &ClusterSnapshot,
    req: &AllocationRequest,
    policy: &StalenessPolicy,
) -> Result<Loads, AllocError> {
    Loads::derive_with_policy(
        snap,
        &req.compute_weights,
        &req.network_weights,
        req.ppn,
        policy,
    )
}

/// The reference: the same snapshot with its pairs materialised densely.
fn dense_copy(snap: &ClusterSnapshot) -> ClusterSnapshot {
    let mut dense = snap.clone();
    dense.densify();
    dense
}

fn assert_same_loads(blocks: &Loads, dense: &Loads, what: &str) {
    assert!(
        blocks.nl.num_switches() > 1,
        "{what}: blocks derive to one bucket per shard"
    );
    assert_eq!(
        dense.nl.num_switches(),
        1,
        "{what}: the dense reference derives to one switch"
    );
    assert_eq!(blocks.usable, dense.usable, "{what}: usable");
    assert_eq!(blocks.pc, dense.pc, "{what}: pc");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&blocks.cl), bits(&dense.cl), "{what}: cl");
    for (i, &u) in dense.usable.iter().enumerate() {
        for &v in &dense.usable[i + 1..] {
            assert_eq!(
                blocks.nl_between(u, v).to_bits(),
                dense.nl_between(u, v).to_bits(),
                "{what}: nl({u},{v})"
            );
        }
    }
}

/// Same winner group and the same candidate costs, bit for bit.
fn assert_same_places(blocks: &Loads, dense: &Loads, req: &AllocationRequest, what: &str) {
    let a = place(blocks, req, None, "blocks");
    let b = place(dense, req, None, "dense");
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.nodes, b.nodes, "{what}: winner");
            let costs = |x: &nlrm_core::Allocation| {
                x.diagnostics
                    .candidate_costs
                    .iter()
                    .map(|&(n, c)| (n, c.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(costs(&a), costs(&b), "{what}: candidate costs");
            assert_eq!(
                a.diagnostics.total_cost.to_bits(),
                b.diagnostics.total_cost.to_bits()
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: error"),
        (a, b) => panic!("{what}: blocks {:?} vs dense {:?}", a.err(), b.err()),
    }
}

/// The block derivation of `snap` against the dense reference, under
/// `policy`; a failing reference must fail the same way.
fn check(snap: &ClusterSnapshot, policy: &StalenessPolicy, procs: &[u32], what: &str) {
    assert!(matches!(snap.pairs, PairSource::Blocks(_)));
    let dense_snap = dense_copy(snap);
    let mixes = [(0.3, 0.7), (0.5, 0.5), (0.7, 0.3)];
    for &(alpha, beta) in &mixes {
        for &n in procs {
            let req = AllocationRequest::new(n, Some(4), alpha, beta);
            let (blocks, dense) = match (
                derive(snap, &req, policy),
                derive(&dense_snap, &req, policy),
            ) {
                (Ok(b), Ok(d)) => (b, d),
                (Err(b), Err(d)) => {
                    assert_eq!(b, d, "{what}: derive error");
                    continue;
                }
                (b, d) => panic!("{what}: blocks {:?} vs dense {:?}", b.err(), d.err()),
            };
            assert_same_loads(&blocks, &dense, what);
            let what = format!("{what} n={n} α={alpha}");
            assert_same_places(&blocks, &dense, &req, &what);
            // restricted views, as the broker builds them: drop every
            // third node, halve the capacity of every fifth
            let cap = |node: NodeId, pc: u32| match node.0 {
                i if i % 3 == 0 => 0,
                i if i % 5 == 0 => pc / 2,
                _ => pc,
            };
            assert_same_places(
                &blocks.restrict(cap),
                &dense.restrict(cap),
                &req,
                &format!("{what} view"),
            );
        }
    }
}

#[test]
fn small_campus_blocks_match_the_dense_reference() {
    let (_, snap) = sharded(3, 8, 5);
    check(
        &snap,
        &StalenessPolicy::default(),
        &[8, 16, 32, 64],
        "campus(3,8,5)",
    );
}

#[test]
fn campus_480_blocks_match_the_dense_reference() {
    let (_, snap) = sharded(10, 48, 1);
    check(
        &snap,
        &StalenessPolicy::default(),
        &[8, 16, 32, 64],
        "campus(10,48,1)",
    );
}

#[test]
fn pruned_matches_exhaustive_on_block_derived_loads() {
    for (clusters, per, seed) in [(3, 8, 5), (10, 48, 1)] {
        let (_, snap) = sharded(clusters, per, seed);
        for &(alpha, beta) in &[(0.3, 0.7), (0.5, 0.5), (0.7, 0.3)] {
            for n in [8u32, 16, 32, 64] {
                let what = format!("campus({clusters},{per},{seed}) n={n} α={alpha}");
                let req = AllocationRequest::new(n, Some(4), alpha, beta);
                let loads = derive(&snap, &req, &StalenessPolicy::default()).unwrap();
                assert!(loads.nl.num_switches() > 1, "{what}");
                // exhaustive winner under (group_cost, start id)
                let (cost, start) = generate_all_candidates(&loads, n, alpha, beta)
                    .iter()
                    .map(|c| (group_cost(&loads, &c.nodes, alpha, beta), c.start))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .expect("a candidate");
                let got = allocate_pruned(&loads, n, alpha, beta).expect("a winner");
                assert_eq!(
                    (got.cost.to_bits(), got.winner.start),
                    (cost.to_bits(), start),
                    "{what}"
                );
                assert_eq!(got.expanded + got.pruned, loads.usable.len(), "{what}");
            }
        }
    }
}

#[test]
fn every_block_is_one_value() {
    // a cross-shard pair reads its shard pair's one estimate cell, so the
    // tiered inter value is that block's exact value, not a mean
    let (_, snap) = sharded(4, 8, 2);
    let req = AllocationRequest::minimd(8);
    let loads = derive(&snap, &req, &StalenessPolicy::default()).unwrap();
    let t = &loads.nl;
    for (i, &u) in loads.usable.iter().enumerate() {
        for &v in &loads.usable[i + 1..] {
            let (su, sv) = (t.switch_of_node(u), t.switch_of_node(v));
            if su != sv {
                assert_eq!(
                    loads.nl_between(u, v).to_bits(),
                    t.inter_value(su, sv).to_bits()
                );
            }
        }
    }
}

#[test]
fn missing_estimate_leaves_cross_pairs_unmeasured() {
    let (rt, snap) = sharded(3, 8, 5);
    rt.store().remove(paths::INTER_ESTIMATE);
    check(
        &reassemble(&rt, &snap),
        &StalenessPolicy::default(),
        &[8, 32],
        "no estimate",
    );
}

#[test]
fn a_shard_without_a_record_leaves_its_nodes_in_no_shard() {
    let (rt, snap) = sharded(3, 8, 5);
    let PairSource::Blocks(b) = &snap.pairs else {
        unreachable!()
    };
    rt.store().remove(&paths::shard_nl(b.blocks()[1].shard));
    let snap = reassemble(&rt, &snap);
    check(
        &snap,
        &StalenessPolicy::default(),
        &[8, 32],
        "shard without a record",
    );
}

#[test]
fn a_member_beyond_the_id_space_is_ignored() {
    let (rt, snap) = sharded(3, 8, 5);
    let PairSource::Blocks(b) = &snap.pairs else {
        unreachable!()
    };
    let path = paths::shard_nl(b.blocks()[0].shard);
    let rec = rt.store().get(&path).unwrap();
    let Ok(MonitorRecord::ShardNl {
        shard,
        epoch,
        taken_at,
        mut members,
        lat_s,
        avail_bps,
        peak_bps,
        probe_bytes,
    }) = decode(&rec.data)
    else {
        panic!("shard record");
    };
    // the first member is renamed out of range: it drops out of the shard
    members[0] = NodeId(10_000);
    let rec2 = MonitorRecord::ShardNl {
        shard,
        epoch,
        taken_at,
        members,
        lat_s,
        avail_bps,
        peak_bps,
        probe_bytes,
    };
    rt.store().put(&path, rec.written_at, encode(&rec2));
    check(
        &reassemble(&rt, &snap),
        &StalenessPolicy::default(),
        &[8, 32],
        "member ≥ n",
    );
}

#[test]
fn unusable_members_between_usable_ones_match_the_reference() {
    // a stale sample and a zero-core sample inside a block split its
    // usable members' triangle rows into runs
    let (_, mut snap) = sharded(3, 8, 5);
    let PairSource::Blocks(b) = &snap.pairs else {
        unreachable!()
    };
    let members = b.blocks()[1].members.clone();
    let (stale, zero) = (members[2], members[5]);
    for info in &mut snap.nodes {
        if info.node == stale {
            info.sample.taken_at = SimTime::ZERO;
        } else if info.node == zero {
            std::sync::Arc::make_mut(&mut info.sample.spec).cores = 0;
        }
    }
    let req = AllocationRequest::minimd(8);
    let loads = derive(&snap, &req, &StalenessPolicy::default()).unwrap();
    for (u, usable) in [
        (members[1], true),
        (stale, false),
        (zero, false),
        (members[6], true),
    ] {
        assert_eq!(loads.index(u).is_some(), usable, "node {u}");
    }
    check(
        &snap,
        &StalenessPolicy::default(),
        &[8, 32],
        "gaps in a block",
    );
}

#[test]
fn a_shard_listing_members_out_of_id_order_matches_the_reference() {
    // members recorded in descending id order: every usable pair of the
    // block reads a column cell of the triangle, not a row run
    let (rt, snap) = sharded(3, 8, 5);
    let PairSource::Blocks(b) = &snap.pairs else {
        unreachable!()
    };
    let path = paths::shard_nl(b.blocks()[0].shard);
    let rec = rt.store().get(&path).unwrap();
    let Ok(MonitorRecord::ShardNl {
        shard,
        epoch,
        taken_at,
        mut members,
        lat_s,
        avail_bps,
        peak_bps,
        probe_bytes,
    }) = decode(&rec.data)
    else {
        panic!("shard record");
    };
    members.reverse();
    let rec2 = MonitorRecord::ShardNl {
        shard,
        epoch,
        taken_at,
        members,
        lat_s,
        avail_bps,
        peak_bps,
        probe_bytes,
    };
    rt.store().put(&path, rec.written_at, encode(&rec2));
    check(
        &reassemble(&rt, &snap),
        &StalenessPolicy::default(),
        &[8, 32],
        "members out of id order",
    );
}

#[test]
fn a_stale_shard_blends_exactly_like_the_reference() {
    let (rt, snap) = sharded(3, 8, 5);
    let PairSource::Blocks(b) = &snap.pairs else {
        unreachable!()
    };
    // one shard record was written long ago: its pairs (and its cross
    // pairs, through the fresher endpoint) age past max_pair_age
    let path = paths::shard_nl(b.blocks()[2].shard);
    let rec = rt.store().get(&path).unwrap();
    rt.store().put(&path, SimTime::ZERO, rec.data);
    let mut stale = reassemble(&rt, &snap);
    let policy = StalenessPolicy {
        max_pair_age: Duration::from_secs(120),
        ..StalenessPolicy::default()
    };
    check(&stale, &policy, &[8, 32], "stale shard");
    let req = AllocationRequest::minimd(8);
    let blended = derive(&stale, &req, &policy).unwrap();
    let trusted = StalenessPolicy {
        stale_blend: 0.0,
        ..policy
    };
    let unblended = derive(&stale, &req, &trusted).unwrap();
    let u = blended.usable[0];
    assert!(
        blended.usable[1..]
            .iter()
            .any(|&v| blended.nl_between(u, v) != unblended.nl_between(u, v)),
        "the stale shard blended nothing"
    );
    // every shard stale at once, blending every measured pair
    stale.taken_at += Duration::from_secs(30);
    let all_stale = StalenessPolicy {
        max_pair_age: Duration::from_secs(1),
        max_sample_age: Duration::MAX,
        stale_blend: 0.5,
    };
    check(&stale, &all_stale, &[8, 32], "all stale");
}

#[test]
fn a_single_switch_cluster_has_no_cross_cells() {
    let (_, snap) = sharded(1, 8, 3);
    let PairSource::Blocks(b) = &snap.pairs else {
        unreachable!()
    };
    assert_eq!(b.blocks().len(), 1);
    check(
        &snap,
        &StalenessPolicy::default(),
        &[4, 8, 32],
        "single switch",
    );
}

#[test]
fn no_usable_node_is_a_typed_error() {
    let (_, mut snap) = sharded(2, 4, 3);
    for info in &mut snap.nodes {
        info.live = false;
    }
    let req = AllocationRequest::minimd(4);
    assert_eq!(
        derive(&snap, &req, &StalenessPolicy::default()).unwrap_err(),
        AllocError::NoUsableNodes
    );
    check(&snap, &StalenessPolicy::default(), &[4], "nothing usable");
}
