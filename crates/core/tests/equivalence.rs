//! Acceptance test for the scaling paths: the heap-based, parallel, tiered,
//! and bound-pruned allocators must pick the *same winner* as the original
//! serial dense path.
//!
//! The cluster is synthetic with uniform cross-switch pair loads — the
//! tree-topology model under which the tiered representation is exact — so
//! every comparison below is exact equality, not tolerance-based.
//!
//! This file holds a single `#[test]` on purpose: it flips `NLRM_THREADS`
//! mid-test to force the parallel path (candidate generation, selection
//! and the pruned allocator's waves), and environment variables are
//! process-global.

use nlrm_core::candidate::generate_all_candidates;
use nlrm_core::select::{group_cost, select_best};
use nlrm_core::{allocate_pruned, Loads};
use nlrm_monitor::SymMatrix;
use nlrm_topology::{NodeId, SwitchId, SwitchIndex};

const NODES: u32 = 12;
const PER_SWITCH: u32 = 4;

fn switch_index() -> SwitchIndex {
    let assignment: Vec<SwitchId> = (0..NODES).map(|n| SwitchId(n / PER_SWITCH)).collect();
    SwitchIndex::from_assignment(assignment, (NODES / PER_SWITCH) as usize)
}

/// Deterministic varied loads: intra pairs differ per pair, cross pairs
/// depend only on the switch pair (the tree model), CL spread out, one
/// zero-capacity node.
fn dense_loads() -> Loads {
    let mut nl = SymMatrix::new(NODES as usize, 0.0);
    for u in 0..NODES {
        for v in (u + 1)..NODES {
            let (su, sv) = (u / PER_SWITCH, v / PER_SWITCH);
            // cross values are dyadic rationals so the tiered mean
            // aggregation reproduces them bit-exactly
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
    pc[7] = 0; // one saturated node
    Loads::from_parts(usable, cl, nl, pc)
}

fn winner_of(loads: &Loads, n: u32, alpha: f64, beta: f64) -> (NodeId, f64) {
    let cands = generate_all_candidates(loads, n, alpha, beta);
    assert!(!cands.is_empty());
    let sel = select_best(loads, &cands, alpha, beta);
    (cands[sel.best].start, sel.best_cost)
}

#[test]
fn all_scaling_paths_agree_with_serial_dense() {
    std::env::set_var("NLRM_THREADS", "1");
    let dense = dense_loads();
    let tiered = dense.clone().into_tiered(&switch_index());

    for n in [1u32, 5, 12, 30, 60] {
        for &(alpha, beta) in &[(0.3, 0.7), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)] {
            // serial dense is the reference
            let dense_cands = generate_all_candidates(&dense, n, alpha, beta);
            let reference = winner_of(&dense, n, alpha, beta);

            // tiered candidates and winner are identical (uniform cross pairs)
            let tiered_cands = generate_all_candidates(&tiered, n, alpha, beta);
            assert_eq!(
                dense_cands, tiered_cands,
                "tiered candidates n={n} α={alpha}"
            );
            assert_eq!(winner_of(&tiered, n, alpha, beta), reference);

            // the fused pruned path lands on the same start, on both reps,
            // under the same (group_cost, start id) order; each rep sums
            // its universe total N_all exactly, so costs agree bit for bit
            // across reps too
            let exhaustive_on = |loads: &Loads, cands: &[_]| {
                cands
                    .iter()
                    .map(|c: &nlrm_core::candidate::Candidate| {
                        (group_cost(loads, &c.nodes, alpha, beta), c.start)
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .unwrap()
            };
            let exhaustive_dense = exhaustive_on(&dense, &dense_cands);
            let exhaustive_tiered = exhaustive_on(&tiered, &tiered_cands);
            let pruned_dense = allocate_pruned(&dense, n, alpha, beta).unwrap();
            let pruned_tiered = allocate_pruned(&tiered, n, alpha, beta).unwrap();
            assert_eq!(
                (pruned_dense.cost, pruned_dense.winner.start),
                exhaustive_dense,
                "pruned dense n={n} α={alpha}"
            );
            assert_eq!(
                (pruned_tiered.cost, pruned_tiered.winner.start),
                exhaustive_tiered,
                "pruned tiered n={n} α={alpha}"
            );
            assert_eq!(
                pruned_dense.winner.start, pruned_tiered.winner.start,
                "reps must agree on the winning start n={n} α={alpha}"
            );
            assert_eq!(
                pruned_dense.cost.to_bits(),
                pruned_tiered.cost.to_bits(),
                "reps must agree on the winning cost n={n} α={alpha}"
            );
            assert_eq!(
                exhaustive_dense, exhaustive_tiered,
                "exhaustive n={n} α={alpha}"
            );

            // parallel evaluation reproduces the serial results exactly
            std::env::set_var("NLRM_THREADS", "3");
            assert_eq!(
                generate_all_candidates(&dense, n, alpha, beta),
                dense_cands,
                "parallel candidates n={n} α={alpha}"
            );
            assert_eq!(winner_of(&dense, n, alpha, beta), reference);
            // the pruned waves run threaded, yet the winner and the
            // expanded/pruned counts stay those of the serial pass
            let key = |p: nlrm_core::PrunedSelection| {
                (p.cost.to_bits(), p.winner.start, p.expanded, p.pruned)
            };
            for (loads, serial) in [(&dense, &pruned_dense), (&tiered, &pruned_tiered)] {
                assert_eq!(
                    key(allocate_pruned(loads, n, alpha, beta).unwrap()),
                    key(serial.clone()),
                    "threaded pruned n={n} α={alpha}"
                );
            }
            std::env::set_var("NLRM_THREADS", "1");
        }
    }
}
