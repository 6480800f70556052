//! Soundness of the pruned allocator's per-start lower bounds on random
//! small tiered universes: every bound stays at or below its own
//! candidate's `group_cost`, the pruned winner is the exhaustive one bit
//! for bit, and the expanded/pruned split does not depend on the thread
//! count.
//!
//! The property flips `NLRM_THREADS`, which is process-global; the other
//! test in this file gives the same answer under any thread count.

use nlrm_core::candidate::{generate_all_candidates, generate_candidate};
use nlrm_core::scalable::start_bounds;
use nlrm_core::select::group_cost;
use nlrm_core::{allocate_pruned, Loads, PrunedSelection, TieredNl};
use nlrm_topology::NodeId;
use proptest::prelude::*;

/// Compute loads drawn with repeats, so density and cost ties are common.
const CL: [f64; 5] = [0.1, 0.25, 0.25, 0.5, 0.8];
/// Intra-switch pair loads, with repeats.
const INTRA: [f64; 4] = [0.05, 0.1, 0.1, 0.3];
/// Inter-switch pair loads, with repeats.
const INTER: [f64; 4] = [0.2, 0.4, 0.4, 0.6];
const ALPHAS: [f64; 3] = [0.0, 0.3, 1.0];

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiered universe: `sizes[s]` nodes on switch `s`, node ids dealt to
/// switches in a seeded shuffle so streams interleave by id.
fn tiered_loads(sizes: &[usize], cl: &[usize], pc: &[u32], seed: u64) -> Loads {
    let total: usize = sizes.iter().sum();
    let mut switch_of: Vec<u32> = sizes
        .iter()
        .enumerate()
        .flat_map(|(s, &m)| std::iter::repeat_n(s as u32, m))
        .collect();
    for i in (1..total).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        switch_of.swap(i, j);
    }
    let nodes: Vec<NodeId> = (0..total as u32).map(NodeId).collect();
    let nl = TieredNl::from_fns(
        &nodes,
        &switch_of,
        sizes.len(),
        |a, b| INTRA[(mix(seed ^ ((a.0 as u64) << 20) ^ b.0 as u64) % 4) as usize],
        |s, t| INTER[(mix(!seed ^ ((s as u64) << 20) ^ t as u64) % 4) as usize],
    );
    let cl = cl[..total].iter().map(|&k| CL[k]).collect();
    Loads::from_parts(nodes, cl, nl, pc[..total].to_vec())
}

/// `(cost bits, start)` of the exhaustive winner under `group_cost`.
fn exhaustive(l: &Loads, n: u32, alpha: f64, beta: f64) -> Option<(u64, NodeId)> {
    generate_all_candidates(l, n, alpha, beta)
        .iter()
        .map(|c| (group_cost(l, &c.nodes, alpha, beta), c.start))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(cost, start)| (cost.to_bits(), start))
}

fn key(p: &PrunedSelection) -> (u64, NodeId, usize, usize) {
    (p.cost.to_bits(), p.winner.start, p.expanded, p.pruned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn bounds_are_sound_and_pruning_is_exact(
        switches in 2usize..=6,
        sizes in proptest::collection::vec(1usize..=8, 6),
        cl in proptest::collection::vec(0usize..CL.len(), 48),
        pc in proptest::collection::vec(0u32..=4, 48),
        seed in any::<u64>(),
        alpha_at in 0usize..ALPHAS.len(),
        n_scale in 0.0f64..1.4,
    ) {
        let l = tiered_loads(&sizes[..switches], &cl, &pc, seed);
        let (alpha, beta) = (ALPHAS[alpha_at], 1.0 - ALPHAS[alpha_at]);
        let cap = l.total_capacity();
        let n = ((n_scale * cap as f64).ceil() as u32).max(1);

        let bounds = start_bounds(&l, n, alpha, beta);
        prop_assert_eq!(bounds.len(), l.usable.len());
        for (&v, &bound) in l.usable.iter().zip(&bounds) {
            let c = generate_candidate(&l, v, n, alpha, beta);
            if (c.total_procs() as u64) < n as u64 {
                continue; // zero capacity: no candidate to bound
            }
            let cost = group_cost(&l, &c.nodes, alpha, beta);
            prop_assert!(bound <= cost, "start {v} n {n} cap {cap}: bound {bound} > cost {cost}");
        }

        std::env::set_var("NLRM_THREADS", "1");
        let serial = allocate_pruned(&l, n, alpha, beta);
        std::env::set_var("NLRM_THREADS", "3");
        let threaded = allocate_pruned(&l, n, alpha, beta);
        std::env::remove_var("NLRM_THREADS");
        prop_assert_eq!(
            serial.as_ref().map(|p| (p.cost.to_bits(), p.winner.start)),
            exhaustive(&l, n, alpha, beta),
            "n {} cap {} α {}", n, cap, alpha
        );
        if let Some(p) = &serial {
            prop_assert_eq!(p.expanded + p.pruned, l.usable.len());
        }
        prop_assert_eq!(serial.as_ref().map(key), threaded.as_ref().map(key));
    }
}

/// Past total capacity every candidate takes every node with capacity, so
/// under α = 1 all starts tie on cost and the lowest id must win. A pool
/// bound without the `cap(pool) − pc_v` clamp counts the start twice here
/// and prunes the winner.
#[test]
fn all_starts_tie_when_n_exceeds_capacity() {
    let sizes = [4, 3, 5];
    let cl: Vec<usize> = (0..12).map(|i| (i * 3) % CL.len()).collect();
    let pc: Vec<u32> = (0..12).map(|i| [2, 0, 3, 4][i % 4]).collect();
    let l = tiered_loads(&sizes, &cl, &pc, 7);
    let n = l.total_capacity() as u32 + 7;
    let bounds = start_bounds(&l, n, 1.0, 0.0);
    let costs: Vec<f64> = l
        .usable
        .iter()
        .map(|&v| group_cost(&l, &generate_candidate(&l, v, n, 1.0, 0.0).nodes, 1.0, 0.0))
        .collect();
    for (i, (&bound, &cost)) in bounds.iter().zip(&costs).enumerate() {
        assert!(bound <= cost, "start {i}: bound {bound} > cost {cost}");
    }
    let got = allocate_pruned(&l, n, 1.0, 0.0).expect("a winner");
    assert_eq!(got.winner.start, l.usable[0]);
    assert_eq!(
        Some((got.cost.to_bits(), got.winner.start)),
        exhaustive(&l, n, 1.0, 0.0)
    );
    assert_eq!(got.winner.total_procs(), n);
}
