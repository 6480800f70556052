//! Fused, bound-pruned allocation: Algorithms 1 and 2 in one pass with
//! early exit over start nodes.
//!
//! Algorithm 2's Eq. 4 normalizes each candidate by sums *over the candidate
//! set*, so a candidate's score is unknowable until every candidate exists —
//! pruning under that objective is unsound. This module therefore scores
//! groups with the *globally* normalized
//! [`group_cost`] (`α·C_G/C_all + β·N_G/N_all`),
//! whose denominators are fixed by the universe. The global denominators
//! are constants, so a candidate's rank no longer depends on which other
//! candidates happen to exist — though it is *not* always the Eq. 4 rank:
//! Eq. 4's compute and network terms are rescaled by candidate-set sums
//! whose ratio varies per set, so the two rankings can diverge when both
//! α and β are nonzero. The pruned path deliberately adopts the globally
//! normalized objective (set-independent, hence prunable) and reproduces
//! *its* exhaustive ranking exactly — and a per-start *lower bound* on
//! `group_cost` becomes possible before generating the candidate:
//!
//! * **Compute term** — any group from start `v` contains `v` (when `v` has
//!   capacity) and must cover `min(n, capacity)` processes, so
//!   `C_G ≥ max(CL_v, fmin)` where `fmin` is the fractional-knapsack minimum
//!   of `Σ CL` over nodes whose `pc` sums to the demand (density order,
//!   prefix sums, O(log V) per query).
//! * **Network term** — a group of `g ≥ g_min` nodes has at least `g_min−1`
//!   edges incident to `v`, each `≥ min_u NL(v,u)`; `g_min` follows from
//!   `pc_max`. For a zero-capacity start (not itself in the group) the
//!   global minimum incident load bounds instead.
//!
//! Start nodes are visited in ascending bound order; once a bound strictly
//! exceeds the incumbent's cost, every remaining start is pruned. The
//! incumbent comparison is `(cost, start id)` — the same tie-break as
//! [`select_best`](crate::select::select_best) — so the pruned winner is
//! *identical* to exhaustively scoring every candidate under `group_cost`
//! (a property the tests assert).

use crate::candidate::{generate_candidate, Candidate, TieredBuckets};
use crate::loads::Loads;
use crate::select::group_cost;
use nlrm_topology::NodeId;
use std::collections::HashMap;

/// Histogram bucket bounds for allocation decision latency, in seconds.
pub const DECISION_SECONDS_BOUNDS: &[f64] = &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Outcome of a fused, pruned allocation pass.
#[derive(Debug, Clone)]
pub struct PrunedSelection {
    /// The winning candidate (same winner as exhaustive scoring).
    pub winner: Candidate,
    /// Globally normalized cost of the winner.
    pub cost: f64,
    /// Start nodes whose candidate was actually generated and scored.
    pub expanded: usize,
    /// Start nodes skipped because their lower bound could not win.
    pub pruned: usize,
}

/// Fractional-knapsack lower bound on `Σ CL` needed to cover `p` processes:
/// nodes sorted by `CL/pc` density, prefix sums, partial last node.
struct FracMin {
    /// `pc_cum[i]` = Σ pc of the `i` densest-first entries.
    pc_cum: Vec<u64>,
    /// `cl_cum[i]` = Σ CL of the `i` densest-first entries.
    cl_cum: Vec<f64>,
    /// `CL/pc` of entry `i`.
    density: Vec<f64>,
}

impl FracMin {
    fn build(loads: &Loads) -> FracMin {
        let mut entries: Vec<(f64, u32)> = loads
            .cl
            .iter()
            .zip(&loads.pc)
            .filter(|&(_, &pc)| pc > 0)
            .map(|(&cl, &pc)| (cl, pc))
            .collect();
        entries.sort_by(|a, b| {
            let da = a.0 / a.1 as f64;
            let db = b.0 / b.1 as f64;
            da.total_cmp(&db)
        });
        let mut pc_cum = vec![0u64];
        let mut cl_cum = vec![0.0f64];
        let mut density = Vec::with_capacity(entries.len());
        for &(cl, pc) in &entries {
            pc_cum.push(pc_cum.last().unwrap() + pc as u64);
            cl_cum.push(cl_cum.last().unwrap() + cl);
            density.push(cl / pc as f64);
        }
        FracMin {
            pc_cum,
            cl_cum,
            density,
        }
    }

    /// Minimum fractional `Σ CL` covering `p` processes (clamped to the
    /// total capacity).
    fn query(&self, p: u64) -> f64 {
        if p == 0 || self.density.is_empty() {
            return 0.0;
        }
        let total = *self.pc_cum.last().unwrap();
        if p >= total {
            return *self.cl_cum.last().unwrap();
        }
        // first prefix index whose cumulative pc reaches p
        let i = self.pc_cum.partition_point(|&c| c < p);
        debug_assert!(i >= 1);
        self.cl_cum[i - 1] + (p - self.pc_cum[i - 1]) as f64 * self.density[i - 1]
    }
}

/// Allocate for `n` processes with bound-sorted start-node pruning.
///
/// Returns `None` when no candidate can place a single process (zero
/// total capacity) or `n == 0`. Otherwise the winner, its cost, and how
/// many starts were expanded vs pruned.
pub fn allocate_pruned(loads: &Loads, n: u32, alpha: f64, beta: f64) -> Option<PrunedSelection> {
    let started = std::time::Instant::now();
    let result = allocate_pruned_inner(loads, n, alpha, beta);
    nlrm_obs::ctx::observe(
        "alloc_decision_seconds",
        DECISION_SECONDS_BOUNDS,
        started.elapsed().as_secs_f64(),
    );
    result
}

fn allocate_pruned_inner(loads: &Loads, n: u32, alpha: f64, beta: f64) -> Option<PrunedSelection> {
    if n == 0 || loads.usable.is_empty() {
        return None;
    }
    let cap = loads.total_capacity();
    if cap == 0 {
        return None;
    }
    let c_all = loads.total_compute_load();
    let n_all = loads.total_network_load();
    let neff = (n as u64).min(cap);
    let frac = FracMin::build(loads);
    let fmin_neff = frac.query(neff);
    let npos = loads.pc.iter().filter(|&&pc| pc > 0).count() as u64;
    let pc_max = loads.pc.iter().copied().max().unwrap_or(0) as u64;
    debug_assert!(pc_max > 0);
    let min_inc = loads.nl.min_incident(&loads.usable);
    let global_min_inc = min_inc.iter().copied().fold(f64::INFINITY, f64::min);

    // lower bound on group_cost for every start, before generating anything
    let bound_of = |i: usize| -> f64 {
        let pc_v = loads.pc[i] as u64;
        let lb_c = if pc_v > 0 {
            fmin_neff.max(loads.cl[i])
        } else {
            fmin_neff
        };
        let g_min = if pc_v > 0 {
            (1 + (n as u64).saturating_sub(pc_v).div_ceil(pc_max)).min(npos)
        } else {
            (n as u64).div_ceil(pc_max).min(npos)
        };
        // a group of g nodes is a clique: g−1 edges at v (each ≥ v's
        // minimum incident load) plus C(g−1, 2) edges among the rest
        // (each ≥ the global minimum pair load); both terms grow with g,
        // so evaluating at g_min keeps the bound valid
        let pairs = |k: u64| (k * k.saturating_sub(1) / 2) as f64;
        let lb_n = if g_min >= 2 {
            let rest = if global_min_inc.is_finite() {
                global_min_inc
            } else {
                0.0
            };
            if pc_v > 0 && min_inc[i].is_finite() {
                (g_min - 1) as f64 * min_inc[i] + pairs(g_min - 1) * rest
            } else {
                pairs(g_min) * rest
            }
        } else {
            0.0
        };
        let c_term = if c_all > 0.0 { lb_c / c_all } else { 0.0 };
        let n_term = if n_all > 0.0 { lb_n / n_all } else { 0.0 };
        alpha * c_term + beta * n_term
    };
    let mut order: Vec<(f64, usize)> = (0..loads.usable.len()).map(|i| (bound_of(i), i)).collect();
    order.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(loads.usable[a.1].cmp(&loads.usable[b.1]))
    });

    // lazy tiered generation context: stream orders computed once per
    // start switch actually expanded
    let buckets = loads
        .nl
        .as_tiered()
        .map(|t| TieredBuckets::build(loads, t, n, alpha, beta));
    let mut switch_orders: HashMap<u32, Vec<u32>> = HashMap::new();
    let generate = |v: NodeId, switch_orders: &mut HashMap<u32, Vec<u32>>| -> Candidate {
        match &buckets {
            Some(b) => {
                let t = loads.nl.as_tiered().expect("buckets imply tiered");
                let sv = t.switch_of_node(v);
                let order = switch_orders
                    .entry(sv)
                    .or_insert_with(|| b.stream_order(sv));
                b.generate_for(v, order)
            }
            None => generate_candidate(loads, v, n, alpha, beta),
        }
    };

    let mut best: Option<(f64, NodeId, Candidate)> = None;
    let mut expanded = 0usize;
    let mut pruned = 0usize;
    for &(bound, i) in &order {
        if let Some((best_cost, _, _)) = &best {
            // bounds ascend, so the first hopeless bound prunes the rest;
            // a bound *equal* to the incumbent must still expand — its
            // candidate could tie on cost and win on start id
            if bound > *best_cost {
                pruned = order.len() - expanded;
                break;
            }
        }
        let v = loads.usable[i];
        let cand = generate(v, &mut switch_orders);
        expanded += 1;
        if (cand.total_procs() as u64) < n as u64 {
            continue; // zero-capacity start universe; cannot satisfy
        }
        let cost = group_cost(loads, &cand.nodes, alpha, beta);
        let better = match &best {
            None => true,
            Some((bc, bs, _)) => cost.total_cmp(bc).then(v.cmp(bs)) == std::cmp::Ordering::Less,
        };
        if better {
            best = Some((cost, v, cand));
        }
    }
    best.map(|(cost, _, winner)| PrunedSelection {
        winner,
        cost,
        expanded,
        pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::generate_all_candidates;
    use crate::loads::Loads;
    use crate::weights::{ComputeWeights, NetworkWeights};
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::MonitorRuntime;
    use nlrm_sim_core::time::Duration;

    fn loads(n_nodes: usize, seed: u64) -> Loads {
        let mut cluster = small_cluster(n_nodes, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        Loads::derive(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
        )
        .unwrap()
    }

    /// Exhaustive winner under the same `(group_cost, start id)` order the
    /// pruned path claims to reproduce.
    fn exhaustive_winner(l: &Loads, n: u32, alpha: f64, beta: f64) -> Option<(f64, NodeId)> {
        let cands = generate_all_candidates(l, n, alpha, beta);
        cands
            .iter()
            .map(|c| (group_cost(l, &c.nodes, alpha, beta), c.start))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    #[test]
    fn pruned_winner_matches_exhaustive_dense() {
        for seed in [3, 5, 7, 11, 13] {
            let l = loads(12, seed);
            for n in [1, 4, 9, 24, 48, 200] {
                for &(a, b) in &[(0.3, 0.7), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)] {
                    let want = exhaustive_winner(&l, n, a, b).unwrap();
                    let got = allocate_pruned(&l, n, a, b).unwrap();
                    assert_eq!(
                        (got.cost, got.winner.start),
                        want,
                        "seed {seed} n {n} α {a} β {b}"
                    );
                    assert_eq!(
                        got.expanded + got.pruned,
                        l.usable.len(),
                        "every start is either expanded or pruned"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_winner_matches_exhaustive_tiered() {
        let l = loads(12, 5);
        let cluster = small_cluster(12, 5);
        let idx = cluster.topology().switch_index();
        let tiered = l.clone().into_tiered(&idx);
        for n in [1, 6, 20, 60] {
            let want = exhaustive_winner(&tiered, n, 0.3, 0.7).unwrap();
            let got = allocate_pruned(&tiered, n, 0.3, 0.7).unwrap();
            assert_eq!((got.cost, got.winner.start), want, "n {n}");
        }
    }

    #[test]
    fn zero_capacity_returns_none() {
        let l = loads(5, 7);
        let starved = Loads::from_parts(
            l.usable.clone(),
            l.cl.clone(),
            l.nl.clone(),
            vec![0; l.usable.len()],
        );
        assert!(allocate_pruned(&starved, 8, 0.3, 0.7).is_none());
        assert!(allocate_pruned(&l, 0, 0.3, 0.7).is_none());
    }

    #[test]
    fn bounds_actually_prune_on_skewed_clusters() {
        // On a cluster with spread-out compute loads and a small request,
        // most starts should be pruned without generation.
        let l = loads(24, 9);
        let got = allocate_pruned(&l, 4, 1.0, 0.0).unwrap();
        assert!(
            got.pruned > 0,
            "expected pruning with α=1 and a small request (expanded {})",
            got.expanded
        );
    }

    #[test]
    fn frac_min_is_a_valid_lower_bound() {
        let l = loads(10, 3);
        let frac = FracMin::build(&l);
        // any candidate's compute load is ≥ fmin of the procs it covers
        for n in [1u32, 5, 13, 40] {
            let cands = generate_all_candidates(&l, n, 0.3, 0.7);
            for c in &cands {
                let covered = (n as u64).min(l.total_capacity());
                let c_g: f64 = c.nodes.iter().map(|&u| l.cl_of(u)).sum();
                assert!(
                    frac.query(covered) <= c_g + 1e-9,
                    "fmin({covered}) = {} > C_G = {c_g}",
                    frac.query(covered)
                );
            }
        }
    }

    #[test]
    fn frac_min_monotone_and_clamped() {
        let l = loads(8, 5);
        let frac = FracMin::build(&l);
        let mut prev = 0.0;
        for p in 0..=(l.total_capacity() + 10) {
            let v = frac.query(p);
            assert!(v + 1e-12 >= prev, "fmin not monotone at {p}");
            prev = v;
        }
        let all: f64 =
            l.cl.iter()
                .zip(&l.pc)
                .filter(|&(_, &pc)| pc > 0)
                .map(|(&cl, _)| cl)
                .sum();
        assert!((frac.query(l.total_capacity() + 10) - all).abs() < 1e-9);
    }
}
