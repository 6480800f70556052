//! Algorithm 2: best-candidate selection via Eq. 4.
//!
//! Each candidate's total compute load `C_G = Σ CL_u` and total network load
//! `N_G = Σ NL over sub-graph edges` are normalized by the respective sums
//! over all candidates, then combined as `T_G = α·C_norm + β·N_norm`; the
//! minimum wins.

use crate::candidate::Candidate;
use crate::loads::Loads;
use crate::par;
use nlrm_obs::{ExplainTrace, GroupExplain};
use nlrm_topology::NodeId;

/// Histogram bucket bounds for candidate-set size.
const CANDIDATE_COUNT_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Total compute load of a group: `C_G = Σ_{u ∈ G} CL_u`.
pub fn group_compute_load(loads: &Loads, nodes: &[NodeId]) -> f64 {
    nodes.iter().map(|&u| loads.cl_of(u)).sum()
}

/// Total network load of a group: `N_G = Σ_{(x,y) ∈ E_G} NL_(x,y)` over all
/// node pairs of the (complete) sub-graph.
///
/// Summed by [`TieredNl::group_sum`](crate::tiered::TieredNl::group_sum),
/// which keeps the plain `i < j` pair order.
pub fn group_network_load(loads: &Loads, nodes: &[NodeId]) -> f64 {
    loads.nl.group_sum(nodes)
}

/// Mean pairwise network load of a group (paper §3.2.2: "we take the average
/// of network load between all pairs of nodes to compute the network load of
/// a group").
pub fn group_mean_network_load(loads: &Loads, nodes: &[NodeId]) -> f64 {
    let pairs = nodes.len() * nodes.len().saturating_sub(1) / 2;
    if pairs == 0 {
        0.0
    } else {
        group_network_load(loads, nodes) / pairs as f64
    }
}

/// A group's cost under a *globally* normalized variant of Eq. 4:
/// `α·C_G/C_all + β·N_G/N_all`, where the denominators are the totals over
/// the whole usable universe. This is a different objective from Eq. 4, not
/// a rescaling of it: Eq. 4 divides by candidate-set totals, and next to it
/// the universe version shrinks the network term by about `(V−1)/(g−1)`
/// for a `g`-node group, so the two rank groups differently whenever both
/// `α` and `β` are nonzero. Its merit is that it is well-defined for *any*
/// group, so the pruned allocator, the brute-force validator and the
/// ablations can score arbitrary subsets.
pub fn group_cost(loads: &Loads, nodes: &[NodeId], alpha: f64, beta: f64) -> f64 {
    compute_term(loads, group_compute_load(loads, nodes), alpha)
        + network_term(loads, group_network_load(loads, nodes), beta)
}

/// `α·C_G/C_all`: the compute half of [`group_cost`] for a group whose
/// compute load is `c_g`, bit for bit.
pub(crate) fn compute_term(loads: &Loads, c_g: f64, alpha: f64) -> f64 {
    let c_all = loads.total_compute_load();
    alpha * if c_all > 0.0 { c_g / c_all } else { 0.0 }
}

/// `β·N_G/N_all`: the network half of [`group_cost`] for a group whose
/// network load is `n_g`, bit for bit.
pub(crate) fn network_term(loads: &Loads, n_g: f64, beta: f64) -> f64 {
    let n_all = loads.total_network_load();
    beta * if n_all > 0.0 { n_g / n_all } else { 0.0 }
}

/// One candidate's Eq. 4 score, split into its weighted components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateScore {
    /// The candidate's start node.
    pub start: NodeId,
    /// `α · C_G / ΣC` over the candidate set.
    pub compute_term: f64,
    /// `β · N_G / ΣN` over the candidate set.
    pub network_term: f64,
    /// `T_G = compute_term + network_term`.
    pub total: f64,
}

/// Outcome of Algorithm 2.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Index of the winning candidate.
    pub best: usize,
    /// Eq. 4 cost of the winner.
    pub best_cost: f64,
    /// `(start node, T_G)` for every candidate, in input order.
    pub costs: Vec<(NodeId, f64)>,
    /// Component breakdown for every candidate, in input order.
    pub scores: Vec<CandidateScore>,
}

/// Select the candidate minimizing `T_G` (Algorithm 2). Ties break by the
/// candidate's start-node id (deterministic) — explicitly *not* by input
/// index, so callers may pass candidates in any order.
///
/// The O(g²) per-candidate load sums are evaluated on worker threads; the
/// normalization and arg-min run serially over the in-order results, so the
/// winner is byte-for-byte the serial one.
pub fn select_best(loads: &Loads, candidates: &[Candidate], alpha: f64, beta: f64) -> Selection {
    assert!(!candidates.is_empty(), "no candidates to select from");
    let cn: Vec<(f64, f64)> = par::par_map(candidates, |cand| {
        (
            group_compute_load(loads, &cand.nodes),
            group_network_load(loads, &cand.nodes),
        )
    });
    let c_sum: f64 = cn.iter().map(|&(c, _)| c).sum();
    let n_sum: f64 = cn.iter().map(|&(_, n)| n).sum();
    let scores: Vec<CandidateScore> = candidates
        .iter()
        .enumerate()
        .map(|(i, cand)| {
            let c_norm = if c_sum > 0.0 { cn[i].0 / c_sum } else { 0.0 };
            let n_norm = if n_sum > 0.0 { cn[i].1 / n_sum } else { 0.0 };
            let compute_term = alpha * c_norm;
            let network_term = beta * n_norm;
            CandidateScore {
                start: cand.start,
                compute_term,
                network_term,
                total: compute_term + network_term,
            }
        })
        .collect();
    let costs: Vec<(NodeId, f64)> = scores.iter().map(|s| (s.start, s.total)).collect();
    let best = costs
        .iter()
        .enumerate()
        .min_by(|(_, (start_a, total_a)), (_, (start_b, total_b))| {
            total_a.total_cmp(total_b).then(start_a.cmp(start_b))
        })
        .map(|(i, _)| i)
        .expect("non-empty");
    nlrm_obs::ctx::observe(
        "alloc_candidate_groups",
        CANDIDATE_COUNT_BOUNDS,
        candidates.len() as f64,
    );
    Selection {
        best,
        best_cost: costs[best].1,
        costs,
        scores,
    }
}

/// Build an [`ExplainTrace`] for a completed selection: the `k` cheapest
/// candidate groups in rank order plus a verdict naming the cost component
/// that separated the winner from the runner-up. Ranking reproduces
/// `select_best`'s ordering exactly (ascending `T_G`, ties by start-node id).
pub fn explain_selection(
    candidates: &[Candidate],
    selection: &Selection,
    alpha: f64,
    beta: f64,
    k: usize,
) -> ExplainTrace {
    let mut order: Vec<usize> = (0..selection.scores.len()).collect();
    order.sort_by(|&a, &b| {
        selection.scores[a]
            .total
            .total_cmp(&selection.scores[b].total)
            .then(selection.scores[a].start.cmp(&selection.scores[b].start))
    });
    let top: Vec<GroupExplain> = order
        .iter()
        .take(k.max(1))
        .enumerate()
        .map(|(rank, &i)| {
            let s = &selection.scores[i];
            GroupExplain {
                rank: rank + 1,
                start: candidates[i].start,
                nodes: candidates[i].nodes.clone(),
                compute_term: s.compute_term,
                network_term: s.network_term,
                total: s.total,
            }
        })
        .collect();
    let margin = if order.len() >= 2 {
        selection.scores[order[1]].total - selection.scores[order[0]].total
    } else {
        0.0
    };
    let verdict = if order.len() < 2 {
        "only candidate group".to_string()
    } else {
        let w = &selection.scores[order[0]];
        let r = &selection.scores[order[1]];
        let dc = r.compute_term - w.compute_term;
        let dn = r.network_term - w.network_term;
        // relative comparison: an absolute `margin <= f64::EPSILON` misses
        // one-ulp ties whenever |T_G| is much larger than 1
        let scale = w.total.abs().max(r.total.abs());
        if margin <= 4.0 * f64::EPSILON * scale {
            "tie broken by candidate order".to_string()
        } else if dn > dc {
            format!("lower network load decided it (Δnetwork={dn:.4}, Δcompute={dc:.4})")
        } else {
            format!("lower compute load decided it (Δcompute={dc:.4}, Δnetwork={dn:.4})")
        }
    };
    ExplainTrace {
        alpha,
        beta,
        considered: candidates.len(),
        top,
        margin,
        verdict,
    }
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

    #[test]
    fn group_loads_accumulate() {
        let l = loads(6, 3);
        let nodes = [l.usable[0], l.usable[1], l.usable[2]];
        let c = group_compute_load(&l, &nodes);
        assert!((c - (l.cl_of(nodes[0]) + l.cl_of(nodes[1]) + l.cl_of(nodes[2]))).abs() < 1e-12);
        let n = group_network_load(&l, &nodes);
        let manual = l.nl_between(nodes[0], nodes[1])
            + l.nl_between(nodes[0], nodes[2])
            + l.nl_between(nodes[1], nodes[2]);
        assert!((n - manual).abs() < 1e-12);
        // mean = sum / 3 pairs
        assert!((group_mean_network_load(&l, &nodes) - manual / 3.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_group_has_zero_network_load() {
        let l = loads(4, 3);
        assert_eq!(group_network_load(&l, &[l.usable[0]]), 0.0);
        assert_eq!(group_mean_network_load(&l, &[l.usable[0]]), 0.0);
    }

    #[test]
    fn selection_minimizes_t() {
        let l = loads(8, 5);
        let cands = generate_all_candidates(&l, 12, 0.3, 0.7);
        let sel = select_best(&l, &cands, 0.3, 0.7);
        for (i, &(_, t)) in sel.costs.iter().enumerate() {
            assert!(sel.best_cost <= t + 1e-12, "candidate {i} beats winner");
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let l = loads(8, 5);
        let cands = generate_all_candidates(&l, 12, 0.3, 0.7);
        let a = select_best(&l, &cands, 0.3, 0.7);
        let b = select_best(&l, &cands, 0.3, 0.7);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn cached_totals_match_recomputation_and_preserve_rankings() {
        let l = loads(8, 5);
        // the cached totals equal a from-scratch walk of the universe
        let c_all: f64 = l.cl.iter().sum();
        let mut n_all = 0.0;
        for (i, &x) in l.usable.iter().enumerate() {
            for &y in &l.usable[i + 1..] {
                n_all += l.nl_between(x, y);
            }
        }
        assert!((l.total_compute_load() - c_all).abs() < 1e-12);
        assert!((l.total_network_load() - n_all).abs() < 1e-12);
        // and group_cost ranks candidates exactly as the explicit
        // (recompute-per-call) normalization did
        let cands = generate_all_candidates(&l, 12, 0.3, 0.7);
        assert!(cands.len() > 1);
        let explicit = |nodes: &[NodeId]| {
            let c = group_compute_load(&l, nodes);
            let n = group_network_load(&l, nodes);
            let c_norm = if c_all > 0.0 { c / c_all } else { 0.0 };
            let n_norm = if n_all > 0.0 { n / n_all } else { 0.0 };
            0.3 * c_norm + 0.7 * n_norm
        };
        let mut cached_order: Vec<usize> = (0..cands.len()).collect();
        cached_order.sort_by(|&a, &b| {
            group_cost(&l, &cands[a].nodes, 0.3, 0.7).total_cmp(&group_cost(
                &l,
                &cands[b].nodes,
                0.3,
                0.7,
            ))
        });
        let mut explicit_order: Vec<usize> = (0..cands.len()).collect();
        explicit_order
            .sort_by(|&a, &b| explicit(&cands[a].nodes).total_cmp(&explicit(&cands[b].nodes)));
        assert_eq!(cached_order, explicit_order, "rankings changed");
        for cand in &cands {
            let cost = group_cost(&l, &cand.nodes, 0.3, 0.7);
            assert!((cost - explicit(&cand.nodes)).abs() < 1e-12);
        }
    }

    #[test]
    fn tie_breaks_by_start_id_not_input_index() {
        // Regression: the documented contract is "ties break by the
        // candidate's start-node id". Feed three candidates with identical
        // node sets (hence exactly equal T_G) whose starts arrive in
        // non-id order; the one with the smallest start id must win.
        let l = loads(6, 3);
        let nodes: Vec<NodeId> = l.usable[..3].to_vec();
        let procs = vec![4u32; 3];
        let mk = |start: NodeId| Candidate {
            start,
            nodes: nodes.clone(),
            procs: procs.clone(),
        };
        let starts = [l.usable[4], l.usable[1], l.usable[5]];
        let cands = vec![mk(starts[0]), mk(starts[1]), mk(starts[2])];
        let sel = select_best(&l, &cands, 0.3, 0.7);
        assert_eq!(
            sel.best, 1,
            "smallest start id must win the tie (got start {})",
            cands[sel.best].start
        );
        // explain_selection must rank the same way
        let trace = explain_selection(&cands, &sel, 0.3, 0.7, 3);
        assert_eq!(trace.top[0].start, starts[1]);
        assert!(trace.verdict.contains("tie"), "verdict: {}", trace.verdict);
    }

    #[test]
    fn near_tie_at_large_magnitude_is_called_a_tie() {
        // Regression: the verdict used `margin <= f64::EPSILON` (absolute),
        // so two scores a few ulps apart at magnitude 1e12 were reported as
        // decisively separated. The comparison is now relative.
        let l = loads(4, 3);
        let mk = |start: NodeId| Candidate {
            start,
            nodes: vec![start],
            procs: vec![4],
        };
        let cands = vec![mk(l.usable[0]), mk(l.usable[1])];
        let big = 1.0e12;
        let ulps_apart = big * (1.0 + 2.0 * f64::EPSILON) - big; // a few ulps
        assert!(ulps_apart > f64::EPSILON, "margin must defeat absolute eps");
        let scores = vec![
            CandidateScore {
                start: l.usable[0],
                compute_term: big,
                network_term: 0.0,
                total: big,
            },
            CandidateScore {
                start: l.usable[1],
                compute_term: big,
                network_term: ulps_apart,
                total: big + ulps_apart,
            },
        ];
        let sel = Selection {
            best: 0,
            best_cost: big,
            costs: scores.iter().map(|s| (s.start, s.total)).collect(),
            scores,
        };
        let trace = explain_selection(&cands, &sel, 0.3, 0.7, 2);
        assert!(
            trace.verdict.contains("tie"),
            "a few-ulp margin at 1e12 must read as a tie, got: {}",
            trace.verdict
        );
    }

    #[test]
    fn global_cost_is_bounded_and_monotone() {
        let l = loads(8, 7);
        // whole universe costs exactly α + β = 1
        let all = l.usable.clone();
        assert!((group_cost(&l, &all, 0.3, 0.7) - 1.0).abs() < 1e-9);
        // growing a group never decreases its cost
        let mut prefix = Vec::new();
        let mut prev = 0.0;
        for &n in &l.usable {
            prefix.push(n);
            let cost = group_cost(&l, &prefix, 0.3, 0.7);
            assert!(cost + 1e-12 >= prev, "cost decreased when adding {n}");
            assert!((0.0..=1.0 + 1e-9).contains(&cost));
            prev = cost;
        }
    }
}
