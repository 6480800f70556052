//! Fused, bound-pruned allocation: Algorithms 1 and 2 in one pass with
//! early exit over start nodes.
//!
//! Algorithm 2's Eq. 4 normalizes each candidate by sums *over the candidate
//! set*, so a candidate's score is unknowable until every candidate exists —
//! pruning under that objective is unsound. This module therefore scores
//! groups with the *globally* normalized
//! [`group_cost`](crate::select::group_cost) (`α·C_G/C_all + β·N_G/N_all`),
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
//!   prefix sums, O(log V) per query). Over more than one switch the
//!   candidate from `v` draws its other nodes only from `v`'s *switch
//!   pool*: its own switch plus the switch's foreign prefix (see
//!   [`TieredBuckets`](crate::candidate)). So
//!   `C_G ≥ CL_v + fmin_pool(min(n − pc_v, cap(pool) − pc_v))`, with
//!   `fmin_pool` the same relaxation over the pool alone; the
//!   `cap(pool) − pc_v` clamp keeps `v` from counting twice once `n`
//!   exceeds the pool (a zero-capacity `v` is not in its candidate and
//!   takes `fmin_pool(min(n, cap(pool)))`). The compute bound is the
//!   larger of the two. On one switch (a central derivation) the pool is
//!   the whole universe and only the first bound is taken. It holds for
//!   any objective monotone in `C_G`.
//! * **Network term** — a group of `g ≥ g_min` nodes has at least `g_min−1`
//!   edges incident to `v`, each `≥ min_u NL(v,u)`; `g_min` follows from
//!   `pc_max`. For a zero-capacity start (not itself in the group) the
//!   global minimum incident load bounds instead.
//!
//! Both terms are deflated by a relative margin of 10⁻⁹ before they are
//! weighted, so a bound summed in one order never exceeds a cost summed in
//! another. A negative weight flips which side of its term a bound needs:
//! its term is bounded by the term's largest share instead, 1 (inflated by
//! the same margin) when every input of the term is ≥ 0, and unbounded
//! otherwise, which leaves every start to be expanded.
//!
//! What depends on the `Loads` alone is memoized on it on first use:
//! every node's minimum incident NL with their global minimum, the
//! universe `fmin` in full density order (one O(log V) query), and the
//! per-switch streams and foreign neighbourhoods that the switch pools read
//! (see [`TieredBuckets`](crate::candidate)). A decision pays only for
//! what depends on its request (n, α, β); a [`Loads::restrict`] view
//! starts with its own empty memos.
//!
//! The search is organised around *switch classes*: over several switches
//! the starts of one switch form a class (they share one foreign prefix);
//! on one switch each start is its own class, so a class is never the
//! whole universe. Either way a class's candidates come from the one
//! switch generator. One parallel pass over switches
//! builds each switch's pool in per-worker buffers, bounds its starts and
//! finds the class's least member by `(bound, id)`; classes ascend by it,
//! and a class's starts are sorted by `(bound, id)` only once a wave
//! reaches it. Classes are expanded in waves of 1, 2, 4, 8, …
//! classes. The incumbent is fixed when a wave begins: a class whose first
//! bound strictly exceeds it is skipped, and a class stops at its first
//! start whose bound does. The wave's per-class bests merge by
//! `(cost, start id)` — the same tie-break as
//! [`select_best`](crate::select::select_best) — and the search ends once
//! the next class's first bound exceeds the incumbent. A start is skipped
//! only when an achieved cost lies strictly below its bound, so the winner
//! is *identical* to exhaustively scoring every candidate under
//! `group_cost` (a property the tests assert).
//!
//! An expanded candidate is scored compute term first, with the same
//! expression as `group_cost`. When every NL is ≥ 0 and β ≥ 0 the network
//! term cannot be negative, so a compute term already strictly above
//! `min(incumbent, class best)` cannot win and the O(g²) `group_sum` is
//! skipped. With a negative NL every expanded candidate is scored in full.
//!
//! A wave's classes run on worker threads ([`par`]). The wave sizes and
//! the per-wave incumbent do not depend on the thread count, so neither
//! the winner nor the `expanded`/`pruned` counts do.

use crate::candidate::{Candidate, PrefixScratch, TieredBuckets};
use crate::loads::Loads;
use crate::par;
use crate::select::{compute_term, group_compute_load, group_network_load, network_term};
use nlrm_topology::NodeId;

/// Histogram bucket bounds for allocation decision latency, in seconds.
pub const DECISION_SECONDS_BOUNDS: &[f64] = &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Relative slack taken off each lower-bound term. Summing `k`
/// non-negative floats errs by at most `(k−1)·2⁻⁵³` of the total, so this
/// covers a bound and a group cost of up to ~10⁶ terms each.
const BOUND_MARGIN: f64 = 1e-9;

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
#[derive(Debug, Clone, Default)]
pub(crate) struct FracMin {
    /// `pc_cum[i]` = Σ pc of the `i` densest-first entries.
    pc_cum: Vec<u64>,
    /// `cl_cum[i]` = Σ CL of the `i` densest-first entries.
    cl_cum: Vec<f64>,
    /// `CL/pc` of entry `i`.
    density: Vec<f64>,
    /// Σ pc of the entries.
    total_pc: u64,
    /// Σ CL of the entries.
    total_cl: f64,
}

impl FracMin {
    /// Build over `(CL, pc)` entries; zero-capacity entries are ignored.
    pub(crate) fn build(items: impl IntoIterator<Item = (f64, u32)>) -> FracMin {
        let mut frac = FracMin::default();
        frac.rebuild(items, &mut Vec::new());
        frac
    }

    /// [`Self::build`] in place, with `entries` as the sort buffer, so a
    /// worker that rebuilds one `FracMin` per pool allocates only while
    /// its buffers grow. The sort is stable: equal densities keep their
    /// input order, which fixes the order of every partial sum.
    fn rebuild(
        &mut self,
        items: impl IntoIterator<Item = (f64, u32)>,
        entries: &mut Vec<(f64, f64, u32)>,
    ) {
        entries.clear();
        let usable = items.into_iter().filter(|&(_, pc)| pc > 0);
        entries.extend(usable.map(|(cl, pc)| (cl / pc as f64, cl, pc)));
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut total_pc, mut total_cl) = (0u64, 0.0f64);
        self.pc_cum.clear();
        self.cl_cum.clear();
        self.density.clear();
        self.pc_cum.push(total_pc);
        self.cl_cum.push(total_cl);
        for &(d, cl, pc) in entries.iter() {
            total_pc += pc as u64;
            total_cl += cl;
            self.pc_cum.push(total_pc);
            self.cl_cum.push(total_cl);
            self.density.push(d);
        }
        self.total_pc = total_pc;
        self.total_cl = total_cl;
    }

    /// Minimum fractional `Σ CL` covering `p` processes (clamped to the
    /// total capacity).
    pub(crate) fn query(&self, p: u64) -> f64 {
        if p == 0 || self.density.is_empty() {
            return 0.0;
        }
        if p >= self.total_pc {
            return self.total_cl;
        }
        // first prefix index whose cumulative pc reaches p
        let i = self.pc_cum.partition_point(|&c| c < p);
        debug_assert!(i >= 1);
        self.cl_cum[i - 1] + (p - self.pc_cum[i - 1]) as f64 * self.density[i - 1]
    }
}

/// What one worker reuses from one switch pool to the next: the prefix
/// scratch, the sort buffer and the pool's `FracMin`.
type PoolScratch = (PrefixScratch, Vec<(f64, f64, u32)>, FracMin);

/// `x` less [`BOUND_MARGIN`] of its magnitude.
fn deflate(x: f64) -> f64 {
    x - x.abs() * BOUND_MARGIN
}

/// The lower bound on `group_cost` that [`allocate_pruned`] ranks and
/// prunes each start by, in `loads.usable` order. Every start's bound is
/// at most the `group_cost` of its own candidate. Exposed for the
/// bound-soundness tests only.
#[doc(hidden)]
pub fn start_bounds(loads: &Loads, n: u32, alpha: f64, beta: f64) -> Vec<f64> {
    lower_bounds(loads, n, alpha, beta).1
}

/// `(bound, usable position)` by bound, ties by node id.
fn by_bound(loads: &Loads) -> impl Fn(&(f64, usize), &(f64, usize)) -> std::cmp::Ordering + '_ {
    |a, b| {
        a.0.total_cmp(&b.0)
            .then(loads.usable[a.1].cmp(&loads.usable[b.1]))
    }
}

/// The switch buckets, the per-start lower bounds on `group_cost` (see
/// the module doc), and the switch classes (one per start on one switch)
/// as `(bound, position)` of their least `(bound, id)` member, unordered.
fn lower_bounds(
    loads: &Loads,
    n: u32,
    alpha: f64,
    beta: f64,
) -> (TieredBuckets<'_>, Vec<f64>, Vec<(f64, usize)>) {
    let b = TieredBuckets::build(loads, n, alpha, beta);
    let c_all = loads.total_compute_load();
    let n_all = loads.total_network_load();
    let neff = (n as u64).min(loads.total_capacity());
    let fmin_neff = loads.frac_min().query(neff);
    let npos = loads.pc.iter().filter(|&&pc| pc > 0).count() as u64;
    let pc_max = loads.pc.iter().copied().max().unwrap_or(0).max(1) as u64;
    let (min_inc, global_min_inc) = loads.min_incident();
    // a negative weight bounds its term by the term's largest share
    // instead: with every input ≥ 0 a group's load is at most the
    // universe's (inflated for rounding), and nothing bounds it otherwise
    let share_cap = |total: f64, nonneg: bool| match (total > 0.0, nonneg) {
        (false, _) => 0.0,
        (true, true) => 1.0 + BOUND_MARGIN,
        (true, false) => f64::INFINITY,
    };
    let c_cap = share_cap(c_all, alpha >= 0.0 || loads.cl.iter().all(|&c| c >= 0.0));
    let n_cap = share_cap(n_all, global_min_inc >= 0.0);

    // start i's bound, given its switch-pool compute bound
    let bound_of = |i: usize, pool: Option<f64>| -> f64 {
        let pc_v = loads.pc[i] as u64;
        let lb_c = if pc_v > 0 {
            fmin_neff.max(loads.cl[i])
        } else {
            fmin_neff
        };
        let lb_c = pool.map_or(lb_c, |pool| lb_c.max(pool));
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
        let c_term = if alpha < 0.0 {
            c_cap
        } else if c_all > 0.0 {
            deflate(lb_c) / c_all
        } else {
            0.0
        };
        let n_term = if beta < 0.0 {
            n_cap
        } else if n_all > 0.0 {
            deflate(lb_n) / n_all
        } else {
            0.0
        };
        alpha * c_term + beta * n_term
    };
    if b.one_switch() {
        let bounds: Vec<f64> = (0..loads.usable.len()).map(|i| bound_of(i, None)).collect();
        let classes = bounds.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        return (b, bounds, classes);
    }
    // one worker item per switch: its pool, its starts' full bounds
    // (see the module doc; one pool query per run of equal arguments)
    // and the class's least member
    let active: Vec<u32> = b.start_switches().collect();
    let min_chunk = (par::MIN_CHUNK * active.len()).div_ceil(loads.usable.len().max(1));
    let per_switch = par::par_map_with(active.len(), min_chunk, PoolScratch::default, |s, k| {
        let (prefix, entries, frac) = s;
        frac.rebuild(b.pool(active[k], prefix), entries);
        let (n, mut last) = (n as u64, (u64::MAX, 0.0));
        let mut query = |p: u64| {
            if last.0 != p {
                last = (p, frac.query(p));
            }
            last.1
        };
        let starts = b.starts_on(active[k]);
        let bounds: Vec<f64> = (starts.iter())
            .map(|&i| {
                let pool = match loads.pc[i] as u64 {
                    0 => query(n.min(frac.total_pc)),
                    pc_v => {
                        let rest = n.saturating_sub(pc_v);
                        loads.cl[i] + query(rest.min(frac.total_pc.saturating_sub(pc_v)))
                    }
                };
                bound_of(i, Some(pool))
            })
            .collect();
        let least = bounds.iter().copied().zip(starts.iter().copied());
        let least = least.min_by(by_bound(loads));
        (bounds, least)
    });
    let mut bounds = vec![0.0; loads.usable.len()];
    let mut classes = Vec::with_capacity(active.len());
    for (&sv, (lbs, least)) in active.iter().zip(per_switch) {
        for (&i, lb) in b.starts_on(sv).iter().zip(lbs) {
            bounds[i] = lb;
        }
        classes.extend(least);
    }
    (b, bounds, classes)
}

/// Allocate for `n` processes with bound-pruned, switch-class expansion.
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
    if n == 0 || loads.usable.is_empty() || loads.total_capacity() == 0 {
        return None;
    }
    let (buckets, bounds, mut classes) = lower_bounds(loads, n, alpha, beta);
    // the network term is ≥ 0 when every NL is and β ≥ 0, so a compute
    // term alone above the bar already loses
    let skip_network = beta >= 0.0 && loads.min_incident().1 >= 0.0;

    // classes ascend by their least member; a class's members are sorted
    // only once a wave reaches it
    let by_bound = by_bound(loads);
    classes.sort_by(&by_bound);

    // expand one class against a fixed incumbent: its best
    // (cost, start, candidate) and how many starts it generated
    let by_cost = |a: &(f64, NodeId, Candidate), b: &(f64, NodeId, Candidate)| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    };
    let run_class = |&(_, first): &(f64, usize), incumbent: f64| {
        let sv = loads.nl.switch_of_node(loads.usable[first]);
        let mut class: Vec<(f64, usize)> = if buckets.one_switch() {
            vec![(bounds[first], first)]
        } else {
            buckets
                .starts_on(sv)
                .iter()
                .map(|&i| (bounds[i], i))
                .collect()
        };
        class.sort_by(&by_bound);
        // a bound *equal* to the incumbent must still expand — its
        // candidate could tie on cost and win on start id
        let live = class
            .iter()
            .position(|&(bound, _)| bound > incumbent)
            .unwrap_or(class.len());
        if live == 0 {
            return (None, 0);
        }
        let starts = class[..live].iter().map(|&(_, i)| loads.usable[i]);
        let cands = buckets.generate_switch(sv, starts);
        let mut best: Option<(f64, NodeId, Candidate)> = None;
        // a zero-capacity start universe cannot satisfy the request
        for c in cands.filter(|c| c.total_procs() as u64 >= n as u64) {
            let c_term = compute_term(loads, group_compute_load(loads, &c.nodes), alpha);
            let bar = best.as_ref().map_or(incumbent, |b| b.0.min(incumbent));
            if skip_network && c_term > bar {
                continue;
            }
            let cost = c_term + network_term(loads, group_network_load(loads, &c.nodes), beta);
            best = best.into_iter().chain([(cost, c.start, c)]).min_by(by_cost);
        }
        (best, live)
    };

    // doubling waves; one worker per ~MIN_CHUNK starts' worth of classes
    let min_chunk = (par::MIN_CHUNK * classes.len()).div_ceil(loads.usable.len());
    let mut best: Option<(f64, NodeId, Candidate)> = None;
    let mut expanded = 0usize;
    let (mut next, mut wave) = (0usize, 1usize);
    while next < classes.len() {
        let incumbent = best.as_ref().map_or(f64::INFINITY, |b| b.0);
        if classes[next].0 > incumbent {
            break; // classes ascend by first bound: the rest are hopeless
        }
        let end = (next + wave).min(classes.len());
        let results = par::par_map_indexed(end - next, min_chunk, |k| {
            run_class(&classes[next + k], incumbent)
        });
        for (class_best, live) in results {
            expanded += live;
            best = best.into_iter().chain(class_best).min_by(by_cost);
        }
        next = end;
        wave *= 2;
    }
    best.map(|(cost, _, winner)| PrunedSelection {
        winner,
        cost,
        expanded,
        pruned: loads.usable.len() - expanded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::generate_all_candidates;
    use crate::loads::Loads;
    use crate::select::group_cost;
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
    fn multi_wave_tiered_winner_matches_exhaustive() {
        // 2,016 nodes in 48-node switches: 42 classes, so the search runs
        // several doubling waves before it can stop
        use nlrm_sim_core::rng::{frac, splitmix64};
        let (v, per_switch, seed) = (2_016u32, 48u32, 0x5EED);
        let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
        let switch_of: Vec<u32> = (0..v).map(|u| u / per_switch).collect();
        let nl = crate::TieredNl::from_fns(
            &nodes,
            &switch_of,
            v.div_ceil(per_switch) as usize,
            |a, b| 0.05 + 0.3 * frac(splitmix64(seed ^ (a.0 as u64 * 1_000_003 + b.0 as u64))),
            |s, t| 0.2 + 0.6 * frac(splitmix64(seed ^ ((s as u64) << 32 | t as u64))),
        );
        let cl = (0..v)
            .map(|u| 0.1 + 0.8 * frac(splitmix64(seed ^ (u as u64 + 17))))
            .collect();
        let l = Loads::from_parts(nodes, cl, nl, vec![4; v as usize]);
        // (n, α, β, cost bits, winner, expanded): the winner and how many
        // starts the search expands to find it are both pinned, so a
        // change to the class order cannot move either unseen
        let shape: [(u32, f64, f64, u64, u32, usize); 15] = [
            (4, 0.3, 0.7, 0x3effffbf0721eee3, 667, 48),
            (4, 0.4, 0.6, 0x3f05552a04c149ed, 667, 48),
            (4, 0.7, 0.3, 0x3f12aa84c42920af, 667, 48),
            (8, 0.3, 0.7, 0x3f101e62109c4e55, 1209, 62),
            (8, 0.4, 0.6, 0x3f157c0f90dee594, 1209, 58),
            (8, 0.7, 0.3, 0x3f22ad930c7a5e00, 667, 49),
            (16, 0.3, 0.7, 0x3f2149608065c22e, 1217, 123),
            (16, 0.4, 0.6, 0x3f2683b0329d9f95, 988, 87),
            (16, 0.7, 0.3, 0x3f3310bc7f19e79a, 1209, 55),
            (64, 0.3, 0.7, 0x3f44a6171457792b, 1984, 319),
            (64, 0.4, 0.6, 0x3f496556f8d27a2c, 1217, 173),
            (64, 0.7, 0.3, 0x3f549c21e69ac074, 868, 94),
            (256, 0.3, 0.7, 0x3f6e40e639b70c35, 354, 1831),
            (256, 0.4, 0.6, 0x3f71fa4842372eda, 364, 1437),
            (256, 0.7, 0.3, 0x3f78c2fcd72bc282, 1217, 427),
        ];
        let mut pruned_past_first_wave = false;
        for &(n, a, b, cost, start, expanded) in &shape {
            let want = exhaustive_winner(&l, n, a, b).unwrap();
            let got = allocate_pruned(&l, n, a, b).unwrap();
            assert_eq!(
                (got.cost.to_bits(), got.winner.start),
                (want.0.to_bits(), want.1),
                "n {n} α {a} β {b}"
            );
            assert_eq!(
                (got.cost.to_bits(), got.winner.start.0, got.expanded),
                (cost, start, expanded),
                "n {n} α {a} β {b}"
            );
            assert_eq!(got.expanded + got.pruned, l.usable.len());
            pruned_past_first_wave |= got.pruned > 0 && got.expanded > per_switch as usize;
        }
        assert!(
            pruned_past_first_wave,
            "no case pruned after the first wave"
        );
    }

    #[test]
    fn neighbourhood_cut_keeps_pruned_equal_to_exhaustive() {
        // 320 switches, wider than a neighbourhood; β < 0 falls back to
        // the full row of stream heads, and a negative weight bounds its
        // term by the largest share
        use crate::candidate::{wide_universe, TieredBuckets};
        // (universe, n, α, β, cost bits, winner, expanded), pinned as in
        // `multi_wave_tiered_winner_matches_exhaustive`
        let shape: [(&str, u32, f64, f64, u64, u32, usize); 20] = [
            ("random", 7, 0.3, 0.7, 0x3f28008c292fbd5d, 334, 18),
            ("random", 7, 0.0, 1.0, 0x3e9609ed33d19af3, 514, 25),
            ("random", 7, 0.7, 0.3, 0x3f3b5805bbc4e107, 721, 22),
            ("random", 7, 0.5, -0.5, 0x3f3215f17e43d70f, 44, 783),
            ("random", 7, -0.3, 1.3, 0xbf6f72934ffeaca9, 460, 783),
            ("random", 32, 0.3, 0.7, 0x3f546fde720a2684, 462, 56),
            ("random", 32, 0.0, 1.0, 0x3f125e8d49222e7c, 227, 783),
            ("random", 32, 0.7, 0.3, 0x3f6382b8eb69a766, 506, 48),
            ("random", 32, 0.5, -0.5, 0x3f5bb018461cc059, 469, 783),
            ("random", 32, -0.3, 1.3, 0xbf84fa525324b165, 702, 783),
            ("quantized", 7, 0.3, 0.7, 0x3f231ba6d7cc5a87, 60, 52),
            ("quantized", 7, 0.0, 1.0, 0x3e93a76f4bf8315a, 45, 127),
            ("quantized", 7, 0.7, 0.3, 0x3f3630b8bcb3c95c, 60, 52),
            ("quantized", 7, 0.5, -0.5, 0x3f2f5c46fc1e1daa, 113, 829),
            ("quantized", 7, -0.3, 1.3, 0xbf6e8b2fc9f08ea6, 16, 829),
            ("quantized", 32, 0.3, 0.7, 0x3f4d2cf1a48a3bc2, 416, 129),
            ("quantized", 32, 0.0, 1.0, 0x3f0f17e3132fa614, 432, 829),
            ("quantized", 32, 0.7, 0.3, 0x3f5c3cf5dd0bb8d4, 520, 43),
            ("quantized", 32, 0.5, -0.5, 0x3f529d8c7dd846b1, 370, 829),
            ("quantized", 32, -0.3, 1.3, 0xbf85be0bb476ae3e, 454, 829),
        ];
        let universes = [
            ("random", wide_universe(320, 4, None, 0, 0xC0FFEE)),
            ("quantized", wide_universe(320, 4, None, 4, 0xBEEF)),
        ];
        let mut via_neighbourhood = false;
        for &(what, n, a, b, cost, start, expanded) in &shape {
            let l = &universes.iter().find(|u| u.0 == what).unwrap().1;
            let buckets = TieredBuckets::build(l, n, a, b);
            let near = buckets
                .start_switches()
                .any(|sv| buckets.seeds_from_neighbourhood(sv));
            assert!(b >= 0.0 || !near, "{what} n {n} α {a} β {b}");
            via_neighbourhood |= near;
            let want = exhaustive_winner(l, n, a, b).unwrap();
            let got = allocate_pruned(l, n, a, b).unwrap();
            assert_eq!(
                (got.cost.to_bits(), got.winner.start),
                (want.0.to_bits(), want.1),
                "{what} n {n} α {a} β {b}"
            );
            assert_eq!(
                (got.cost.to_bits(), got.winner.start.0, got.expanded),
                (cost, start, expanded),
                "{what} n {n} α {a} β {b}"
            );
            assert_eq!(got.expanded + got.pruned, l.usable.len());
        }
        assert!(via_neighbourhood, "no case seeded from a neighbourhood");
    }

    #[test]
    fn pool_rebuild_is_frac_min_build_bit_for_bit() {
        // 12 switches of 16 nodes, CLs in quarters and pc ∈ {1, 2, 4}:
        // densities tie across pc, so which entry a tie keeps first
        // decides the partial sums, and mixed pc leaves own streams out of
        // density order; one scratch serves every pool, as in a worker
        use nlrm_sim_core::rng::splitmix64;
        let h = |x: u64, salt: u64| splitmix64(x ^ salt);
        let v = 12 * 16u32;
        let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
        let switch_of: Vec<u32> = (0..v).map(|u| u / 16).collect();
        let nl = crate::TieredNl::from_fns(
            &nodes,
            &switch_of,
            12,
            |a, b| 0.05 + 0.01 * (h(u64::from(a.0) << 20 | u64::from(b.0), 3) % 8) as f64,
            |s, t| 0.2 + 0.05 * (h(u64::from(s) << 20 | u64::from(t), 4) % 4) as f64,
        );
        let cl = (0..v)
            .map(|u| 0.25 * (1 + h(u64::from(u), 1) % 4) as f64)
            .collect();
        let pc = (0..v)
            .map(|u| [1, 2, 4][(h(u64::from(u), 2) % 3) as usize])
            .collect();
        let l = Loads::from_parts(nodes, cl, nl, pc);
        // the pool of switch sv from first principles: its nodes with
        // capacity in (α·CL, id) order, then every other node with
        // capacity in (cost, id) order up to the one that covers n
        let pool_of = |sv: u32, n: u32, a: f64, b: f64| {
            let (mut own, mut foreign) = (Vec::new(), Vec::new());
            for (i, &u) in l.usable.iter().enumerate().filter(|&(i, _)| l.pc[i] > 0) {
                let s = l.nl.switch_of_node(u);
                if s == sv {
                    own.push((a * l.cl[i], u, l.cl[i], l.pc[i]));
                } else {
                    let cost = a * l.cl[i] + b * l.nl.inter_value(sv, s);
                    foreign.push((cost, u, l.cl[i], l.pc[i]));
                }
            }
            let key = |x: &(f64, NodeId, f64, u32), y: &(f64, NodeId, f64, u32)| {
                x.0.total_cmp(&y.0).then(x.1.cmp(&y.1))
            };
            own.sort_by(key);
            foreign.sort_by(key);
            let mut covered = 0u64;
            let end = foreign.iter().position(|f| {
                covered += u64::from(f.3);
                covered >= u64::from(n)
            });
            foreign.truncate(end.map_or(foreign.len(), |e| e + 1));
            let pool = own.into_iter().chain(foreign);
            pool.map(|(_, _, cl, pc)| (cl, pc))
                .collect::<Vec<(f64, u32)>>()
        };
        // the reference `FracMin`: a stable density sort of the pool,
        // then prefix sums in that order
        let reference = |pool: &[(f64, u32)]| {
            let mut e: Vec<(f64, f64, u32)> = pool
                .iter()
                .map(|&(cl, pc)| (cl / pc as f64, cl, pc))
                .collect();
            e.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut f = FracMin {
                pc_cum: vec![0],
                cl_cum: vec![0.0],
                ..FracMin::default()
            };
            for (d, cl, pc) in e {
                f.total_pc += pc as u64;
                f.total_cl += cl;
                f.pc_cum.push(f.total_pc);
                f.cl_cum.push(f.total_cl);
                f.density.push(d);
            }
            f
        };
        let bits = |f: &FracMin| {
            let b = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            let totals = (f.total_pc, f.total_cl.to_bits());
            (f.pc_cum.clone(), b(&f.cl_cum), b(&f.density), totals)
        };
        let density = |x: &(f64, u32)| x.0 / x.1 as f64;
        let (mut s, mut unsorted) = (PoolScratch::default(), 0);
        for n in [1, 6, 33, 200] {
            for (a, b) in [(0.3, 0.7), (0.7, 0.3), (1.0, 0.0), (0.0, 1.0)] {
                let buckets = TieredBuckets::build(&l, n, a, b);
                for sv in buckets.start_switches() {
                    let pool = pool_of(sv, n, a, b);
                    let own = &pool[..buckets.starts_on(sv).len()]; // every pc > 0
                    unsorted += usize::from(!own.is_sorted_by(|x, y| density(x) <= density(y)));
                    let want = reference(&pool);
                    let (prefix, entries, got) = &mut s;
                    got.rebuild(buckets.pool(sv, prefix), entries);
                    assert_eq!(bits(got), bits(&want), "n {n} α {a} β {b} switch {sv}");
                    for p in 0..=want.total_pc + 1 {
                        assert_eq!(got.query(p).to_bits(), want.query(p).to_bits(), "p {p}");
                    }
                }
            }
        }
        assert!(unsorted > 0, "every own stream was in density order");
    }

    #[test]
    fn zero_capacity_returns_none() {
        let l = loads(5, 7);
        let starved = Loads::from_parts(
            l.usable.clone(),
            l.cl.clone(),
            (*l.nl).clone(),
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
        let frac = l.frac_min();
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
        let frac = l.frac_min();
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

    #[test]
    fn neighbourhood_scale_search_shape_is_pinned() {
        // `mega-alloc`'s shape at 136 switches of 48 nodes, wider than one
        // neighbourhood: pc 4, its value ranges and its 12-request cycle
        use crate::candidate::TieredBuckets;
        use nlrm_sim_core::rng::{frac, splitmix64};
        let (v, per_switch, seed) = (136 * 48u32, 48u32, 0x4E16);
        let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
        let switch_of: Vec<u32> = (0..v).map(|u| u / per_switch).collect();
        let nl = crate::TieredNl::from_fns(
            &nodes,
            &switch_of,
            (v / per_switch) as usize,
            |a, b| 0.05 + 0.3 * frac(splitmix64(seed ^ (a.0 as u64 * 1_000_003 + b.0 as u64))),
            |s, t| 0.2 + 0.6 * frac(splitmix64(seed ^ ((s as u64) << 32 | t as u64))),
        );
        let cl = (0..v)
            .map(|u| 0.1 + 0.8 * frac(splitmix64(seed ^ (u as u64 + 17))))
            .collect();
        let l = Loads::from_parts(nodes, cl, nl, vec![4; v as usize]);
        // (n, α, β, cost bits, winner, expanded, pruned)
        let shape: [(u32, f64, f64, u64, u32, usize, usize); 12] = [
            (32, 0.3, 0.7, 0x3f15e810bc3b3401, 4122, 457, 6071),
            (64, 0.4, 0.6, 0x3f2d477e689bb7e6, 330, 228, 6300),
            (128, 0.7, 0.3, 0x3f48ff1142284f9c, 2118, 63, 6465),
            (256, 0.3, 0.7, 0x3f4b1d982a004603, 2149, 881, 5647),
            (32, 0.4, 0.6, 0x3f1ced4b78ca5d23, 4056, 279, 6249),
            (64, 0.7, 0.3, 0x3f37f6f1e0a814e5, 4351, 57, 6471),
            (128, 0.3, 0.7, 0x3f38626b243eca4c, 2149, 396, 6132),
            (256, 0.4, 0.6, 0x3f50f88aa0d7a84b, 2149, 477, 6051),
            (32, 0.7, 0.3, 0x3f27b16eaea84260, 5865, 66, 6462),
            (64, 0.3, 0.7, 0x3f271e4382f08117, 4122, 651, 5877),
            (128, 0.4, 0.6, 0x3f3f99fb3405d941, 774, 415, 6113),
            (256, 0.7, 0.3, 0x3f5aa2eaf90200ac, 1354, 128, 6400),
        ];
        let mut certified = false;
        for &(n, a, b, cost, start, expanded, pruned) in &shape {
            let buckets = TieredBuckets::build(&l, n, a, b);
            certified |= buckets
                .start_switches()
                .any(|sv| buckets.seeds_from_neighbourhood(sv));
            let got = allocate_pruned(&l, n, a, b).unwrap();
            assert_eq!(
                (
                    got.cost.to_bits(),
                    got.winner.start.0,
                    got.expanded,
                    got.pruned
                ),
                (cost, start, expanded, pruned),
                "n {n} α {a} β {b}"
            );
        }
        assert!(certified, "no prefix took the neighbourhood cut");
    }
}
