//! The allocation policies compared in the paper's §5, plus a brute-force
//! optimum used to validate the greedy heuristic.
//!
//! * **random** — "randomly selects the required number of nodes from active
//!   nodes."
//! * **sequential** — "first selects a random node and adds neighboring
//!   nodes (topologically) as required", i.e. consecutive node numbers.
//! * **load-aware** — "selects the group of nodes with minimal load" (our
//!   Eq. 1 compute load, network ignored).
//! * **network-and-load-aware** — the contribution: Algorithms 1 + 2, run
//!   by [`place`], the one placement stage the policy, the broker and the
//!   SLURM adapter share.

use crate::candidate::{generate_all_candidates, greedy_take, TieredBuckets};
use crate::loads::Loads;
use crate::request::{AllocError, Allocation, AllocationRequest, Diagnostics};
use crate::select::{explain_selection, group_cost, group_mean_network_load, select_best};
use crate::weights::ComputeWeights;
use nlrm_monitor::ClusterSnapshot;
use nlrm_sim_core::rng::RngFactory;
use nlrm_topology::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// An allocation policy: snapshot + request → node group.
pub trait Policy {
    /// Short display name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// Allocate nodes for `req` given the monitor's `snap`.
    fn allocate(
        &mut self,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
    ) -> Result<Allocation, AllocError>;
}

/// Algorithm 1's greedy walk over a baseline's `order`: each node takes up
/// to its `pc_v` processes until `n` are placed, and leftover demand
/// round-robins over the selected nodes.
fn pack(loads: &Loads, order: &[NodeId], n: u32) -> Vec<(NodeId, u32)> {
    let (nodes, procs) = greedy_take(order.iter().map(|&u| (u, loads.pc_of(u))), n);
    nodes.into_iter().zip(procs).collect()
}

fn build_allocation(
    policy: &str,
    loads: &Loads,
    assignment: Vec<(NodeId, u32)>,
    extra: Diagnostics,
) -> Allocation {
    let selected: Vec<NodeId> = assignment.iter().map(|&(n, _)| n).collect();
    let mean_cl = if selected.is_empty() {
        0.0
    } else {
        selected.iter().map(|&u| loads.cl_of(u)).sum::<f64>() / selected.len() as f64
    };
    let rank_map = Allocation::block_rank_map(&assignment);
    Allocation {
        policy: policy.to_string(),
        nodes: assignment,
        rank_map,
        diagnostics: Diagnostics {
            mean_compute_load: mean_cl,
            mean_network_load: group_mean_network_load(loads, &selected),
            ..extra
        },
    }
}

/// The placement stage: Algorithm 1 candidates → Algorithm 2 selection by
/// Eq. 4 → explain trace → [`Allocation`], over an already-derived (and
/// possibly [restricted](Loads::restrict)) `view`.
///
/// `starts` pins Algorithm 1's start nodes (SLURM `--nodelist`); one that
/// is not usable in `view` fails the stage with
/// [`AllocError::InvalidRequest`]. `None` grows one candidate from every
/// usable node. Candidates that cannot place all `req.procs` never reach
/// selection, and when none is left the stage fails with
/// [`AllocError::NoCapacity`].
pub fn place(
    view: &Loads,
    req: &AllocationRequest,
    starts: Option<&[NodeId]>,
    policy: &str,
) -> Result<Allocation, AllocError> {
    let candidates = match starts {
        None => generate_all_candidates(view, req.procs, req.alpha, req.beta),
        Some(starts) => {
            if let Some(v) = starts.iter().find(|&&v| view.index(v).is_none()) {
                return Err(AllocError::InvalidRequest(format!(
                    "start node {v} is not usable"
                )));
            }
            let buckets = TieredBuckets::build(view, req.procs, req.alpha, req.beta);
            (starts.iter().map(|&v| buckets.candidate(v)))
                .filter(|c| c.total_procs() as u64 >= req.procs as u64)
                .collect()
        }
    };
    if candidates.is_empty() {
        return Err(AllocError::NoCapacity);
    }
    let selection = select_best(view, &candidates, req.alpha, req.beta);
    let explain = explain_selection(&candidates, &selection, req.alpha, req.beta, 3);
    let winner = &candidates[selection.best];
    Ok(build_allocation(
        policy,
        view,
        winner.assignment(),
        Diagnostics {
            total_cost: selection.best_cost,
            candidate_costs: selection.costs,
            explain: Some(explain),
            ..Diagnostics::default()
        },
    ))
}

fn derive(snap: &ClusterSnapshot, req: &AllocationRequest) -> Result<Loads, AllocError> {
    req.validate()?;
    Loads::derive(snap, &req.compute_weights, &req.network_weights, req.ppn)
}

/// The `random` baseline.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: StdRng,
}

impl RandomPolicy {
    /// A random policy with its own seeded RNG stream.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: RngFactory::new(seed).named("policy-random"),
        }
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn allocate(
        &mut self,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
    ) -> Result<Allocation, AllocError> {
        let loads = derive(snap, req)?;
        let mut order = loads.usable.clone();
        order.shuffle(&mut self.rng);
        let assignment = pack(&loads, &order, req.procs);
        Ok(build_allocation(
            "random",
            &loads,
            assignment,
            Diagnostics::default(),
        ))
    }
}

/// The `sequential` baseline: a random start, then consecutive node numbers
/// (node numbering follows physical proximity, so this is "neighbouring
/// nodes topologically").
#[derive(Debug, Clone)]
pub struct SequentialPolicy {
    rng: StdRng,
}

impl SequentialPolicy {
    /// A sequential policy with its own seeded RNG stream.
    pub fn new(seed: u64) -> Self {
        SequentialPolicy {
            rng: RngFactory::new(seed).named("policy-sequential"),
        }
    }
}

impl Policy for SequentialPolicy {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn allocate(
        &mut self,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
    ) -> Result<Allocation, AllocError> {
        let loads = derive(snap, req)?;
        let start = self.rng.gen_range(0..loads.usable.len());
        let mut order = loads.usable.clone();
        order.rotate_left(start);
        let assignment = pack(&loads, &order, req.procs);
        Ok(build_allocation(
            "sequential",
            &loads,
            assignment,
            Diagnostics::default(),
        ))
    }
}

/// The `load-aware` baseline: minimal compute load, network ignored.
///
/// Faithful to the paper's baseline: it looks only at CPU/memory pressure.
/// The node data-flow-rate attribute is zeroed out of the SAW weights
/// (its weight redistributed proportionally), because a flow-rate-aware
/// baseline would already be partially network-aware — the paper's Table 4
/// shows its load-aware groups had the *worst* bandwidth, i.e. no network
/// signal at all.
#[derive(Debug, Clone, Default)]
pub struct LoadAwarePolicy;

impl LoadAwarePolicy {
    /// A load-aware policy (stateless).
    pub fn new() -> Self {
        LoadAwarePolicy
    }

    /// The request's compute weights with the network-ish attribute
    /// (flow rate) removed and the remainder renormalized to 1.
    fn compute_only_weights(w: &ComputeWeights) -> ComputeWeights {
        let mut out = *w;
        out.flow_rate = 0.0;
        let sum: f64 = out.as_array().iter().sum();
        if sum > 0.0 {
            out.cpu_load /= sum;
            out.cpu_util /= sum;
            out.memory /= sum;
            out.core_count /= sum;
            out.cpu_freq /= sum;
            out.total_mem /= sum;
            out.users /= sum;
        }
        out
    }
}

impl Policy for LoadAwarePolicy {
    fn name(&self) -> &'static str {
        "load-aware"
    }

    fn allocate(
        &mut self,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
    ) -> Result<Allocation, AllocError> {
        req.validate()?;
        let weights = Self::compute_only_weights(&req.compute_weights);
        let loads = Loads::derive(snap, &weights, &req.network_weights, req.ppn)?;
        let mut order = loads.usable.clone();
        order.sort_by(|&a, &b| loads.cl_of(a).total_cmp(&loads.cl_of(b)).then(a.cmp(&b)));
        let assignment = pack(&loads, &order, req.procs);
        Ok(build_allocation(
            "load-aware",
            &loads,
            assignment,
            Diagnostics::default(),
        ))
    }
}

/// The paper's contribution: network and load-aware allocation
/// (Algorithm 1 candidate generation + Algorithm 2 selection).
#[derive(Debug, Clone, Default)]
pub struct NetworkLoadAwarePolicy;

impl NetworkLoadAwarePolicy {
    /// A network-and-load-aware policy (stateless, deterministic).
    pub fn new() -> Self {
        NetworkLoadAwarePolicy
    }
}

impl Policy for NetworkLoadAwarePolicy {
    fn name(&self) -> &'static str {
        "network-load-aware"
    }

    fn allocate(
        &mut self,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
    ) -> Result<Allocation, AllocError> {
        let started = std::time::Instant::now();
        let loads = derive(snap, req)?;
        let allocation = place(&loads, req, None, "network-load-aware")?;
        nlrm_obs::ctx::observe(
            "alloc_decision_seconds",
            crate::scalable::DECISION_SECONDS_BOUNDS,
            started.elapsed().as_secs_f64(),
        );
        Ok(allocation)
    }
}

/// Exhaustive optimum over all groups of the minimal node count. Exponential
/// — only for validating the heuristic on small clusters. Requires `ppn`.
#[derive(Debug, Clone)]
pub struct BruteForcePolicy {
    /// Refuse searches beyond this many subsets (safety valve).
    pub max_subsets: u64,
}

impl Default for BruteForcePolicy {
    fn default() -> Self {
        BruteForcePolicy {
            max_subsets: 5_000_000,
        }
    }
}

impl BruteForcePolicy {
    /// A brute-force policy with the default subset budget.
    pub fn new() -> Self {
        Self::default()
    }
}

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

impl Policy for BruteForcePolicy {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn allocate(
        &mut self,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
    ) -> Result<Allocation, AllocError> {
        let ppn = req
            .ppn
            .ok_or_else(|| AllocError::InvalidRequest("brute force requires ppn".into()))?;
        let loads = derive(snap, req)?;
        let k = (req.procs as usize).div_ceil(ppn as usize);
        if loads.usable.len() < k {
            return Err(AllocError::NotEnoughNodes {
                available: loads.usable.len(),
                needed: k,
            });
        }
        if binomial(loads.usable.len() as u64, k as u64) > self.max_subsets {
            return Err(AllocError::InvalidRequest(format!(
                "brute force over C({}, {k}) subsets exceeds budget",
                loads.usable.len()
            )));
        }
        let mut best: Option<(f64, Vec<NodeId>)> = None;
        let mut subset = Vec::with_capacity(k);
        search(
            &loads,
            &loads.usable,
            0,
            k,
            req.alpha,
            req.beta,
            &mut subset,
            &mut best,
        );
        let (cost, nodes) = best.expect("at least one subset exists");
        let assignment = pack(&loads, &nodes, req.procs);
        Ok(build_allocation(
            "brute-force",
            &loads,
            assignment,
            Diagnostics {
                total_cost: cost,
                ..Diagnostics::default()
            },
        ))
    }
}

#[allow(clippy::too_many_arguments)]
fn search(
    loads: &Loads,
    universe: &[NodeId],
    from: usize,
    k: usize,
    alpha: f64,
    beta: f64,
    subset: &mut Vec<NodeId>,
    best: &mut Option<(f64, Vec<NodeId>)>,
) {
    if subset.len() == k {
        let cost = group_cost(loads, subset, alpha, beta);
        if best.as_ref().is_none_or(|(b, _)| cost < *b) {
            *best = Some((cost, subset.clone()));
        }
        return;
    }
    let remaining = k - subset.len();
    for i in from..=universe.len().saturating_sub(remaining) {
        subset.push(universe[i]);
        search(loads, universe, i + 1, k, alpha, beta, subset, best);
        subset.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::MonitorRuntime;
    use nlrm_sim_core::time::Duration;

    fn snapshot(n: usize, seed: u64) -> ClusterSnapshot {
        let mut cluster = small_cluster(n, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap()
    }

    fn req(procs: u32) -> AllocationRequest {
        AllocationRequest::new(procs, Some(4), 0.3, 0.7)
    }

    #[test]
    fn every_policy_satisfies_process_count() {
        let snap = snapshot(8, 3);
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(RandomPolicy::new(1)),
            Box::new(SequentialPolicy::new(1)),
            Box::new(LoadAwarePolicy::new()),
            Box::new(NetworkLoadAwarePolicy::new()),
        ];
        for mut p in policies {
            let alloc = p.allocate(&snap, &req(16)).unwrap();
            assert_eq!(alloc.total_procs(), 16, "{}", p.name());
            assert_eq!(alloc.rank_map.len(), 16, "{}", p.name());
            assert_eq!(alloc.node_list().len(), 4, "{}", p.name());
        }
    }

    #[test]
    fn load_aware_picks_least_loaded() {
        let snap = snapshot(8, 3);
        let r = req(8);
        let weights = LoadAwarePolicy::compute_only_weights(&r.compute_weights);
        let loads = Loads::derive(&snap, &weights, &r.network_weights, r.ppn).unwrap();
        let alloc = LoadAwarePolicy::new().allocate(&snap, &r).unwrap();
        let picked = alloc.node_list();
        let mut by_cl = loads.usable.clone();
        by_cl.sort_by(|&a, &b| loads.cl_of(a).total_cmp(&loads.cl_of(b)).then(a.cmp(&b)));
        assert_eq!(picked, by_cl[..2].to_vec());
    }

    #[test]
    fn load_aware_weights_ignore_flow_rate() {
        let w = LoadAwarePolicy::compute_only_weights(&ComputeWeights::paper_default());
        assert_eq!(w.flow_rate, 0.0);
        w.validate().unwrap();
        // cpu_load keeps its dominance after renormalization: 0.3/0.8
        assert!((w.cpu_load - 0.375).abs() < 1e-12);
    }

    #[test]
    fn sequential_allocates_consecutive_ids() {
        let snap = snapshot(8, 3);
        let alloc = SequentialPolicy::new(5).allocate(&snap, &req(12)).unwrap();
        let picked = alloc.node_list();
        for w in picked.windows(2) {
            let step = (w[1].0 as i64 - w[0].0 as i64).rem_euclid(8);
            assert_eq!(step, 1, "non-consecutive pick {picked:?}");
        }
    }

    #[test]
    fn random_differs_across_calls() {
        let snap = snapshot(12, 3);
        let mut p = RandomPolicy::new(7);
        let a = p.allocate(&snap, &req(8)).unwrap().node_list();
        let b = p.allocate(&snap, &req(8)).unwrap().node_list();
        let c = p.allocate(&snap, &req(8)).unwrap().node_list();
        assert!(a != b || b != c, "three identical random draws");
    }

    #[test]
    fn nla_is_deterministic() {
        let snap = snapshot(10, 9);
        let a = NetworkLoadAwarePolicy::new()
            .allocate(&snap, &req(16))
            .unwrap();
        let b = NetworkLoadAwarePolicy::new()
            .allocate(&snap, &req(16))
            .unwrap();
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.diagnostics.total_cost, b.diagnostics.total_cost);
    }

    #[test]
    fn nla_diagnostics_cover_all_candidates() {
        let snap = snapshot(10, 9);
        let alloc = NetworkLoadAwarePolicy::new()
            .allocate(&snap, &req(16))
            .unwrap();
        assert_eq!(alloc.diagnostics.candidate_costs.len(), 10);
        assert!(alloc.diagnostics.total_cost > 0.0);
    }

    #[test]
    fn nla_beats_or_ties_baselines_on_its_own_objective() {
        let snap = snapshot(12, 21);
        let r = req(16);
        let loads = derive(&snap, &r).unwrap();
        let nla = NetworkLoadAwarePolicy::new().allocate(&snap, &r).unwrap();
        let nla_cost = group_cost(&loads, &nla.node_list(), r.alpha, r.beta);
        for mut p in [
            Box::new(RandomPolicy::new(3)) as Box<dyn Policy>,
            Box::new(SequentialPolicy::new(3)),
        ] {
            let alloc = p.allocate(&snap, &r).unwrap();
            let cost = group_cost(&loads, &alloc.node_list(), r.alpha, r.beta);
            assert!(
                nla_cost <= cost + 1e-9,
                "{} beat NLA on the Eq.4 objective: {cost} < {nla_cost}",
                p.name()
            );
        }
    }

    #[test]
    fn brute_force_matches_or_beats_heuristic() {
        let snap = snapshot(9, 13);
        let r = req(12); // k = 3 of 9 nodes: 84 subsets
        let loads = derive(&snap, &r).unwrap();
        let heuristic = NetworkLoadAwarePolicy::new().allocate(&snap, &r).unwrap();
        let optimal = BruteForcePolicy::new().allocate(&snap, &r).unwrap();
        let h_cost = group_cost(&loads, &heuristic.node_list(), r.alpha, r.beta);
        let o_cost = group_cost(&loads, &optimal.node_list(), r.alpha, r.beta);
        assert!(
            o_cost <= h_cost + 1e-12,
            "optimum {o_cost} worse than heuristic {h_cost}"
        );
        // the greedy heuristic is approximate; typical gaps measured by the
        // heuristic_vs_optimal experiment are 2–8% with a tail to ~40%
        assert!(
            h_cost <= o_cost * 1.5 + 1e-9,
            "heuristic gap too large: {h_cost} vs {o_cost}"
        );
    }

    #[test]
    fn pack_spreads_a_request_near_u32_max_in_closed_form() {
        // 4 nodes of pc 4 leave u32::MAX − 23 processes to round-robin: in
        // closed form, not ~4·10⁹ loop steps of one process each
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let nl = nlrm_monitor::SymMatrix::new(4, 0.1);
        let l = Loads::from_parts(nodes.clone(), vec![0.5; 4], nl, vec![4; 4]);
        let n = u32::MAX - 7;
        let packed = pack(&l, &nodes, n);
        assert_eq!(packed.iter().map(|&(u, _)| u).collect::<Vec<_>>(), nodes);
        let counts: Vec<u64> = packed.iter().map(|&(_, p)| p as u64).collect();
        assert_eq!(counts.iter().sum::<u64>(), n as u64);
        let (max, min) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
        assert!(max - min <= 1, "unbalanced: {counts:?}");
    }

    #[test]
    fn place_refuses_a_pinned_start_that_is_not_usable() {
        let snap = snapshot(8, 3);
        let r = req(8);
        let loads = derive(&snap, &r).unwrap();
        let dropped = loads.usable[2];
        let view = loads.restrict(|node, pc| if node == dropped { 0 } else { pc });
        let first = view.usable[0];
        // restricted away, and past the id range
        for start in [dropped, NodeId(1_000)] {
            let got = place(&view, &r, Some(&[first, start]), "pinned");
            assert!(
                matches!(got, Err(AllocError::InvalidRequest(_))),
                "{start}: {got:?}"
            );
        }
        let pinned = place(&view, &r, Some(&[first]), "pinned").unwrap();
        assert_eq!(pinned.nodes[0].0, first, "the pinned start joins first");
    }

    #[test]
    fn brute_force_requires_ppn() {
        let snap = snapshot(6, 3);
        let mut r = req(8);
        r.ppn = None;
        assert!(matches!(
            BruteForcePolicy::new().allocate(&snap, &r),
            Err(AllocError::InvalidRequest(_))
        ));
    }

    #[test]
    fn oversubscription_still_succeeds() {
        let snap = snapshot(4, 3);
        // 4 nodes × 4 ppn = 16 capacity; ask 20
        let alloc = NetworkLoadAwarePolicy::new()
            .allocate(&snap, &req(20))
            .unwrap();
        assert_eq!(alloc.total_procs(), 20);
        assert_eq!(alloc.node_list().len(), 4);
    }

    #[test]
    fn down_nodes_are_never_selected() {
        let mut cluster = small_cluster(8, 31);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.run_until(&mut cluster, nlrm_sim_core::time::SimTime::from_secs(360));
        cluster.schedule_failure(
            nlrm_sim_core::time::SimTime::from_secs(400),
            nlrm_topology::NodeId(2),
        );
        rt.run_until(&mut cluster, nlrm_sim_core::time::SimTime::from_secs(500));
        let snap = rt.snapshot(cluster.now()).unwrap();
        for mut p in [
            Box::new(RandomPolicy::new(3)) as Box<dyn Policy>,
            Box::new(SequentialPolicy::new(3)),
            Box::new(LoadAwarePolicy::new()),
            Box::new(NetworkLoadAwarePolicy::new()),
        ] {
            let alloc = p.allocate(&snap, &req(16)).unwrap();
            assert!(
                !alloc.node_list().contains(&nlrm_topology::NodeId(2)),
                "{} picked a down node",
                p.name()
            );
        }
    }
}
