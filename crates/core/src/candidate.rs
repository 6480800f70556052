//! Algorithm 1: greedy candidate sub-graph generation.
//!
//! For a start node `v`, every other node `u` gets an addition cost
//! `A_v(u) = α·CL(u) + β·NL(v,u)`; nodes are added in increasing `A_v`
//! order until the requested process count is covered. If the whole cluster
//! cannot cover it, the remainder is assigned round-robin over the selected
//! nodes (paper Algorithm 1, lines 12–13).
//!
//! ## Scaling
//!
//! The paper sorts all `V` addition costs per start node — O(V log V) each,
//! O(V² log V) for the full candidate set. This module keeps the *output*
//! identical while cutting the work:
//!
//! * [`generate_candidate`] heapifies the addition costs in O(V) and pops
//!   only until `n` processes are covered — a bounded partial selection,
//!   O(V + k log V) per start node.
//! * On a tiered network-load representation
//!   ([`TieredNl`]), [`generate_all_candidates`]
//!   exploits that every node of a foreign switch shares the same
//!   `NL(v,·)` term: per-switch streams pre-sorted by compute load are
//!   lazily merged per start node, so no start node ever scans the whole
//!   cluster.
//! * Start nodes are fanned out over worker threads
//!   ([`par`]); outputs land in input order, so the candidate
//!   vector is identical to the serial path.
//!
//! Candidates that cannot host a single process (every usable node at
//! `pc = 0`) are filtered out: an empty candidate would otherwise satisfy
//! zero of `n` requested processes yet still reach — and possibly win —
//! Algorithm 2's selection.

use crate::loads::Loads;
use crate::par;
use crate::tiered::TieredNl;
use nlrm_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A candidate sub-graph: the greedy result for one start node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The start node `v` this candidate grew from.
    pub start: NodeId,
    /// Selected nodes in addition order (start node first).
    pub nodes: Vec<NodeId>,
    /// Processes assigned per node, parallel to `nodes`.
    pub procs: Vec<u32>,
}

impl Candidate {
    /// Total processes assigned.
    pub fn total_procs(&self) -> u32 {
        self.procs.iter().sum()
    }

    /// Nodes and process counts zipped.
    pub fn assignment(&self) -> Vec<(NodeId, u32)> {
        self.nodes
            .iter()
            .copied()
            .zip(self.procs.iter().copied())
            .collect()
    }
}

/// A `(cost, node)` entry ordered ascending by cost, ties by node id — the
/// total order Algorithm 1's sort used, so heap pops reproduce it exactly.
#[derive(PartialEq)]
struct CostEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for CostEntry {}

impl Ord for CostEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .total_cmp(&other.cost)
            .then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for CostEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Spread `n − allocated` oversubscribed processes round-robin over the
/// selected nodes (paper Algorithm 1, lines 12–13) in O(len) arithmetic
/// instead of one loop iteration per process: node `i` gains
/// `⌊r/len⌋ + (i < r mod len)`. Additions saturate so a pathological
/// request near `u32::MAX` can never wrap a per-node count.
fn distribute_remainder(procs: &mut [u32], allocated: u64, n: u32) {
    if procs.is_empty() || allocated >= n as u64 {
        return;
    }
    let remainder = n as u64 - allocated;
    let len = procs.len() as u64;
    let per = (remainder / len) as u32;
    let extra = (remainder % len) as usize;
    for (i, p) in procs.iter_mut().enumerate() {
        *p = p.saturating_add(per).saturating_add(u32::from(i < extra));
    }
}

/// Walk entries in `(cost, id)` order, assigning processes greedily until
/// `n` are covered; shared by the heap and the bucketed paths.
struct GreedyTake {
    nodes: Vec<NodeId>,
    procs: Vec<u32>,
    allocated: u64,
    n: u64,
}

impl GreedyTake {
    fn new(n: u32) -> Self {
        GreedyTake {
            nodes: Vec::new(),
            procs: Vec::new(),
            allocated: 0,
            n: n as u64,
        }
    }

    fn satisfied(&self) -> bool {
        self.allocated >= self.n
    }

    /// Offer the next-cheapest node; returns `false` once the request is
    /// covered and the walk can stop.
    fn offer(&mut self, node: NodeId, pc: u32) -> bool {
        if self.satisfied() {
            return false;
        }
        let take = (pc as u64).min(self.n - self.allocated) as u32;
        if take > 0 {
            self.nodes.push(node);
            self.procs.push(take);
            self.allocated += take as u64;
        }
        !self.satisfied()
    }

    fn finish(mut self, start: NodeId, n: u32) -> Candidate {
        distribute_remainder(&mut self.procs, self.allocated, n);
        Candidate {
            start,
            nodes: self.nodes,
            procs: self.procs,
        }
    }
}

/// Generate the candidate sub-graph for start node `v` (Algorithm 1).
///
/// `n` is the requested process count. Ties in `A_v(u)` break by node id so
/// candidate generation is deterministic. Internally a bounded partial
/// selection: the addition costs are heapified in O(V) and popped only
/// until `n` processes are covered, instead of fully sorting all V costs.
pub fn generate_candidate(loads: &Loads, v: NodeId, n: u32, alpha: f64, beta: f64) -> Candidate {
    debug_assert!(loads.index(v).is_some(), "start node must be usable");
    // addition cost per usable node; A_v(v) = 0 so v always joins first
    let entries: Vec<Reverse<CostEntry>> = loads
        .usable
        .iter()
        .map(|&u| {
            let cost = if u == v {
                0.0
            } else {
                alpha * loads.cl_of(u) + beta * loads.nl_between(v, u)
            };
            Reverse(CostEntry { cost, node: u })
        })
        .collect();
    let mut heap = BinaryHeap::from(entries);
    let mut take = GreedyTake::new(n);
    while let Some(Reverse(e)) = heap.pop() {
        if !take.offer(e.node, loads.pc_of(e.node)) {
            break;
        }
    }
    take.finish(v, n)
}

/// All candidates, one per usable start node (§3.3.2: "we find candidate
/// sub-graph corresponding to each node in the graph"), in `loads.usable`
/// order. Candidates that could not place a single process (zero-capacity
/// universe) are dropped; an empty return therefore means the request is
/// unsatisfiable.
///
/// Start nodes are evaluated on worker threads with a deterministic
/// reduction (outputs keep input order), and a tiered network-load
/// representation switches to bucketed per-switch generation — both paths
/// produce byte-identical candidates to the serial dense path.
pub fn generate_all_candidates(loads: &Loads, n: u32, alpha: f64, beta: f64) -> Vec<Candidate> {
    let cands: Vec<Candidate> = match loads.nl.as_tiered() {
        Some(t) => generate_all_tiered(loads, t, n, alpha, beta),
        None => par::par_map(&loads.usable, |&v| {
            generate_candidate(loads, v, n, alpha, beta)
        }),
    };
    cands
        .into_iter()
        .filter(|c| c.total_procs() as u64 >= n as u64)
        .collect()
}

/// Per-switch streams of usable nodes with spare capacity, pre-sorted by
/// `(CL, id)` — the order any *foreign* start node visits them in, since
/// the tiered `NL(v, u)` term is constant across a foreign switch.
pub(crate) struct TieredBuckets<'a> {
    t: &'a TieredNl,
    alpha: f64,
    beta: f64,
    n: u32,
    /// `(cl, pc, node)` per switch, sorted ascending by `(cl, id)`.
    streams: Vec<Vec<(f64, u32, NodeId)>>,
    /// Switches with at least one stream entry.
    nonempty: Vec<u32>,
}

/// Where the next merge item comes from.
#[derive(Clone, Copy)]
enum Src {
    /// Position in the start's own-switch exact list.
    Own(usize),
    /// `(index into the stream order, position within that stream)`.
    Stream(usize, usize),
}

struct MergeItem {
    cost: f64,
    node: NodeId,
    src: Src,
}

impl PartialEq for MergeItem {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.node == other.node
    }
}
impl Eq for MergeItem {}
impl Ord for MergeItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .total_cmp(&other.cost)
            .then(self.node.cmp(&other.node))
    }
}
impl PartialOrd for MergeItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a> TieredBuckets<'a> {
    pub(crate) fn build(
        loads: &'a Loads,
        t: &'a TieredNl,
        n: u32,
        alpha: f64,
        beta: f64,
    ) -> TieredBuckets<'a> {
        let mut streams: Vec<Vec<(f64, u32, NodeId)>> = vec![Vec::new(); t.num_switches()];
        for (i, &node) in loads.usable.iter().enumerate() {
            if loads.pc[i] == 0 {
                continue;
            }
            streams[t.switch_of_node(node) as usize].push((loads.cl[i], loads.pc[i], node));
        }
        // sort by (α·CL, id) — the merge key is α·CL + const(switch), so
        // this is merge order; ties in α·CL (notably the whole stream when
        // α = 0) fall back to id order, matching the dense sort exactly
        for s in &mut streams {
            s.sort_by(|a, b| (alpha * a.0).total_cmp(&(alpha * b.0)).then(a.2.cmp(&b.2)));
        }
        let nonempty: Vec<u32> = (0..streams.len() as u32)
            .filter(|&s| !streams[s as usize].is_empty())
            .collect();
        TieredBuckets {
            t,
            alpha,
            beta,
            n,
            streams,
            nonempty,
        }
    }

    /// The `(cost, id)` key of element `pos` of switch `s`'s stream, as a
    /// start node on switch `sv` sees it. Computed with the exact same
    /// float expression as the dense path so merge order is bit-identical.
    fn stream_key(&self, sv: u32, s: u32, pos: usize) -> (f64, NodeId) {
        let (cl, _, node) = self.streams[s as usize][pos];
        (
            self.alpha * cl + self.beta * self.t.inter_value(sv, s),
            node,
        )
    }

    /// Foreign nonempty switches ordered by their head key for start
    /// switch `sv` — shared by every start node on `sv`.
    pub(crate) fn stream_order(&self, sv: u32) -> Vec<u32> {
        let mut order: Vec<u32> = self.nonempty.iter().copied().filter(|&s| s != sv).collect();
        order.sort_by(|&a, &b| {
            let ka = self.stream_key(sv, a, 0);
            let kb = self.stream_key(sv, b, 0);
            ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1))
        });
        order
    }

    /// Generate the candidate for start `v` by lazily merging its own
    /// switch's exact costs with the foreign per-switch streams. Only
    /// streams whose head can still compete are ever touched, so covering
    /// `k` processes costs O(m log m + (k + touched) log (k + touched))
    /// rather than O(V log V).
    ///
    /// Streams are sorted by `(α·CL, id)` while the merge order is
    /// `(cost, id)` with `cost = α·CL + const` — equal costs (the whole
    /// stream when α = 0, or rounding collisions after adding the offset)
    /// can hide an id inversion behind the stream head. Entire equal-cost
    /// *runs* are therefore pushed together (runs are contiguous because
    /// cost is monotone in α·CL), letting the heap order ties by id
    /// exactly as the dense sort does.
    pub(crate) fn generate_for(&self, v: NodeId, order: &[u32]) -> Candidate {
        let sv = self.t.switch_of_node(v);
        // exact addition costs within the start's own switch
        let mut own: Vec<(f64, NodeId, u32)> = self.streams[sv as usize]
            .iter()
            .map(|&(cl, pc, u)| {
                let cost = if u == v {
                    0.0
                } else {
                    self.alpha * cl + self.beta * self.t.get(v, u)
                };
                (cost, u, pc)
            })
            .collect();
        own.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut heap: BinaryHeap<Reverse<MergeItem>> = BinaryHeap::new();
        if let Some(&(cost, node, _)) = own.first() {
            heap.push(Reverse(MergeItem {
                cost,
                node,
                src: Src::Own(0),
            }));
        }
        // per seeded stream: next unpushed position and in-heap item count
        let mut cursor = vec![0usize; order.len()];
        let mut outstanding = vec![0usize; order.len()];
        let push_run = |oi: usize,
                        heap: &mut BinaryHeap<Reverse<MergeItem>>,
                        cursor: &mut [usize],
                        outstanding: &mut [usize]| {
            let s = order[oi];
            let len = self.streams[s as usize].len();
            let start = cursor[oi];
            if start >= len {
                return;
            }
            let (run_cost, _) = self.stream_key(sv, s, start);
            let mut pos = start;
            while pos < len {
                let (cost, node) = self.stream_key(sv, s, pos);
                if cost.total_cmp(&run_cost) != std::cmp::Ordering::Equal {
                    break;
                }
                heap.push(Reverse(MergeItem {
                    cost,
                    node,
                    src: Src::Stream(oi, pos),
                }));
                pos += 1;
            }
            outstanding[oi] = pos - start;
            cursor[oi] = pos;
        };
        let mut next_stream = 0usize;
        let mut take = GreedyTake::new(self.n);
        loop {
            // seed every unseeded stream whose head cost can still compete;
            // seeding on cost *ties* guarantees the heap holds every item
            // that could beat its min on the id tie-break
            while next_stream < order.len() {
                let s = order[next_stream];
                let (cost, _) = self.stream_key(sv, s, 0);
                let must_seed = match heap.peek() {
                    None => true,
                    Some(Reverse(min)) => cost.total_cmp(&min.cost) != std::cmp::Ordering::Greater,
                };
                if !must_seed {
                    break;
                }
                push_run(next_stream, &mut heap, &mut cursor, &mut outstanding);
                next_stream += 1;
            }
            let Some(Reverse(item)) = heap.pop() else {
                break;
            };
            let pc = match item.src {
                Src::Own(pos) => own[pos].2,
                Src::Stream(oi, pos) => self.streams[order[oi] as usize][pos].1,
            };
            let more = take.offer(item.node, pc);
            if !more {
                break;
            }
            // advance the popped source
            match item.src {
                Src::Own(pos) => {
                    if let Some(&(cost, node, _)) = own.get(pos + 1) {
                        heap.push(Reverse(MergeItem {
                            cost,
                            node,
                            src: Src::Own(pos + 1),
                        }));
                    }
                }
                Src::Stream(oi, _) => {
                    outstanding[oi] -= 1;
                    if outstanding[oi] == 0 {
                        push_run(oi, &mut heap, &mut cursor, &mut outstanding);
                    }
                }
            }
        }
        take.finish(v, self.n)
    }
}

/// Bucketed generation over a tiered representation: group start nodes by
/// switch, compute the shared foreign-stream order once per switch, and fan
/// switches out across workers. Output is in `loads.usable` order.
fn generate_all_tiered(
    loads: &Loads,
    t: &TieredNl,
    n: u32,
    alpha: f64,
    beta: f64,
) -> Vec<Candidate> {
    let buckets = TieredBuckets::build(loads, t, n, alpha, beta);
    // group usable positions by start switch
    let mut by_switch: Vec<Vec<usize>> = vec![Vec::new(); t.num_switches()];
    for (i, &v) in loads.usable.iter().enumerate() {
        by_switch[t.switch_of_node(v) as usize].push(i);
    }
    let active: Vec<u32> = (0..t.num_switches() as u32)
        .filter(|&s| !by_switch[s as usize].is_empty())
        .collect();
    let per_switch: Vec<Vec<(usize, Candidate)>> = par::par_map(&active, |&sv| {
        let order = buckets.stream_order(sv);
        by_switch[sv as usize]
            .iter()
            .map(|&i| (i, buckets.generate_for(loads.usable[i], &order)))
            .collect()
    });
    let mut out: Vec<Option<Candidate>> = (0..loads.usable.len()).map(|_| None).collect();
    for group in per_switch {
        for (i, cand) in group {
            out[i] = Some(cand);
        }
    }
    out.into_iter()
        .map(|c| c.expect("every start generated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loads::Loads;
    use crate::weights::{ComputeWeights, NetworkWeights};
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::MonitorRuntime;
    use nlrm_sim_core::time::Duration;

    fn loads(n_nodes: usize, seed: u64, ppn: Option<u32>) -> Loads {
        let mut cluster = small_cluster(n_nodes, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        Loads::derive(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            ppn,
        )
        .unwrap()
    }

    /// The original full-sort Algorithm 1, kept as the test oracle for the
    /// bounded-heap and bucketed paths.
    fn generate_candidate_reference(
        loads: &Loads,
        v: NodeId,
        n: u32,
        alpha: f64,
        beta: f64,
    ) -> Candidate {
        let mut order: Vec<(f64, NodeId)> = loads
            .usable
            .iter()
            .map(|&u| {
                let cost = if u == v {
                    0.0
                } else {
                    alpha * loads.cl_of(u) + beta * loads.nl_between(v, u)
                };
                (cost, u)
            })
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut take = GreedyTake::new(n);
        for &(_, u) in &order {
            if !take.offer(u, loads.pc_of(u)) {
                break;
            }
        }
        take.finish(v, n)
    }

    #[test]
    fn candidate_satisfies_request_exactly() {
        let l = loads(8, 3, Some(4));
        let c = generate_candidate(&l, l.usable[0], 16, 0.3, 0.7);
        assert_eq!(c.total_procs(), 16);
        assert_eq!(c.nodes.len(), 4); // 16 procs / 4 ppn
        assert_eq!(c.start, l.usable[0]);
        assert_eq!(c.nodes[0], c.start, "start node joins first");
    }

    #[test]
    fn last_node_gets_partial_count() {
        let l = loads(8, 3, Some(4));
        let c = generate_candidate(&l, l.usable[0], 10, 0.3, 0.7);
        assert_eq!(c.total_procs(), 10);
        assert_eq!(c.procs, vec![4, 4, 2]);
    }

    #[test]
    fn oversubscription_round_robins() {
        // 4 nodes × 4 ppn = 16 capacity, ask for 21
        let l = loads(4, 3, Some(4));
        let c = generate_candidate(&l, l.usable[0], 21, 0.3, 0.7);
        assert_eq!(c.total_procs(), 21);
        assert_eq!(c.nodes.len(), 4);
        // round-robin: first gets 2 extra... 16 + 5 → procs [6, 6, 5, 4]? No:
        // base [4,4,4,4], remainder 5 distributed 0,1,2,3,0 → [6,5,5,5]
        assert_eq!(c.procs, vec![6, 5, 5, 5]);
    }

    #[test]
    fn huge_oversubscription_near_u32_max_is_fast_and_exact() {
        // Regression: the remainder used to be distributed one process per
        // loop iteration, so a request near u32::MAX on a 4-node cluster
        // would spin ~4 billion times; the counts are now computed
        // arithmetically with saturating adds.
        let l = loads(4, 3, Some(4));
        let n = u32::MAX - 7;
        let c = generate_candidate(&l, l.usable[0], n, 0.3, 0.7);
        assert_eq!(c.total_procs() as u64, n as u64);
        assert_eq!(c.procs.iter().map(|&p| p as u64).sum::<u64>(), n as u64);
        // balanced round-robin: counts differ by at most one
        let max = *c.procs.iter().max().unwrap() as u64;
        let min = *c.procs.iter().min().unwrap() as u64;
        assert!(max - min <= 1, "unbalanced: {:?}", c.procs);
    }

    #[test]
    fn single_node_cluster_takes_full_u32_request() {
        let l = Loads::from_parts(
            vec![NodeId(0)],
            vec![0.5],
            nlrm_monitor::SymMatrix::new(1, 0.0),
            vec![4],
        );
        let c = generate_candidate(&l, NodeId(0), u32::MAX, 0.3, 0.7);
        assert_eq!(c.nodes.len(), 1);
        assert_eq!(c.procs, vec![u32::MAX]);
    }

    #[test]
    fn heap_path_matches_full_sort_reference() {
        for seed in [3, 5, 9, 11] {
            let l = loads(10, seed, Some(4));
            for &v in &l.usable {
                for n in [1, 7, 16, 40, 100] {
                    let heap = generate_candidate(&l, v, n, 0.3, 0.7);
                    let reference = generate_candidate_reference(&l, v, n, 0.3, 0.7);
                    assert_eq!(heap, reference, "seed {seed} start {v} n {n}");
                }
            }
        }
    }

    #[test]
    fn nodes_are_distinct() {
        let l = loads(10, 9, Some(4));
        for &v in &l.usable {
            let c = generate_candidate(&l, v, 24, 0.5, 0.5);
            let mut seen = c.nodes.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), c.nodes.len());
        }
    }

    #[test]
    fn alpha_one_ignores_network() {
        // with β = 0, order after the start node is purely by CL
        let l = loads(8, 5, Some(4));
        let c = generate_candidate(&l, l.usable[0], 32, 1.0, 0.0);
        let tail = &c.nodes[1..];
        for w in tail.windows(2) {
            let a = l.cl_of(w[0]);
            let b = l.cl_of(w[1]);
            assert!(
                a <= b + 1e-12,
                "CL must be non-decreasing after start: {a} > {b}"
            );
        }
    }

    #[test]
    fn all_candidates_cover_every_start() {
        let l = loads(6, 5, Some(4));
        let cands = generate_all_candidates(&l, 8, 0.3, 0.7);
        assert_eq!(cands.len(), 6);
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(c.start, l.usable[i]);
            assert_eq!(c.total_procs(), 8);
        }
    }

    #[test]
    fn zero_capacity_universe_yields_no_candidates() {
        // Regression: a cluster where every usable node has pc = 0 used to
        // produce empty candidates that satisfied 0 of n processes yet
        // could still win selection.
        let l = loads(5, 7, Some(4));
        let starved = Loads::from_parts(
            l.usable.clone(),
            l.cl.clone(),
            l.nl.clone(),
            vec![0; l.usable.len()],
        );
        let cands = generate_all_candidates(&starved, 8, 0.3, 0.7);
        assert!(cands.is_empty(), "empty candidates must be filtered");
        // a lone empty candidate from the single-start API is visible too
        let c = generate_candidate(&starved, starved.usable[0], 8, 0.3, 0.7);
        assert_eq!(c.total_procs(), 0);
        assert!(c.nodes.is_empty());
    }

    #[test]
    fn effective_pc_limits_without_ppn() {
        let l = loads(8, 3, None);
        let c = generate_candidate(&l, l.usable[0], 16, 0.3, 0.7);
        for (&node, &p) in c.nodes.iter().zip(&c.procs) {
            assert!(p <= l.pc_of(node), "node {node} got {p} > pc");
        }
    }
}
