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
//! identical while cutting the work. Every network load is a switch tree
//! ([`TieredNl`]; a central derivation is its one-switch case), and every
//! node of a foreign switch shares the same `NL(v,·)` term, so one
//! generator, `TieredBuckets`, serves every universe:
//!
//! * Every start on one switch visits the foreign nodes in the same
//!   order: one *foreign prefix* per switch, the foreign nodes in
//!   `(cost, id)` order until their capacity covers `n`. It is cut, not
//!   merged: the `k`-th cheapest stream head (`k` heads cover `n`) bounds
//!   every prefix cost, so only the streams whose head costs at most that
//!   cut are scanned, each up to its first item above it, and the scanned
//!   items are sorted and cut at `n`. On one switch the prefix is empty.
//! * Each start heapifies its own switch's exact costs in O(m) and pops
//!   them, ties by id, against the prefix only until `n` processes are
//!   covered: O(m + k log m) for an `m`-node switch. On one switch that is
//!   a bounded partial selection over the whole universe, O(V + k log V)
//!   per start. [`generate_candidate`] is the one-start case.
//! * Costing all S − 1 heads for each of S switches is O(S²) per
//!   decision, so the `Loads` keeps, built once on first use, a
//!   `ForeignIndex`: per switch its L = 128 foreign switches with the
//!   smallest inter values and the smallest inter value left out. The
//!   cut is taken over the neighbourhood's heads once a certificate shows
//!   no head outside it can reach the cut. The prefix is the same either
//!   way, bit for bit.
//! * Each switch's `(CL, id)` stream and its starts depend on the `Loads`
//!   alone, so the `Loads` memoizes them on first use, in flat arrays
//!   with per-switch offsets. A decision checks each stream against its
//!   `(α·CL, id)` key in one pass and copies and sorts only one that
//!   fails: α ≤ 0, or α·CL rounding two CLs together, ids backwards.
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
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A candidate sub-graph: the greedy result for one start node.
#[derive(Debug, Clone, PartialEq)]
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
/// `pc`, the node's capacity, never breaks a tie.
struct CostEntry {
    cost: f64,
    node: NodeId,
    pc: u32,
}

impl PartialEq for CostEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
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

/// Algorithm 1's greedy walk: each `(node, pc)` of `order` in turn takes
/// up to its `pc` processes until `n` are covered (no further item is
/// drawn), and leftover demand round-robins over the taken nodes. The
/// candidate generator walks addition costs, the baseline policies their
/// own orders.
pub(crate) fn greedy_take(
    order: impl IntoIterator<Item = (NodeId, u32)>,
    n: u32,
) -> (Vec<NodeId>, Vec<u32>) {
    let (mut nodes, mut procs, mut allocated) = (Vec::new(), Vec::new(), 0u64);
    for (node, pc) in order {
        let take = (pc as u64).min(n as u64 - allocated) as u32;
        if take > 0 {
            nodes.push(node);
            procs.push(take);
            allocated += take as u64;
        }
        if allocated >= n as u64 {
            break;
        }
    }
    distribute_remainder(&mut procs, allocated, n);
    (nodes, procs)
}

/// Generate the candidate sub-graph for start node `v` (Algorithm 1), which
/// must be usable in `loads`.
///
/// `n` is the requested process count. Ties in `A_v(u)` break by node id so
/// candidate generation is deterministic. The one-start case of the
/// switch generator (see the module doc).
pub fn generate_candidate(loads: &Loads, v: NodeId, n: u32, alpha: f64, beta: f64) -> Candidate {
    debug_assert!(loads.index(v).is_some(), "start node must be usable");
    TieredBuckets::build(loads, n, alpha, beta).candidate(v)
}

/// All candidates, one per usable start node (§3.3.2: "we find candidate
/// sub-graph corresponding to each node in the graph"), in `loads.usable`
/// order. Candidates that could not place a single process (zero-capacity
/// universe) are dropped; an empty return therefore means the request is
/// unsatisfiable.
///
/// Each start switch's foreign prefix is built once, and the starts are
/// evaluated on worker threads with a deterministic reduction (outputs
/// keep input order), so the candidates are byte-identical to a serial
/// loop over the starts.
pub fn generate_all_candidates(loads: &Loads, n: u32, alpha: f64, beta: f64) -> Vec<Candidate> {
    let buckets = TieredBuckets::build(loads, n, alpha, beta);
    let t = buckets.t;
    let prefixes = par::par_map_indexed(t.num_switches(), par::MIN_CHUNK, |s| {
        let s = s as u32;
        if buckets.starts_on(s).is_empty() {
            Vec::new()
        } else {
            buckets.prefix(s)
        }
    });
    let cands = par::par_map(&loads.usable, |&v| {
        buckets.merge_for(v, &prefixes[t.switch_of_node(v) as usize])
    });
    cands
        .into_iter()
        .filter(|c| c.total_procs() as u64 >= n as u64)
        .collect()
}

/// Foreign switches kept per switch in a [`ForeignIndex`] row.
pub(crate) const NEIGHBOURHOOD: usize = 128;

/// Per switch, its [`NEIGHBOURHOOD`] nearest foreign switches: the
/// stream switches (those with a usable node with capacity) other than
/// itself with the smallest `(inter_value, id)`, and the smallest inter
/// value left out. It depends on the `Loads` alone, not on α, β or n, so
/// [`Loads`] builds it once, on first use, and every decision's foreign
/// prefixes read it (see [`TieredBuckets::foreign_prefix`]).
#[derive(Debug, Clone)]
pub(crate) struct ForeignIndex {
    /// `S × NEIGHBOURHOOD` row-major switch ids, unordered within a row.
    near: Vec<u32>,
    /// Per switch, the smallest inter value to a stream switch outside
    /// its row.
    rest: Vec<f64>,
    /// Largest |CL| of a node with capacity and |inter value| the rows
    /// were chosen from; ∞ if one is not finite.
    max_abs: f64,
}

/// `max(m, |x|)`, or ∞ once `x` is not finite.
fn max_abs(m: f64, x: f64) -> f64 {
    if x.is_finite() {
        m.max(x.abs())
    } else {
        f64::INFINITY
    }
}

impl ForeignIndex {
    /// The index over `loads`' stream switches, or `None` when there are
    /// too few of them for a row to leave any out. O(S²) once.
    pub(crate) fn build(loads: &Loads) -> Option<ForeignIndex> {
        let t = &loads.nl;
        let s_count = t.num_switches();
        let mut has_stream = vec![false; s_count];
        let mut max_cl = 0.0;
        for (i, &node) in loads.usable.iter().enumerate() {
            if loads.pc[i] > 0 {
                has_stream[t.switch_of_node(node) as usize] = true;
                max_cl = max_abs(max_cl, loads.cl[i]);
            }
        }
        let active: Vec<u32> = (0..s_count as u32)
            .filter(|&s| has_stream[s as usize])
            .collect();
        if active.len() <= NEIGHBOURHOOD + 1 {
            return None;
        }
        let by_value = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let rows = par::par_map_indexed(s_count, par::MIN_CHUNK, |s| {
            let s = s as u32;
            let mut row: Vec<(f64, u32)> = active
                .iter()
                .filter(|&&u| u != s)
                .map(|&u| (t.inter_value(s, u), u))
                .collect();
            let max_inter = row.iter().fold(0.0, |m, &(x, _)| max_abs(m, x));
            // everything after position NEIGHBOURHOOD sorts after it, so
            // it is the smallest value left out
            row.select_nth_unstable_by(NEIGHBOURHOOD, by_value);
            let near: Vec<u32> = row[..NEIGHBOURHOOD].iter().map(|&(_, u)| u).collect();
            (near, row[NEIGHBOURHOOD].0, max_inter)
        });
        let mut index = ForeignIndex {
            near: Vec::with_capacity(s_count * NEIGHBOURHOOD),
            rest: Vec::with_capacity(s_count),
            max_abs: max_cl,
        };
        for (near, rest, max_inter) in rows {
            index.near.extend(near);
            index.rest.push(rest);
            index.max_abs = index.max_abs.max(max_inter);
        }
        Some(index)
    }

    /// Switch `s`'s nearest foreign stream switches.
    fn row(&self, s: u32) -> &[u32] {
        &self.near[s as usize * NEIGHBOURHOOD..][..NEIGHBOURHOOD]
    }
}

/// Per switch, its usable nodes with capacity in `(CL, id)` order and
/// the usable positions of its start nodes, ascending, in flat arrays
/// with per-switch offsets. It depends on the `Loads` alone, so
/// [`Loads`] builds it once, on first use, and every decision's
/// [`TieredBuckets`] borrows it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SwitchStreams {
    /// `(cl, pc, node)` of every usable node with capacity, switch by
    /// switch; switch `s`'s run is `items[item_at[s]..item_at[s + 1]]`.
    items: Vec<(f64, u32, NodeId)>,
    item_at: Vec<usize>,
    /// Usable positions, switch by switch; switch `s`'s run is
    /// `starts[start_at[s]..start_at[s + 1]]`.
    starts: Vec<usize>,
    start_at: Vec<usize>,
    /// Largest |CL| of an item; ∞ if one is not finite.
    max_abs_cl: f64,
}

impl SwitchStreams {
    /// The streams of `loads` over its switches. O(V log V) once.
    pub(crate) fn build(loads: &Loads) -> SwitchStreams {
        let t = &loads.nl;
        let switch: Vec<u32> = loads.usable.iter().map(|&u| t.switch_of_node(u)).collect();
        // per switch, the first position of its run and one past the last
        let offsets = |run: &[usize]| -> Vec<usize> {
            (0..=t.num_switches() as u32)
                .map(|s| run.partition_point(|&i| switch[i] < s))
                .collect()
        };
        let mut starts: Vec<usize> = (0..loads.usable.len()).collect();
        starts.sort_by_key(|&i| switch[i]);
        let mut items: Vec<usize> = starts
            .iter()
            .copied()
            .filter(|&i| loads.pc[i] > 0)
            .collect();
        items.sort_by(|&a, &b| {
            (switch[a].cmp(&switch[b]))
                .then(loads.cl[a].total_cmp(&loads.cl[b]))
                .then(loads.usable[a].cmp(&loads.usable[b]))
        });
        SwitchStreams {
            item_at: offsets(&items),
            start_at: offsets(&starts),
            max_abs_cl: items.iter().fold(0.0, |m, &i| max_abs(m, loads.cl[i])),
            items: items
                .into_iter()
                .map(|i| (loads.cl[i], loads.pc[i], loads.usable[i]))
                .collect(),
            starts,
        }
    }

    /// Positions of switch `s`'s stream in `items`.
    fn run(&self, s: usize) -> std::ops::Range<usize> {
        self.item_at[s]..self.item_at[s + 1]
    }

    /// Usable positions of switch `s`'s start nodes, ascending.
    fn starts_on(&self, s: usize) -> &[usize] {
        &self.starts[self.start_at[s]..self.start_at[s + 1]]
    }
}

/// Per-switch streams of usable nodes with spare capacity, in `(α·CL, id)`
/// order — the order any *foreign* start node visits them in, since the
/// tiered `NL(v, u)` term is constant across a foreign switch. One
/// decision's Algorithm 1 over any universe; on one switch there is one
/// stream, every foreign prefix is empty and there is no neighbourhood.
pub(crate) struct TieredBuckets<'a> {
    t: &'a TieredNl,
    alpha: f64,
    beta: f64,
    n: u32,
    /// The `Loads`' memoized streams and starts.
    memo: &'a SwitchStreams,
    /// `memo.items` with every switch's run in `(α·CL, id)` order:
    /// borrowed when every run already is, else a copy whose runs that
    /// were not are re-sorted.
    items: Cow<'a, [(f64, u32, NodeId)]>,
    /// `(switch, cl)` of every nonempty stream's head, contiguous so a
    /// cut over every foreign head reads them in one pass.
    heads: Vec<(u32, f64)>,
    /// Head CL per switch (∞ for an empty stream), so a neighbourhood's
    /// head costs read two contiguous arrays.
    head_cl: Vec<f64>,
    /// `⌈n / smallest head pc⌉` (at least 1): the `k` cheapest heads
    /// cover `n`.
    k: usize,
    /// Whether every α·CL is finite, so costs never fall along a stream
    /// whose switch offset is not NaN.
    rising: bool,
    /// The neighbourhoods and the smallest head CL, when foreign
    /// prefixes may be cut over a neighbourhood.
    near: Option<(&'a ForeignIndex, f64)>,
}

/// A foreign node as a start on one switch visits it: its `(cost, id)`
/// sort key, its capacity, and its compute load (read by the pruned
/// allocator's switch-pool bound).
struct ForeignItem {
    cost: f64,
    node: NodeId,
    pc: u32,
    cl: f64,
}

impl ForeignItem {
    /// Whether this item sorts before `(cost, node)` in `(cost, id)` order.
    fn precedes(&self, cost: f64, node: NodeId) -> bool {
        self.cost.total_cmp(&cost).then(self.node.cmp(&node)) == std::cmp::Ordering::Less
    }
}

/// Buffers a worker reuses from one foreign prefix to the next.
#[derive(Default)]
pub(crate) struct PrefixScratch {
    /// `(head cost, switch)` of the streams a prefix may read.
    heads: Vec<(f64, u32)>,
    /// The scanned items, cut to the prefix.
    items: Vec<ForeignItem>,
}

impl<'a> TieredBuckets<'a> {
    /// The buckets of one decision over `loads`.
    pub(crate) fn build(loads: &'a Loads, n: u32, alpha: f64, beta: f64) -> Self {
        let t: &TieredNl = &loads.nl;
        let memo = loads.switch_streams();
        // a stream's cost is α·CL + const(switch), so (α·CL, id) is its
        // cost order; ties in α·CL (notably the whole stream when α = 0)
        // fall back to id order, matching the per-start sort exactly. The
        // memo's (CL, id) order is that order unless α ≤ 0 or α·CL rounds
        // two CLs together and their ids then run backwards: only such a
        // stream is copied and sorted
        let key = |a: &(f64, u32, NodeId), b: &(f64, u32, NodeId)| {
            (alpha * a.0).total_cmp(&(alpha * b.0)).then(a.2.cmp(&b.2))
        };
        let mut items = Cow::Borrowed(&memo.items[..]);
        let mut heads = Vec::new();
        let mut head_cl = vec![f64::INFINITY; t.num_switches()];
        let (mut h_min, mut pc_min) = (f64::INFINITY, u32::MAX);
        for (s, slot) in head_cl.iter_mut().enumerate() {
            let run = memo.run(s);
            if !items[run.clone()].is_sorted_by(|a, b| key(a, b).is_le()) {
                items.to_mut()[run.clone()].sort_by(key);
            }
            if let Some(&(cl, pc, _)) = items[run].first() {
                heads.push((s as u32, cl));
                *slot = cl;
                h_min = h_min.min(cl);
                pc_min = pc_min.min(pc);
            }
        }
        // a head's cost is monotone in its CL and its inter value only for
        // sign-positive weights and products that cannot overflow into NaN
        let k = (n as usize).div_ceil(pc_min.max(1) as usize).max(1);
        let monotone = |w: f64| w.is_sign_positive() && w.is_finite();
        let near = (monotone(alpha) && monotone(beta) && k <= NEIGHBOURHOOD)
            .then(|| loads.foreign_index())
            .flatten()
            .filter(|ix| (alpha * ix.max_abs).is_finite() && (beta * ix.max_abs).is_finite())
            .map(|index| (index, h_min));
        TieredBuckets {
            t,
            alpha,
            beta,
            n,
            memo,
            items,
            heads,
            head_cl,
            k,
            rising: (alpha * memo.max_abs_cl).is_finite(),
            near,
        }
    }

    /// Whether the universe sits on one switch (a central derivation).
    pub(crate) fn one_switch(&self) -> bool {
        self.head_cl.len() == 1
    }

    /// Switches carrying at least one start node, ascending.
    pub(crate) fn start_switches(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.head_cl.len() as u32).filter(|&s| !self.starts_on(s).is_empty())
    }

    /// Usable positions of the start nodes on switch `sv`, ascending.
    pub(crate) fn starts_on(&self, sv: u32) -> &[usize] {
        self.memo.starts_on(sv as usize)
    }

    /// Switch `s`'s stream.
    fn stream(&self, s: u32) -> &[(f64, u32, NodeId)] {
        &self.items[self.memo.run(s as usize)]
    }

    /// The cost of a node with compute load `cl` on switch `s`, as a
    /// start node on switch `sv` sees it. Computed with the exact same
    /// float expression as a full sort of `α·CL(u) + β·NL(v, u)`, so the
    /// order is bit-identical.
    fn foreign_cost(&self, sv: u32, s: u32, cl: f64) -> f64 {
        self.alpha * cl + self.beta * self.t.inter_value(sv, s)
    }

    /// Stream item `(cl, pc, node)` of switch `s` as a start on `sv` sees it.
    fn foreign_item(&self, sv: u32, s: u32, &(cl, pc, node): &(f64, u32, NodeId)) -> ForeignItem {
        let cost = self.foreign_cost(sv, s, cl);
        ForeignItem { cost, node, pc, cl }
    }

    /// The foreign items a start on switch `sv` visits, in `(cost, id)`
    /// order, up to the first one at which their capacity covers `n` (all
    /// of them when it never does). Every start on `sv` shares this list:
    /// a foreign node's cost depends only on its switch pair, and any
    /// foreign item left out sorts strictly after the last one kept, by
    /// which point the walk has covered `n` already.
    ///
    /// A cut and a select, not a merge: [`Self::cut`] gives a cut τ such
    /// that the foreign items costing ≤ τ cover `n`, so no prefix item
    /// costs more. Every stream whose head costs ≤ τ is scanned into one
    /// reusable buffer up to its first item above τ (a stream's costs
    /// never fall along it), and [`cover`] sorts the buffer by
    /// `(cost, id)`, the per-start sort's own order, and cuts it where it
    /// covers `n`. Without a cut every foreign item is sorted.
    fn foreign_prefix<'s>(&self, sv: u32, scratch: &'s mut PrefixScratch) -> &'s [ForeignItem] {
        let PrefixScratch { heads, items } = scratch;
        let cut = self.cut(sv, heads, items);
        let within = |cost: f64| cut.is_none_or(|tau| cost.total_cmp(&tau).is_le());
        items.clear();
        for &(_, s) in heads.iter().filter(|h| within(h.0)) {
            let scan = self.stream(s).iter().map(|it| self.foreign_item(sv, s, it));
            items.extend(scan.take_while(|f| within(f.cost)));
        }
        cover(items, self.n as u64, self.k);
        items
    }

    /// A cut τ for the foreign prefix of `sv`, or `None` when every
    /// foreign item must be sorted; `(head cost, switch)` of every stream
    /// that may reach it is left in `heads`. `rows` is scratch.
    ///
    /// The `k` cheapest heads cover `n`, so the `k`-th smallest head cost
    /// is a cut: over `sv`'s neighbourhood when [`Self::near_heads`]
    /// certifies it, else over every foreign head. With fewer foreign
    /// heads than `k`, the streams' first items are taken row by row
    /// until they cover `n`, and τ is the cost at which they do. There is
    /// no cut when some α·CL is not finite or a head cost is NaN, where a
    /// stream's costs may fall along it.
    fn cut(
        &self,
        sv: u32,
        heads: &mut Vec<(f64, u32)>,
        rows: &mut Vec<ForeignItem>,
    ) -> Option<f64> {
        if let Some(tau) = self.near_heads(sv, heads) {
            return Some(tau);
        }
        heads.clear();
        let foreign = self.heads.iter().filter(|h| h.0 != sv);
        heads.extend(foreign.map(|&(s, cl)| (self.foreign_cost(sv, s, cl), s)));
        if !self.rising || heads.iter().any(|h| h.0.is_nan()) {
            return None;
        }
        if heads.len() >= self.k {
            let (_, &mut (tau, _), _) =
                heads.select_nth_unstable_by(self.k - 1, |a, b| a.0.total_cmp(&b.0));
            return Some(tau);
        }
        let (mut covered, n) = (0u64, self.n as u64);
        rows.clear();
        for pos in 0.. {
            if covered >= n {
                break;
            }
            let before = rows.len();
            let row = heads
                .iter()
                .filter_map(|&(_, s)| Some(self.foreign_item(sv, s, self.stream(s).get(pos)?)));
            rows.extend(row);
            if rows.len() == before {
                return None;
            }
            covered += rows[before..].iter().map(|f| f.pc as u64).sum::<u64>();
        }
        cover(rows, n, self.k);
        rows.last().map(|f| f.cost)
    }

    /// The `k`-th smallest head cost in the neighbourhood of `sv`, with
    /// `(head cost, switch)` of every neighbourhood stream left in
    /// `heads`, when the neighbourhood certifies it as a cut; `None` sends
    /// [`Self::cut`] to every foreign head.
    ///
    /// A switch outside the neighbourhood has inter value ≥ `rest` and
    /// head CL ≥ `h_min`; with sign-positive weights and no overflow,
    /// rounding is monotone, so its head costs at least
    /// `α·h_min + β·rest`. When that strictly exceeds the `k`-th smallest
    /// neighbourhood head cost, no stream outside reaches the cut, and the
    /// prefix comes out bit for bit the same as from every head.
    fn near_heads(&self, sv: u32, heads: &mut Vec<(f64, u32)>) -> Option<f64> {
        let (index, h_min) = self.near?;
        let floor = self.alpha * h_min + self.beta * index.rest[sv as usize];
        heads.clear();
        heads.extend(
            (index.row(sv).iter())
                .map(|&s| (self.foreign_cost(sv, s, self.head_cl[s as usize]), s)),
        );
        let (_, &mut (cut, _), _) =
            heads.select_nth_unstable_by(self.k - 1, |a, b| a.0.total_cmp(&b.0));
        floor.total_cmp(&cut).is_gt().then_some(cut)
    }

    /// Whether the foreign prefix of `sv` is cut over its neighbourhood.
    #[cfg(test)]
    pub(crate) fn seeds_from_neighbourhood(&self, sv: u32) -> bool {
        self.near_heads(sv, &mut Vec::new()).is_some()
    }

    /// `(CL, pc)` of every node a start on switch `sv` can draw from: its
    /// own switch's nodes with capacity, then [`Self::foreign_prefix`].
    pub(crate) fn pool<'s>(
        &'s self,
        sv: u32,
        scratch: &'s mut PrefixScratch,
    ) -> impl Iterator<Item = (f64, u32)> + 's {
        let own = self.stream(sv).iter().map(|&(cl, pc, _)| (cl, pc));
        let foreign = self.foreign_prefix(sv, scratch).iter();
        own.chain(foreign.map(|f| (f.cl, f.pc)))
    }

    /// The foreign prefix of switch `sv`, in a buffer of its own.
    fn prefix(&self, sv: u32) -> Vec<ForeignItem> {
        let mut scratch = PrefixScratch::default();
        self.foreign_prefix(sv, &mut scratch);
        scratch.items
    }

    /// Candidates for `starts`, all on switch `sv`, in input order: the
    /// foreign prefix is built once for the whole switch, then each start
    /// merges it with its own switch's exact costs.
    pub(crate) fn generate_switch<'s>(
        &'s self,
        sv: u32,
        starts: impl IntoIterator<Item = NodeId> + 's,
    ) -> impl Iterator<Item = Candidate> + 's {
        let prefix = self.prefix(sv);
        starts.into_iter().map(move |v| self.merge_for(v, &prefix))
    }

    /// The candidate for the one start `v`.
    pub(crate) fn candidate(&self, v: NodeId) -> Candidate {
        self.merge_for(v, &self.prefix(self.t.switch_of_node(v)))
    }

    /// The candidate for start `v`: its own switch's exact addition costs,
    /// heapified and popped in `(cost, id)` order against the switch's
    /// foreign prefix, into the greedy walk. Covering `k` processes costs
    /// O(m + k log m) for an `m`-node switch.
    fn merge_for(&self, v: NodeId, prefix: &[ForeignItem]) -> Candidate {
        let nl_from_v = self.t.row(v);
        let own = self.stream(self.t.switch_of_node(v)).iter();
        let mut own: BinaryHeap<Reverse<CostEntry>> = own
            .map(|&(cl, pc, node)| {
                let cost = if node == v {
                    0.0
                } else {
                    self.alpha * cl + self.beta * nl_from_v(node)
                };
                Reverse(CostEntry { cost, node, pc })
            })
            .collect();
        let mut foreign = prefix.iter().peekable();
        let merged = std::iter::from_fn(|| match own.peek() {
            Some(Reverse(e)) if !foreign.peek().is_some_and(|f| f.precedes(e.cost, e.node)) => {
                own.pop().map(|Reverse(e)| (e.node, e.pc))
            }
            _ => foreign.next().map(|f| (f.node, f.pc)),
        });
        let (nodes, procs) = greedy_take(merged, self.n);
        Candidate {
            start: v,
            nodes,
            procs,
        }
    }
}

/// Sort `items` by `(cost, id)` and cut them at the first one at which
/// their capacity covers `n` (keep all when it never does). More than
/// `2k` items first select their `k` cheapest and sort the rest only if
/// those fall short of `n`.
fn cover(items: &mut Vec<ForeignItem>, n: u64, k: usize) {
    let key =
        |a: &ForeignItem, b: &ForeignItem| a.cost.total_cmp(&b.cost).then(a.node.cmp(&b.node));
    let mut sorted = items.len();
    if sorted > 2 * k {
        items.select_nth_unstable_by(k, key);
        sorted = k;
    }
    items[..sorted].sort_unstable_by(key);
    let (mut covered, mut at) = (0u64, 0);
    loop {
        while at < sorted {
            covered += items[at].pc as u64;
            at += 1;
            if covered >= n {
                items.truncate(at);
                return;
            }
        }
        if sorted == items.len() {
            return;
        }
        items[sorted..].sort_unstable_by(key);
        sorted = items.len();
    }
}

/// A tiered universe wider than one neighbourhood, for the tests of the
/// neighbourhood cut: `switches` switches of `1..=max_m` nodes, pc 1–4
/// (`pc` of every node when given; 0 on every 37th switch), seeded CL,
/// intra and inter values. `levels > 0` rounds every value to a multiple
/// of `1/levels`, so costs tie across switches.
#[cfg(test)]
pub(crate) fn wide_universe(
    switches: u32,
    max_m: u64,
    pc: Option<u32>,
    levels: u32,
    seed: u64,
) -> Loads {
    use nlrm_sim_core::rng::{frac, splitmix64};
    let draw = |key: u64| {
        let x = frac(splitmix64(seed ^ key));
        if levels == 0 {
            x
        } else {
            (x * levels as f64).round() / levels as f64
        }
    };
    let switch_of: Vec<u32> = (0..switches)
        .flat_map(|s| {
            let m = 1 + splitmix64(seed ^ u64::from(s) ^ 0xA5A5) % max_m;
            std::iter::repeat_n(s, m as usize)
        })
        .collect();
    let nodes: Vec<NodeId> = (0..switch_of.len() as u32).map(NodeId).collect();
    let nl = TieredNl::from_fns(
        &nodes,
        &switch_of,
        switches as usize,
        |a, b| 0.05 + 0.3 * draw(u64::from(a.0) << 20 | u64::from(b.0)),
        |s, t| 0.2 + 0.6 * draw(1 << 62 | u64::from(s) << 20 | u64::from(t)),
    );
    let cl = nodes
        .iter()
        .map(|u| 0.1 + 0.8 * draw(1 << 63 | u64::from(u.0)))
        .collect();
    let pc = nodes
        .iter()
        .zip(&switch_of)
        .map(|(u, &s)| match pc {
            _ if s % 37 == 36 => 0,
            Some(pc) => pc,
            None => 1 + (splitmix64(seed ^ u64::from(u.0) ^ 0x5A5A) % 4) as u32,
        })
        .collect();
    Loads::from_parts(nodes, cl, nl, pc)
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
    /// switch generator.
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
        let (nodes, procs) = greedy_take(order.iter().map(|&(_, u)| (u, loads.pc_of(u))), n);
        Candidate {
            start: v,
            nodes,
            procs,
        }
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

    /// 30 nodes on 5 switches whose CLs differ by a few ulps between even
    /// and odd ids, but the +β·8.0 switch offset rounds that away: equal
    /// costs whose stream order (by α·CL) puts the larger id first.
    fn collided() -> Loads {
        let v = 30u32;
        let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
        let switch_of: Vec<u32> = (0..v).map(|u| (u * 7) % 5).collect();
        let nl = TieredNl::from_fns(&nodes, &switch_of, 5, |_, _| 0.1, |_, _| 8.0);
        let cl = (0..v)
            .map(|u| f64::from_bits(0.5f64.to_bits() + 8 * u64::from(u % 2 == 0)))
            .collect();
        Loads::from_parts(nodes, cl, nl, vec![4; v as usize])
    }

    #[test]
    fn memoized_streams_equal_a_fresh_sort() {
        // NaN, negative, equal, and tiny and huge CLs a few ulps apart,
        // the smaller CL on the larger id: α = 1e-300 underflows the tiny
        // ones and α = 1e300 overflows the huge ones into ties whose ids
        // run backwards in (CL, id) order
        let v = 60u32;
        let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
        let switch_of: Vec<u32> = (0..v).map(|u| u % 4).collect();
        let nl = TieredNl::from_fns(&nodes, &switch_of, 4, |_, _| 0.1, |_, _| 0.5);
        let ulps = |x: f64, u: u32| f64::from_bits(x.to_bits() + u64::from(v - u));
        let cl = (0..v)
            .map(|u| match u % 5 {
                0 => f64::NAN,
                1 => ulps(1e-10, u),
                2 => ulps(1e10, u),
                3 => 0.5,
                _ => -0.25 * f64::from(u),
            })
            .collect();
        let pc = (0..v).map(|u| u % 3).collect();
        let nan = Loads::from_parts(nodes, cl, nl, pc);
        let bits = |s: &[(f64, u32, NodeId)]| -> Vec<(u64, u32, NodeId)> {
            s.iter().map(|&(cl, pc, u)| (cl.to_bits(), pc, u)).collect()
        };
        for (what, l) in [("collided", &collided()), ("nan", &nan)] {
            let t = &l.nl;
            for alpha in [0.0, -0.0, -0.3, 1e-300, 0.3, 1e300] {
                let b = TieredBuckets::build(l, 8, alpha, 0.7);
                // α ≤ 0 and the rounding ties must take the copy; α = 0.3
                // and the collided universe's other α must borrow the memo
                let copied = alpha <= 0.0 || (what == "nan" && alpha != 0.3);
                assert_eq!(matches!(b.items, Cow::Owned(_)), copied, "{what} α {alpha}");
                for s in 0..t.num_switches() as u32 {
                    let on_s = |&(_, &u): &(usize, &NodeId)| t.switch_of_node(u) == s;
                    let mut want: Vec<(f64, u32, NodeId)> = (l.usable.iter().enumerate())
                        .filter(on_s)
                        .filter(|&(i, _)| l.pc[i] > 0)
                        .map(|(i, &u)| (l.cl[i], l.pc[i], u))
                        .collect();
                    want.sort_by(|a, b| {
                        (alpha * a.0).total_cmp(&(alpha * b.0)).then(a.2.cmp(&b.2))
                    });
                    assert_eq!(
                        bits(b.stream(s)),
                        bits(&want),
                        "{what} α {alpha} switch {s}"
                    );
                    let starts: Vec<usize> = (l.usable.iter().enumerate())
                        .filter(on_s)
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(b.starts_on(s), &starts[..], "{what} switch {s}");
                }
            }
        }
    }

    #[test]
    fn shared_prefix_generator_matches_full_sort_reference_on_ties() {
        // α = 0 (or one CL for every node), one inter value for every
        // switch pair: all of a start's foreign nodes cost the same, so
        // the order rests on the id tie-break across interleaved streams
        let v = 30u32;
        let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
        let switch_of: Vec<u32> = (0..v).map(|u| (u * 7) % 5).collect();
        let nl = TieredNl::from_fns(
            &nodes,
            &switch_of,
            5,
            |a, b| 0.1 * ((a.0 + b.0) % 3) as f64,
            |_, _| 0.25,
        );
        let pc: Vec<u32> = (0..v).map(|u| u % 4).collect();
        let equal = Loads::from_parts(nodes, vec![0.5; v as usize], nl, pc);
        for (what, l) in [("equal", &equal), ("collided", &collided())] {
            for n in [1, 3, 8, 17, 44, 45, 200] {
                for &(a, b) in &[(0.0, 1.0), (0.0, 0.0), (0.3, 0.7), (1.0, 0.0)] {
                    let tiered = generate_all_candidates(l, n, a, b);
                    let reference: Vec<Candidate> = (l.usable.iter())
                        .map(|&s| generate_candidate_reference(l, s, n, a, b))
                        .filter(|c| c.total_procs() as u64 >= n as u64)
                        .collect();
                    assert_eq!(tiered, reference, "{what} n {n} α {a} β {b}");
                }
            }
        }
    }

    #[test]
    fn neighbourhood_prefix_matches_full_sort_reference() {
        // 320 switches: random values, coarsely quantized ones (cost ties
        // across the neighbourhood edge), and one-node switches with one
        // pc, where the k-th cheapest head is exactly the last one needed
        let universes = [
            ("random", wide_universe(320, 4, None, 0, 0xC0FFEE)),
            ("quantized", wide_universe(320, 4, None, 4, 0xBEEF)),
            ("single", wide_universe(320, 1, Some(4), 8, 0xF00D)),
        ];
        let (mut via_neighbourhood, mut combo) = (0, 0u32);
        for (what, l) in &universes {
            assert!(l.foreign_index().is_some(), "{what}: no index");
            for n in [1, 7, 32, 100] {
                for a in [0.0, 0.3, 0.7, 1.0] {
                    for b in [0.0, 0.7, 1.0] {
                        let buckets = TieredBuckets::build(l, n, a, b);
                        via_neighbourhood += buckets
                            .start_switches()
                            .filter(|&sv| buckets.seeds_from_neighbourhood(sv))
                            .count();
                        // starts on one switch share its foreign prefix, so
                        // a switch's first start checks that prefix; every
                        // third switch, a different third per case
                        let tiered = generate_all_candidates(l, n, a, b);
                        combo += 1;
                        for sv in buckets.start_switches().filter(|sv| (sv + combo) % 3 == 0) {
                            let v = l.usable[buckets.starts_on(sv)[0]];
                            let want = generate_candidate_reference(l, v, n, a, b);
                            let got = tiered.iter().find(|c| c.start == v);
                            if want.total_procs() as u64 >= n as u64 {
                                assert_eq!(got, Some(&want), "{what} n {n} α {a} β {b}");
                            } else {
                                assert_eq!(got, None, "{what} n {n} α {a} β {b}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            via_neighbourhood > 1_000,
            "neighbourhood path taken only {via_neighbourhood} times"
        );
    }

    /// Nodes `0..` on `switch_of`'s switches with the given CL and pc,
    /// seeded intra values and inter values `inter(s, t)`.
    fn universe(
        switch_of: Vec<u32>,
        cl: Vec<f64>,
        pc: Vec<u32>,
        inter: impl FnMut(u32, u32) -> f64,
    ) -> Loads {
        let nodes: Vec<NodeId> = (0..switch_of.len() as u32).map(NodeId).collect();
        let switches = switch_of.iter().max().map_or(1, |&s| s as usize + 1);
        let intra = |a: NodeId, b: NodeId| 0.05 + 0.01 * f64::from((a.0 * 7 + b.0 * 3) % 11);
        let nl = TieredNl::from_fns(&nodes, &switch_of, switches, intra, inter);
        Loads::from_parts(nodes, cl, nl, pc)
    }

    /// Every start's tiered candidate is the full-sort reference's.
    fn assert_matches_full_sort(what: &str, l: &Loads, ns: &[u32], weights: &[(f64, f64)]) {
        for &n in ns {
            for &(a, b) in weights {
                let reference: Vec<Candidate> = (l.usable.iter())
                    .map(|&v| generate_candidate_reference(l, v, n, a, b))
                    .filter(|c| c.total_procs() as u64 >= n as u64)
                    .collect();
                let tiered = generate_all_candidates(l, n, a, b);
                assert_eq!(tiered, reference, "{what} n {n} α {a} β {b}");
            }
        }
    }

    #[test]
    fn cut_prefix_checks_coverage_past_the_k_cheapest() {
        // 40 switches of 10 nodes, one inter value. A head has pc 4 and CL
        // 0.1 + s/1000, its other nodes pc 1 and CLs a few 1e-4 above it:
        // at n = 16 (k = 4) the scan collects three switches whole, more
        // than 2k items, and the k cheapest of them cover only 7
        let switch_of = (0..400).map(|u| u / 10).collect();
        let cl = (0..400u32)
            .map(|u| 0.1 + f64::from(u / 10) / 1000.0 + f64::from(u % 10) * 1e-4)
            .collect();
        let pc = (0..400u32)
            .map(|u| if u % 10 == 0 { 4 } else { 1 })
            .collect();
        let l = universe(switch_of, cl, pc, |_, _| 0.5);
        let b = TieredBuckets::build(&l, 16, 0.3, 0.7);
        let prefix = b.foreign_prefix(39, &mut PrefixScratch::default()).len();
        assert_eq!((b.k, prefix), (4, 11), "shape");
        let weights = [(0.3, 0.7), (1.0, 0.0), (0.5, 0.5)];
        assert_matches_full_sort("low-pc tails", &l, &[5, 16, 40], &weights);
    }

    #[test]
    fn cut_prefix_with_fewer_foreign_heads_than_k_or_too_little_capacity() {
        // 3 switches of 20 nodes, pc 1–3, CLs in eighths: n = 30 needs up
        // to k = 30 heads and there are 2 foreign ones; n = 200 exceeds
        // the whole universe's capacity
        let switch_of = (0..60).map(|u| u % 3).collect();
        let h = |u: u32, salt: u64| nlrm_sim_core::rng::splitmix64(u64::from(u) ^ salt);
        let cl = (0..60).map(|u| (1 + h(u, 1) % 8) as f64 / 8.0).collect();
        let pc = (0..60).map(|u| 1 + (h(u, 2) % 3) as u32).collect();
        let l = universe(switch_of, cl, pc, |s, t| 0.2 + 0.125 * f64::from(s + t));
        let b = TieredBuckets::build(&l, 30, 0.3, 0.7);
        assert!(b.k > b.heads.len() - 1, "shape: k {}", b.k);
        let weights = [(0.3, 0.7), (0.7, 0.3), (1.0, 0.0), (0.0, 1.0)];
        assert_matches_full_sort("few heads", &l, &[1, 7, 30, 79, 80, 81, 200], &weights);
    }

    #[test]
    fn cut_prefix_with_signed_zero_and_negative_weights() {
        let l = wide_universe(12, 6, None, 4, 0xD1CE);
        let weights = [
            (0.0, 1.0),
            (-0.0, 1.0),
            (-0.3, 0.7),
            (0.3, -0.7),
            (0.3, -0.0),
            (-0.5, -0.5),
        ];
        assert_matches_full_sort("signed", &l, &[1, 5, 17, 60], &weights);
    }

    #[test]
    fn cut_prefix_with_non_finite_cl() {
        // NaN of either sign and ±∞ among 6 switches of 8 nodes, and one
        // infinite inter value
        let switch_of = (0..48).map(|u| u / 8).collect();
        let cl = (0..48u32)
            .map(|u| match u % 7 {
                0 => f64::NAN,
                1 => -f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => 0.1 * f64::from(u % 5),
            })
            .collect();
        let pc = (0..48).map(|u| 1 + u % 3).collect();
        let inter = |s: u32, t: u32| if s + t == 1 { f64::INFINITY } else { 0.3 };
        let l = universe(switch_of, cl, pc, inter);
        let weights = [(0.3, 0.7), (0.0, 1.0), (1.0, 0.0), (-0.3, 0.7)];
        assert_matches_full_sort("non-finite", &l, &[1, 6, 20, 100], &weights);
    }

    #[test]
    fn one_switch_matches_full_sort() {
        // a central derivation: 24 nodes on one switch, pc 0–3 (a quarter
        // of the starts host nothing; capacity 36), and CLs that are NaN of
        // either sign, ±∞, or tied in fifths
        let non_finite: fn(u32) -> f64 = |u| match u % 7 {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            _ => 0.2 * f64::from(u % 3),
        };
        let ties: fn(u32) -> f64 = |u| 0.2 * f64::from(u % 3);
        let weights = [
            (0.0, 1.0),
            (-0.0, 1.0),
            (0.3, 0.0),
            (0.3, -0.0),
            (0.3, 0.7),
            (-0.3, 0.7),
            (0.3, -0.7),
            (-0.5, -0.5),
        ];
        for (what, cl) in [("non-finite", non_finite), ("ties", ties)] {
            let (cl, pc) = ((0..24).map(cl).collect(), (0..24).map(|u| u % 4).collect());
            let l = universe(vec![0; 24], cl, pc, |_, _| unreachable!("one switch"));
            let b = TieredBuckets::build(&l, 20, 0.3, 0.7);
            let prefix = b.foreign_prefix(0, &mut PrefixScratch::default()).len();
            assert!(b.one_switch() && b.near.is_none() && prefix == 0, "shape");
            assert_matches_full_sort(what, &l, &[1, 5, 20, 36, 37, 100], &weights);
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
            (*l.nl).clone(),
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
