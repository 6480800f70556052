//! The allocator's one network-load representation: exact intra-switch
//! pairs, one value per switch pair across switches.
//!
//! The paper assumes a tree of switches where every node pair crossing the
//! same pair of switches sees the same trunk (§5's 4-switch testbed). Under
//! that model a V×V pair matrix is redundant: the network load between
//! two nodes on *different* switches is a property of the switch pair, not
//! of the nodes. [`TieredNl`] stores each value once, in one column:
//!
//! * each switch's strict upper triangle of exact intra-switch values, then
//! * the strict upper triangle of inter-switch values: exact when derived
//!   from a sharded snapshot (every cross pair of a switch pair reads the
//!   same estimate), the mean when [regrouped](TieredNl::regroup) from one
//!   switch,
//!
//! which is Σ m_s(m_s−1)/2 + S(S−1)/2 cells instead of V(V−1)/2 — at 100k
//! nodes in 48-node switches, ~36 MB instead of ~40 GB. This is the layout
//! Eq. 2's column already has in a derivation, which hands it over by move.
//! Every read goes through a row base (a node's in its switch's triangle, a
//! switch's in the switch-pair triangle) and selects the pair's orientation
//! without branching on it. A central monitor's derivation, which measures
//! every pair, is the one-switch case: all of its pairs are exact intra
//! values, as in a dense matrix. The mean aggregation is *sum-preserving*
//! per switch pair, so group network loads summed over many cross pairs
//! stay close to the one-switch value, and are exactly equal whenever the
//! tree-topology model holds (all cross pairs equal). The universe total
//! ([`TieredNl::pair_sum`]) is an exact sum, rounded once, so it equals the
//! one-switch total bit for bit in that case too.

use crate::exact;
use nlrm_monitor::{pair_index, SymMatrix};
use nlrm_topology::{NodeId, SwitchIndex};

/// Where a covered node's pairs are in the column: its pair with the
/// member of its switch at a later position `j` is `pairs[intra + j]`, and
/// with a node on a later switch `t` it is `pairs[inter + t]` (a base
/// wraps below its triangle's start at position or switch 0).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Slot {
    switch: u32,
    /// Position among the switch's members.
    local: u32,
    intra: u32,
    inter: u32,
}

/// Tiered pairwise network load: exact within a switch, aggregated across.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredNl {
    /// Per node id (dense over the node-id space) its [`Slot`]; switch
    /// `u32::MAX` marks nodes the representation does not cover.
    at: Vec<Slot>,
    /// Per switch `s` its inter row base: switch pair `(s, t)`, `s < t`, is
    /// `pairs[inter[s] + t]`.
    inter: Vec<u32>,
    /// Every pair value once, in the [`BucketPairs`] column layout.
    pairs: Vec<f64>,
}

const UNCOVERED: u32 = u32::MAX;

impl TieredNl {
    /// Build from explicit per-pair functions.
    ///
    /// * `nodes` — the covered node set (ascending ids recommended).
    /// * `switch_of` — switch bucket of each node in `nodes` (parallel).
    /// * `num_switches` — switch-id space bound.
    /// * `intra` — exact value for a same-switch pair, called switch by
    ///   switch with each pair in `nodes` order.
    /// * `inter` — aggregated value for a switch pair `(s, t)`, `s < t`,
    ///   both with nodes, called after every `intra`, in `(s, t)` order.
    pub fn from_fns(
        nodes: &[NodeId],
        switch_of: &[u32],
        num_switches: usize,
        mut intra: impl FnMut(NodeId, NodeId) -> f64,
        mut inter: impl FnMut(u32, u32) -> f64,
    ) -> TieredNl {
        assert_eq!(nodes.len(), switch_of.len());
        let placed = nodes.iter().zip(switch_of).map(|(&n, &s)| (n, s as usize));
        let layout = BucketPairs::new(num_switches, placed);
        let mut pairs = Vec::with_capacity(layout.len());
        for ms in &layout.members {
            for (i, &u) in ms.iter().enumerate() {
                pairs.extend(ms[i + 1..].iter().map(|&v| intra(u, v)));
            }
        }
        pairs.resize(layout.len(), 0.0);
        for (s, t) in layout.bucket_pairs() {
            pairs[layout.cross(s, t)] = inter(s as u32, t as u32);
        }
        layout.into_tiered(pairs)
    }

    /// The same pair values over `index`'s switches: intra-switch pairs
    /// are copied exactly; each inter-switch cell becomes the *mean* over
    /// its cross pairs of `nodes` (sum-preserving, so group sums stay
    /// calibrated). Meant for a one-switch representation, whose every
    /// pair is exact.
    pub fn regroup(&self, nodes: &[NodeId], index: &SwitchIndex) -> TieredNl {
        let switch_of: Vec<u32> = nodes.iter().map(|&n| index.switch_of(n).0).collect();
        // mean per switch pair over the covered node set, one cell per pair
        let s_count = index.num_switches();
        let cells = s_count * s_count.saturating_sub(1) / 2;
        let (mut sums, mut counts) = (vec![0.0f64; cells], vec![0u64; cells]);
        for (i, &u) in nodes.iter().enumerate() {
            for (j, &v) in nodes.iter().enumerate().skip(i + 1) {
                let (su, sv) = (switch_of[i] as usize, switch_of[j] as usize);
                if su != sv {
                    let c = pair_index(s_count, su, sv);
                    sums[c] += self.get(u, v);
                    counts[c] += 1;
                }
            }
        }
        // a switch pair is asked for only when both switches have nodes,
        // so it has cross pairs
        let mean = |s: u32, t: u32| {
            let c = pair_index(s_count, s as usize, t as usize);
            sums[c] / counts[c] as f64
        };
        TieredNl::from_fns(nodes, &switch_of, s_count, |u, v| self.get(u, v), mean)
    }

    /// Number of switch buckets.
    pub fn num_switches(&self) -> usize {
        self.inter.len()
    }

    /// Switch bucket of a covered node.
    pub fn switch_of_node(&self, n: NodeId) -> u32 {
        self.locate(n).switch
    }

    /// The [`Slot`] of a covered node.
    fn locate(&self, n: NodeId) -> Slot {
        let at = self.at[n.index()];
        debug_assert_ne!(at.switch, UNCOVERED, "node {n} not covered by tiered NL");
        at
    }

    /// Aggregated value for a switch pair (`s ≠ t`).
    pub fn inter_value(&self, s: u32, t: u32) -> f64 {
        debug_assert_ne!(s, t);
        let (a, b) = if s < t { (s, t) } else { (t, s) };
        self.pairs[self.inter[a as usize].wrapping_add(b) as usize]
    }

    /// The value between two located nodes, 0 for a repeated node. A
    /// pair reads the row of its earlier node, or of its earlier switch
    /// across switches; which comes first is random in a candidate group,
    /// so the row is selected, not branched on.
    #[inline]
    fn pair(&self, x: Slot, y: Slot) -> f64 {
        let at = if x.switch != y.switch {
            let (b, t) = if x.switch < y.switch {
                (x.inter, y.switch)
            } else {
                (y.inter, x.switch)
            };
            b.wrapping_add(t)
        } else if x.local != y.local {
            let (b, l) = if x.local < y.local {
                (x.intra, y.local)
            } else {
                (y.intra, x.local)
            };
            b.wrapping_add(l)
        } else {
            return 0.0;
        };
        self.pairs[at as usize]
    }

    /// Network load between two distinct covered nodes.
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        self.pair(self.locate(u), self.locate(v))
    }

    /// `v ↦ get(u, v)` with `u` located once: the addition costs of one
    /// start node read a whole row.
    pub fn row(&self, u: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
        let x = self.locate(u);
        move |v| self.pair(x, self.locate(v))
    }

    /// Σ `get(x, y)` over the `i < j` pairs of `nodes`, in the same order
    /// as the reference pair loop (so bit-identical to it), with each node
    /// located once instead of per pair. A repeated node's pair reads 0.
    /// Groups of up to 64 nodes locate into a stack buffer.
    pub fn group_sum(&self, nodes: &[NodeId]) -> f64 {
        let mut stack = [Slot::default(); 64];
        let mut spill = Vec::new();
        let loc: &mut [Slot] = if nodes.len() <= stack.len() {
            &mut stack[..nodes.len()]
        } else {
            spill.resize(nodes.len(), Slot::default());
            &mut spill
        };
        for (slot, &u) in loc.iter_mut().zip(nodes) {
            *slot = self.at[u.index()];
        }
        let mut sum = 0.0;
        for (i, &x) in loc.iter().enumerate() {
            for &y in &loc[i + 1..] {
                sum += self.pair(x, y);
            }
        }
        sum
    }

    /// The slots of `usable` (a subset of the covered nodes) per switch.
    fn by_switch(&self, usable: &[NodeId]) -> Vec<Vec<Slot>> {
        let mut local = vec![Vec::new(); self.num_switches()];
        for &n in usable {
            let x = self.locate(n);
            local[x.switch as usize].push(x);
        }
        local
    }

    /// Σ over all unordered pairs of `usable` (a subset of the covered
    /// nodes), in O(Σ m_s² + S²) instead of O(|usable|²): each switch's
    /// usable intra pairs read once, and each switch pair's inter value
    /// taken `count_s · count_t` times. The sum is exact, rounded once, so
    /// it equals the one-switch representation's total over the same pair
    /// values bit for bit.
    pub fn pair_sum(&self, usable: &[NodeId]) -> f64 {
        let local = self.by_switch(usable);
        let intra = local.iter().flat_map(|xs| {
            let pairs = xs.iter().enumerate();
            pairs.flat_map(move |(i, &x)| xs[i + 1..].iter().map(move |&y| (self.pair(x, y), 1)))
        });
        let (s_count, local) = (local.len(), &local);
        let inter = (0..s_count).flat_map(|s| {
            let count = move |t: usize| local[s].len() * local[t].len();
            (s + 1..s_count).map(move |t| (self.inter_value(s as u32, t as u32), count(t)))
        });
        exact::sum(intra.chain(inter))
    }

    /// For every node of `usable`, the minimum NL to any *other* usable
    /// node (`f64::INFINITY` when `usable` is a singleton). Used as the
    /// network term of the pruning lower bound.
    pub fn min_incident(&self, usable: &[NodeId]) -> Vec<f64> {
        let local = self.by_switch(usable);
        let occupied: Vec<u32> = (0..local.len() as u32)
            .filter(|&s| !local[s as usize].is_empty())
            .collect();
        // per switch: min inter value to any other switch with usable
        // nodes, in one pass over the switch-pair triangle (each switch
        // still folds its values in switch order)
        let mut min_inter = vec![f64::INFINITY; local.len()];
        for (i, &s) in occupied.iter().enumerate() {
            let mut min = min_inter[s as usize];
            for &t in &occupied[i + 1..] {
                let x = self.inter_value(s, t);
                min = min.min(x);
                min_inter[t as usize] = min_inter[t as usize].min(x);
            }
            min_inter[s as usize] = min;
        }
        // per usable node: that, and its switch's other usable members, in
        // one pass over each switch's usable pairs (each node still folds
        // its values in `usable` order)
        let mins: Vec<Vec<f64>> = local
            .iter()
            .zip(&min_inter)
            .map(|(xs, &floor)| {
                let mut mins = vec![floor; xs.len()];
                for (a, &x) in xs.iter().enumerate() {
                    let (done, rest) = mins.split_at_mut(a + 1);
                    let mut min = done[a];
                    for (&y, m) in xs[a + 1..].iter().zip(rest) {
                        if x.local != y.local {
                            let v = self.pair(x, y);
                            (min, *m) = (min.min(v), m.min(v));
                        }
                    }
                    done[a] = min;
                }
                mins
            })
            .collect();
        let mut next = vec![0; mins.len()];
        usable
            .iter()
            .map(|&u| {
                let s = self.locate(u).switch as usize;
                next[s] += 1;
                mins[s][next[s] - 1]
            })
            .collect()
    }
}

/// A pair matrix as the one-switch representation over ids `0..n`: every
/// off-diagonal entry is an exact intra value (the diagonal reads 0).
impl From<SymMatrix<f64>> for TieredNl {
    fn from(m: SymMatrix<f64>) -> TieredNl {
        let nodes: Vec<NodeId> = (0..m.len() as u32).map(NodeId).collect();
        let switch_of = vec![0; nodes.len()];
        let no_pair = |_, _| unreachable!("one switch has no switch pair");
        TieredNl::from_fns(&nodes, &switch_of, 1, |u, v| m.get(u, v), no_pair)
    }
}

/// The pairs of a bucketed universe, laid out as one column: each bucket's
/// strict upper triangle over its members' positions, then the strict upper
/// triangle of bucket pairs, both indexed by [`pair_index`]. A cross pair
/// reads its bucket pair's entry.
pub(crate) struct BucketPairs {
    /// Members per bucket, in the order they were placed.
    pub(crate) members: Vec<Vec<NodeId>>,
    /// Start of each bucket's triangle; `tri[k]` starts the bucket pairs.
    pub(crate) tri: Vec<usize>,
}

impl BucketPairs {
    /// `k` buckets over `placed`'s `(node, bucket)` pairs.
    pub(crate) fn new(k: usize, placed: impl IntoIterator<Item = (NodeId, usize)>) -> BucketPairs {
        let mut members = vec![Vec::new(); k];
        for (u, b) in placed {
            members[b].push(u);
        }
        let mut tri = vec![0];
        for ms in &members {
            tri.push(tri[tri.len() - 1] + ms.len() * ms.len().saturating_sub(1) / 2);
        }
        BucketPairs { members, tri }
    }

    /// Column length.
    pub(crate) fn len(&self) -> usize {
        let k = self.members.len();
        self.tri[k] + k * k.saturating_sub(1) / 2
    }

    /// Column entry of the bucket pair `a ≠ b`.
    pub(crate) fn cross(&self, a: usize, b: usize) -> usize {
        let k = self.members.len();
        self.tri[k] + pair_index(k, a, b)
    }

    /// The bucket pairs `a < b` with members on both sides.
    pub(crate) fn bucket_pairs(&self) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        let k = self.members.len();
        let occupied = |b: &usize| !self.members[*b].is_empty();
        (0..k)
            .filter(occupied)
            .flat_map(move |a| ((a + 1)..k).filter(occupied).map(move |b| (a, b)))
    }

    /// The [`TieredNl`] over `column`, taken in this layout by move: its
    /// row bases are computed, its values are not copied.
    pub(crate) fn into_tiered(self, column: Vec<f64>) -> TieredNl {
        assert_eq!(column.len(), self.len(), "column does not fit the layout");
        assert!(
            column.len() <= u32::MAX as usize,
            "column past u32 row bases"
        );
        // entry `(i, j)`, `i < j`, of the `n`-row triangle at `start` is
        // `base(start, n, i) + j`, modulo 2³²
        let base = |start: usize, n: usize, i: usize| {
            (start + pair_index(n, i, i + 1)).wrapping_sub(i + 1) as u32
        };
        let k = self.members.len();
        let inter: Vec<u32> = (0..k).map(|s| base(self.tri[k], k, s)).collect();
        let ids = self.members.iter().flatten();
        let uncovered = Slot {
            switch: UNCOVERED,
            ..Slot::default()
        };
        let mut at = vec![uncovered; ids.map(|n| n.index() + 1).max().unwrap_or(0)];
        for (s, ms) in self.members.iter().enumerate() {
            for (i, &n) in ms.iter().enumerate() {
                assert_eq!(at[n.index()].switch, UNCOVERED, "duplicate node {n}");
                at[n.index()] = Slot {
                    switch: s as u32,
                    local: i as u32,
                    intra: base(self.tri[s], ms.len(), i),
                    inter: inter[s],
                };
            }
        }
        TieredNl {
            at,
            inter,
            pairs: column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_topology::SwitchId;

    fn index_2x3() -> SwitchIndex {
        // nodes 0..3 on switch 0, 3..6 on switch 1
        SwitchIndex::from_assignment(
            vec![
                SwitchId(0),
                SwitchId(0),
                SwitchId(0),
                SwitchId(1),
                SwitchId(1),
                SwitchId(1),
            ],
            2,
        )
    }

    fn dense_6() -> SymMatrix<f64> {
        let mut m = SymMatrix::new(6, 0.0);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                m.set(NodeId(u), NodeId(v), (u * 10 + v) as f64);
            }
        }
        m
    }

    #[test]
    fn a_matrix_is_the_one_switch_case() {
        // a non-zero diagonal must not leak into a repeated node's pair
        let mut dense = dense_6();
        dense.set(NodeId(2), NodeId(2), 99.0);
        let t = TieredNl::from(dense.clone());
        assert_eq!(t.num_switches(), 1);
        for u in 0..6u32 {
            assert_eq!(t.switch_of_node(NodeId(u)), 0);
            for v in (0..6u32).filter(|&v| v != u) {
                assert_eq!(t.get(NodeId(u), NodeId(v)), dense.get(NodeId(u), NodeId(v)));
            }
        }
        let group = [NodeId(2), NodeId(4), NodeId(2)];
        assert_eq!(t.group_sum(&group), 2.0 * dense.get(NodeId(2), NodeId(4)));
        let empty = TieredNl::from(SymMatrix::new(0, 0.0));
        assert_eq!(empty.num_switches(), 1);
        assert_eq!(empty.pair_sum(&[]), 0.0);
    }

    #[test]
    fn intra_pairs_are_exact() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from(dense.clone()).regroup(&nodes, &idx);
        for &(u, v) in &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
            assert_eq!(t.get(NodeId(u), NodeId(v)), dense.get(NodeId(u), NodeId(v)));
            assert_eq!(t.get(NodeId(v), NodeId(u)), t.get(NodeId(u), NodeId(v)));
        }
    }

    #[test]
    fn inter_pairs_are_the_mean() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from(dense.clone()).regroup(&nodes, &idx);
        let mut sum = 0.0;
        for u in 0..3u32 {
            for v in 3..6u32 {
                sum += dense.get(NodeId(u), NodeId(v));
            }
        }
        let mean = sum / 9.0;
        for u in 0..3u32 {
            for v in 3..6u32 {
                assert!((t.get(NodeId(u), NodeId(v)) - mean).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pair_sum_matches_dense_exactly() {
        // mean aggregation preserves per-switch-pair sums (exactly here:
        // the cross values average to a whole number), and both totals
        // are exact, so they agree bit for bit
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let one = TieredNl::from(dense);
        let t = one.regroup(&nodes, &idx);
        assert_eq!(t.pair_sum(&nodes).to_bits(), one.pair_sum(&nodes).to_bits());
    }

    #[test]
    fn uniform_cross_pairs_reproduce_dense_everywhere() {
        // the tree-topology model: every cross pair sees the same trunk
        let idx = index_2x3();
        let mut dense = SymMatrix::new(6, 0.0);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                let same = (u < 3) == (v < 3);
                dense.set(
                    NodeId(u),
                    NodeId(v),
                    if same { (u + v) as f64 } else { 7.5 },
                );
            }
        }
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from(dense.clone()).regroup(&nodes, &idx);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                assert_eq!(t.get(NodeId(u), NodeId(v)), dense.get(NodeId(u), NodeId(v)));
            }
        }
    }

    /// `t.min_incident(subset)` against the brute-force minimum over the
    /// other members of `subset`, bit for bit.
    fn assert_min_incident_is_bruteforce(t: &TieredNl, subset: &[NodeId]) {
        let mins = t.min_incident(subset);
        assert_eq!(mins.len(), subset.len());
        for (i, &u) in subset.iter().enumerate() {
            let want = subset
                .iter()
                .filter(|&&v| v != u)
                .fold(f64::INFINITY, |m, &v| m.min(t.get(u, v)));
            assert_eq!(
                mins[i].to_bits(),
                want.to_bits(),
                "node {u:?} of {subset:?}"
            );
        }
    }

    #[test]
    fn min_incident_matches_bruteforce() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from(dense.clone()).regroup(&nodes, &idx);
        let ids = |v: &[u32]| v.iter().copied().map(NodeId).collect::<Vec<_>>();
        for subset in [
            ids(&[0, 1, 2, 3, 4, 5]),
            // one member of each switch dropped
            ids(&[0, 2, 4]),
            // switch 1 has no usable node
            ids(&[0, 1, 2]),
            // one member of switch 1 dropped, switch 0 whole
            ids(&[0, 1, 2, 3, 5]),
            // one node per switch
            ids(&[1, 4]),
        ] {
            assert_min_incident_is_bruteforce(&t, &subset);
        }
    }

    #[test]
    fn min_incident_on_subsets_of_uneven_switches_matches_bruteforce() {
        // 40 nodes over 5 switches of 16, 4, 8, 8 and 4, with distinct intra and inter
        // values, so a wrongly kept or dropped entry changes the minimum
        let v = 40u32;
        let switch_of: Vec<u32> = (0..v).map(|n| (n * n + n / 2) % 5).collect();
        let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
        let val = |a: u32, b: u32| 0.05 + ((a * 7919 + b * 104_729) % 1009) as f64 / 997.0;
        let t = TieredNl::from_fns(
            &nodes,
            &switch_of,
            5,
            |a, b| val(a.0.min(b.0), a.0.max(b.0)),
            |s, q| val(s.min(q), s.max(q)) / 3.0,
        );
        // every node; every third node; every node off switch 2; and the
        // odd nodes off switches 0 and 4
        let subsets: [Vec<NodeId>; 4] = [
            nodes.clone(),
            nodes.iter().copied().step_by(3).collect(),
            nodes
                .iter()
                .copied()
                .filter(|n| switch_of[n.index()] != 2)
                .collect(),
            nodes
                .iter()
                .copied()
                .filter(|n| n.0 % 2 == 1 && matches!(switch_of[n.index()], 0 | 4))
                .collect(),
        ];
        for subset in &subsets {
            assert_min_incident_is_bruteforce(&t, subset);
        }
    }

    #[test]
    fn restricted_pair_sum_uses_only_the_subset() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from(dense).regroup(&nodes, &idx);
        // subset spanning both switches
        let subset = [NodeId(0), NodeId(2), NodeId(4)];
        let manual =
            t.get(NodeId(0), NodeId(2)) + t.get(NodeId(0), NodeId(4)) + t.get(NodeId(2), NodeId(4));
        assert_eq!(t.pair_sum(&subset), manual);
    }

    #[test]
    fn singleton_min_incident_is_infinite() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from(dense).regroup(&nodes, &idx);
        assert_eq!(t.min_incident(&[NodeId(1)]), vec![f64::INFINITY]);
    }

    #[test]
    fn group_sum_is_the_reference_pair_loop_bit_for_bit() {
        // 130 nodes over 7 uneven switches, values that are not dyadic so
        // any reordering of the sum would show in the low bits
        let v = 130u32;
        let switch_of: Vec<u32> = (0..v).map(|n| (n * n + 3 * n) % 7).collect();
        let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
        let val = |a: u32, b: u32| 0.05 + ((a * 7919 + b * 104_729) % 1009) as f64 / 997.0;
        let mut dense = SymMatrix::new(v as usize, 0.0);
        for a in 0..v {
            for b in (a + 1)..v {
                let same = switch_of[a as usize] == switch_of[b as usize];
                let x = if same { val(a, b) } else { val(a % 7, b % 7) };
                dense.set(NodeId(a), NodeId(b), x);
            }
        }
        let t = TieredNl::from_fns(
            &nodes,
            &switch_of,
            7,
            |a, b| val(a.0, b.0),
            |s, q| val(s.min(q), s.max(q)) / 3.0,
        );
        let reps = [TieredNl::from(dense), t];
        // scrambled order, spanning every switch; the 70-node group
        // repeats one node
        let scrambled: Vec<NodeId> = (0..v).map(|i| NodeId((i * 37 + 11) % v)).collect();
        let mut repeated = scrambled[..69].to_vec();
        repeated.push(scrambled[5]);
        let groups = [
            &scrambled[..0],
            &scrambled[..1],
            &scrambled[..2],
            &scrambled[..64],
            &scrambled[..65],
            &repeated[..],
            &scrambled[..],
        ];
        for rep in &reps {
            for g in groups {
                let mut want = 0.0;
                for (i, &x) in g.iter().enumerate() {
                    for &y in &g[i + 1..] {
                        want += if x == y { 0.0 } else { rep.get(x, y) };
                    }
                }
                assert_eq!(
                    rep.group_sum(g).to_bits(),
                    want.to_bits(),
                    "{} nodes",
                    g.len()
                );
            }
        }
    }

    /// An order-sensitive, non-dyadic pair value: a swapped argument or
    /// a reordered sum shows in the low bits.
    fn val(a: u32, b: u32) -> f64 {
        0.05 + ((a * 7919 + b * 104_729) % 1009) as f64 / 997.0
    }

    /// A closure call `from_fns` made: an intra pair or a switch pair.
    #[derive(Debug, PartialEq)]
    enum Call {
        Intra(NodeId, NodeId),
        Inter(u32, u32),
    }

    /// `from_fns` over `nodes` with the recording closures of [`val`],
    /// and the calls it made.
    fn recorded(nodes: &[NodeId], switch_of: &[u32], k: usize) -> (TieredNl, Vec<Call>) {
        let calls = std::cell::RefCell::new(Vec::new());
        let t = TieredNl::from_fns(
            nodes,
            switch_of,
            k,
            |u, v| {
                calls.borrow_mut().push(Call::Intra(u, v));
                val(u.0, v.0)
            },
            |s, q| {
                calls.borrow_mut().push(Call::Inter(s, q));
                val(s + 1000, q + 2000)
            },
        );
        (t, calls.into_inner())
    }

    /// The square reference of the same closures: every intra pair of a
    /// switch in `nodes` order, then every switch pair with nodes on both
    /// sides, each written to both triangles of a dense matrix by id (the
    /// order `from_fns` has always called them in), and that call order.
    fn square(nodes: &[NodeId], switch_of: &[u32], k: usize) -> (Vec<Vec<f64>>, Vec<Call>) {
        let v = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut sq = vec![vec![0.0; v]; v];
        let mut calls = Vec::new();
        let members: Vec<Vec<NodeId>> = (0..k as u32)
            .map(|s| {
                let on = nodes.iter().zip(switch_of).filter(|&(_, &x)| x == s);
                on.map(|(&n, _)| n).collect()
            })
            .collect();
        for ms in &members {
            for (i, &a) in ms.iter().enumerate() {
                for &b in &ms[i + 1..] {
                    calls.push(Call::Intra(a, b));
                    (sq[a.index()][b.index()], sq[b.index()][a.index()]) =
                        (val(a.0, b.0), val(a.0, b.0));
                }
            }
        }
        for s in 0..k {
            for q in s + 1..k {
                if members[s].is_empty() || members[q].is_empty() {
                    continue;
                }
                calls.push(Call::Inter(s as u32, q as u32));
                let x = val(s as u32 + 1000, q as u32 + 2000);
                for &a in &members[s] {
                    for &b in &members[q] {
                        (sq[a.index()][b.index()], sq[b.index()][a.index()]) = (x, x);
                    }
                }
            }
        }
        (sq, calls)
    }

    /// The layouts every read is checked on: `(nodes, switch_of, switches)`.
    fn layouts() -> Vec<(Vec<NodeId>, Vec<u32>, usize)> {
        let ids = |v: &[u32]| v.iter().copied().map(NodeId).collect::<Vec<_>>();
        vec![
            // one switch, ids out of order and with gaps
            (ids(&[4, 0, 9, 2, 7, 5]), vec![0; 6], 1),
            // switches of 5, 0, 1, 3 and 0 nodes: an empty switch between
            // two occupied ones, a one-node switch, and an empty last one
            (
                ids(&[0, 1, 2, 3, 4, 5, 6, 7, 8]),
                vec![0, 3, 0, 2, 3, 0, 3, 0, 0],
                5,
            ),
            // 40 nodes over 6 switches of uneven size, interleaved
            (
                (0..40).map(NodeId).collect(),
                (0..40).map(|n| (n * n + n / 2) % 6).collect(),
                6,
            ),
            // a node per switch: no intra pair at all
            (ids(&[3, 1, 2]), vec![2, 0, 1], 3),
        ]
    }

    #[test]
    fn from_fns_calls_its_closures_in_the_reference_order() {
        for (nodes, switch_of, k) in layouts() {
            let (_, calls) = recorded(&nodes, &switch_of, k);
            assert_eq!(calls, square(&nodes, &switch_of, k).1, "{switch_of:?}");
        }
    }

    #[test]
    fn every_read_is_the_square_reference_bit_for_bit() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (nodes, switch_of, k) in layouts() {
            let (t, _) = recorded(&nodes, &switch_of, k);
            let (sq, _) = square(&nodes, &switch_of, k);
            let what = format!("{switch_of:?}");
            assert_eq!(t.num_switches(), k, "{what}");
            for (&u, &su) in nodes.iter().zip(&switch_of) {
                assert_eq!(t.switch_of_node(u), su, "{what}");
                let row = t.row(u);
                for &v in &nodes {
                    let want = sq[u.index()][v.index()].to_bits();
                    assert_eq!(t.get(u, v).to_bits(), want, "get({u}, {v}) {what}");
                    assert_eq!(row(v).to_bits(), want, "row({u})({v}) {what}");
                }
            }
            for (&u, &su) in nodes.iter().zip(&switch_of) {
                for (&v, &sv) in nodes.iter().zip(&switch_of).filter(|&(_, &sv)| sv != su) {
                    let want = sq[u.index()][v.index()].to_bits();
                    assert_eq!(t.inter_value(su, sv).to_bits(), want, "{what}");
                }
            }
            // every node, every other node scrambled, and a group that
            // repeats a node
            let n = nodes.len();
            let scrambled: Vec<NodeId> = (0..n).map(|i| nodes[(i * 7 + 3) % n]).collect();
            let mut repeated = scrambled[..n.div_ceil(2)].to_vec();
            repeated.push(scrambled[0]);
            repeated.push(scrambled[n / 2]);
            let evens: Vec<NodeId> = scrambled.iter().copied().step_by(2).collect();
            for g in [&nodes[..], &scrambled, &repeated, &evens, &nodes[..1], &[]] {
                let mut want = 0.0;
                let mut terms = Vec::new();
                for (i, &a) in g.iter().enumerate() {
                    for &b in &g[i + 1..] {
                        want += sq[a.index()][b.index()];
                        terms.push((sq[a.index()][b.index()], 1));
                    }
                }
                assert_eq!(t.group_sum(g).to_bits(), want.to_bits(), "{g:?} {what}");
                if g.len() == nodes.len() || g == evens {
                    let exact = crate::exact::sum(terms);
                    assert_eq!(t.pair_sum(g).to_bits(), exact.to_bits(), "{g:?} {what}");
                    let mins: Vec<f64> = g
                        .iter()
                        .map(|&a| {
                            let others = g.iter().filter(|&&b| b != a);
                            others.fold(f64::INFINITY, |m, &b| m.min(sq[a.index()][b.index()]))
                        })
                        .collect();
                    assert_eq!(bits(&t.min_incident(g)), bits(&mins), "{g:?} {what}");
                }
            }
        }
    }

    #[test]
    fn derivations_store_each_pair_once() {
        use nlrm_cluster::iitk::{campus, small_cluster};
        use nlrm_monitor::daemons::DaemonConfig;
        use nlrm_monitor::{MonitorRuntime, MonitorTopo, ShardConfig};
        use nlrm_sim_core::time::Duration;
        let derive = |snap: &nlrm_monitor::ClusterSnapshot| {
            let (cw, nw) = (
                crate::ComputeWeights::paper_default(),
                crate::NetworkWeights::paper_default(),
            );
            crate::Loads::derive(snap, &cw, &nw, Some(4)).expect("derive")
        };
        let warm = Duration::from_secs(360);
        // central: one switch, one cell per usable pair
        let mut cluster = small_cluster(7, 3);
        let snap = MonitorRuntime::new(&cluster).warm_snapshot(&mut cluster, warm);
        let loads = derive(&snap.expect("central snapshot"));
        assert_eq!((loads.usable.len(), loads.nl.num_switches()), (7, 1));
        assert_eq!(loads.nl.pairs.len(), 7 * 6 / 2);
        // blocks: three shards of 5 and the empty bucket of unlisted nodes
        let mut cluster = campus(3, 5, 3);
        let topo = MonitorTopo::Sharded(ShardConfig::new(cluster.topology().switch_index()));
        let mut rt = MonitorRuntime::with_topo(&cluster, DaemonConfig::default(), topo);
        let loads = derive(
            &rt.warm_snapshot(&mut cluster, warm)
                .expect("block snapshot"),
        );
        assert_eq!((loads.usable.len(), loads.nl.num_switches()), (15, 4));
        assert_eq!(loads.nl.pairs.len(), 3 * (5 * 4 / 2) + 4 * 3 / 2);
    }
}
