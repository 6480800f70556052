//! The allocator's one network-load representation: exact intra-switch
//! pairs, one value per switch pair across switches.
//!
//! The paper assumes a tree of switches where every node pair crossing the
//! same pair of switches sees the same trunk (§5's 4-switch testbed). Under
//! that model a V×V pair matrix is redundant: the network load between
//! two nodes on *different* switches is a property of the switch pair, not
//! of the nodes. [`TieredNl`] stores
//!
//! * one small exact matrix per switch (intra-switch pairs keep their
//!   measured values), and
//! * one S×S matrix of inter-switch values: exact when derived from a
//!   sharded snapshot (every cross pair of a switch pair reads the same
//!   estimate), the mean when [regrouped](TieredNl::regroup) from one
//!   switch,
//!
//! which is O(Σ m_s² + S²) memory instead of O(V²) — at 100k nodes in
//! 48-node switches, ~75 MB instead of ~80 GB. A central monitor's
//! derivation, which measures every pair, is the one-switch case: all of
//! its pairs are exact intra values, as in a dense matrix. The mean
//! aggregation is *sum-preserving* per switch pair, so group network
//! loads summed over many cross pairs stay close to the one-switch value,
//! and are exactly equal whenever the tree-topology model holds (all
//! cross pairs equal). The universe total ([`TieredNl::pair_sum`]) is an
//! exact sum, rounded once, so it equals the one-switch total bit for bit
//! in that case too.

use crate::exact;
use nlrm_monitor::SymMatrix;
use nlrm_topology::{NodeId, SwitchIndex};

/// Tiered pairwise network load: exact within a switch, aggregated across.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredNl {
    /// Per node id (dense over the node-id space), its switch and its
    /// position in that switch's `members` list; switch `u32::MAX` marks
    /// nodes the representation does not cover.
    at: Vec<(u32, u32)>,
    /// Covered nodes per switch, ascending node id.
    members: Vec<Vec<NodeId>>,
    /// Per-switch exact matrix, `m×m` row-major by local index.
    intra: Vec<Vec<f64>>,
    /// `S×S` row-major aggregated inter-switch values (diagonal unused).
    inter: Vec<f64>,
}

const UNCOVERED: u32 = u32::MAX;

impl TieredNl {
    /// Build from explicit per-pair functions.
    ///
    /// * `nodes` — the covered node set (ascending ids recommended).
    /// * `switch_of` — switch bucket of each node in `nodes` (parallel).
    /// * `num_switches` — switch-id space bound.
    /// * `intra` — exact value for a same-switch pair.
    /// * `inter` — aggregated value for a switch pair `(s, t)`, `s ≠ t`.
    pub fn from_fns(
        nodes: &[NodeId],
        switch_of: &[u32],
        num_switches: usize,
        mut intra: impl FnMut(NodeId, NodeId) -> f64,
        mut inter: impl FnMut(u32, u32) -> f64,
    ) -> TieredNl {
        assert_eq!(nodes.len(), switch_of.len());
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_switches];
        for (&n, &s) in nodes.iter().zip(switch_of) {
            assert!((s as usize) < num_switches, "switch {s} out of range");
            members[s as usize].push(n);
        }
        let intra_mats: Vec<Vec<f64>> = members
            .iter()
            .map(|ms| {
                let m = ms.len();
                let mut mat = vec![0.0; m * m];
                for (i, &u) in ms.iter().enumerate() {
                    for (j, &v) in ms.iter().enumerate().skip(i + 1) {
                        let val = intra(u, v);
                        mat[i * m + j] = val;
                        mat[j * m + i] = val;
                    }
                }
                mat
            })
            .collect();
        let mut inter_mat = vec![0.0; num_switches * num_switches];
        for s in 0..num_switches as u32 {
            for t in (s + 1)..num_switches as u32 {
                if members[s as usize].is_empty() || members[t as usize].is_empty() {
                    continue;
                }
                let val = inter(s, t);
                inter_mat[s as usize * num_switches + t as usize] = val;
                inter_mat[t as usize * num_switches + s as usize] = val;
            }
        }
        TieredNl::from_parts(members, intra_mats, inter_mat)
    }

    /// Build from finished parts: `members[s]` lists switch `s`'s nodes,
    /// `intra[s]` is their `m×m` row-major matrix by position (zero
    /// diagonal), and `inter` is `S×S` row-major.
    pub(crate) fn from_parts(
        members: Vec<Vec<NodeId>>,
        intra: Vec<Vec<f64>>,
        inter: Vec<f64>,
    ) -> TieredNl {
        let max_id = members
            .iter()
            .flatten()
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0);
        let mut at = vec![(UNCOVERED, 0); max_id];
        for (s, ms) in members.iter().enumerate() {
            for (i, &n) in ms.iter().enumerate() {
                assert_eq!(at[n.index()].0, UNCOVERED, "duplicate node {n}");
                at[n.index()] = (s as u32, i as u32);
            }
        }
        TieredNl {
            at,
            members,
            intra,
            inter,
        }
    }

    /// The same pair values over `index`'s switches: intra-switch pairs
    /// are copied exactly; each inter-switch cell becomes the *mean* over
    /// its cross pairs of `nodes` (sum-preserving, so group sums stay
    /// calibrated). Meant for a one-switch representation, whose every
    /// pair is exact.
    pub fn regroup(&self, nodes: &[NodeId], index: &SwitchIndex) -> TieredNl {
        let switch_of: Vec<u32> = nodes.iter().map(|&n| index.switch_of(n).0).collect();
        // mean per switch pair, computed over the covered node set
        let s_count = index.num_switches();
        let mut sums = vec![0.0f64; s_count * s_count];
        let mut counts = vec![0u64; s_count * s_count];
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                let (su, sv) = (index.switch_of(u).0 as usize, index.switch_of(v).0 as usize);
                if su != sv {
                    sums[su * s_count + sv] += self.get(u, v);
                    counts[su * s_count + sv] += 1;
                    sums[sv * s_count + su] = sums[su * s_count + sv];
                    counts[sv * s_count + su] = counts[su * s_count + sv];
                }
            }
        }
        TieredNl::from_fns(
            nodes,
            &switch_of,
            s_count,
            |u, v| self.get(u, v),
            |s, t| {
                let k = s as usize * s_count + t as usize;
                if counts[k] == 0 {
                    0.0
                } else {
                    sums[k] / counts[k] as f64
                }
            },
        )
    }

    /// Number of switch buckets.
    pub fn num_switches(&self) -> usize {
        self.members.len()
    }

    /// Switch bucket of a covered node.
    pub fn switch_of_node(&self, n: NodeId) -> u32 {
        self.locate(n).0
    }

    /// `(switch, local index)` of a covered node.
    fn locate(&self, n: NodeId) -> (u32, u32) {
        let at = self.at[n.index()];
        debug_assert_ne!(at.0, UNCOVERED, "node {n} not covered by tiered NL");
        at
    }

    /// Aggregated value for a switch pair (`s ≠ t`).
    pub fn inter_value(&self, s: u32, t: u32) -> f64 {
        debug_assert_ne!(s, t);
        self.inter[s as usize * self.members.len() + t as usize]
    }

    /// Network load between two distinct covered nodes.
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        self.row(u)(v)
    }

    /// `v ↦ get(u, v)` with `u`'s rows looked up once: the addition costs
    /// of one start node read a whole row.
    pub fn row(&self, u: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
        let (su, lu) = self.locate(u);
        let m = self.members[su as usize].len();
        let intra_row = &self.intra[su as usize][lu as usize * m..][..m];
        let inter_row = &self.inter[su as usize * self.members.len()..][..self.members.len()];
        move |v| {
            let (sv, lv) = self.locate(v);
            if sv == su {
                intra_row[lv as usize]
            } else {
                inter_row[sv as usize]
            }
        }
    }

    /// Σ `get(x, y)` over the `i < j` pairs of `nodes`, in the same order
    /// as the reference pair loop (so bit-identical to it), with each
    /// node's (switch, local index) resolved once instead of per pair. A
    /// repeated node reads the zero intra diagonal. Groups of up to 64
    /// nodes resolve into a stack buffer.
    pub fn group_sum(&self, nodes: &[NodeId]) -> f64 {
        let mut stack = [(0u32, 0u32); 64];
        let mut spill = Vec::new();
        let loc: &mut [(u32, u32)] = if nodes.len() <= stack.len() {
            &mut stack[..nodes.len()]
        } else {
            spill.resize(nodes.len(), (0, 0));
            &mut spill
        };
        for (slot, &u) in loc.iter_mut().zip(nodes) {
            *slot = self.at[u.index()];
        }
        let s_count = self.members.len();
        let mut sum = 0.0;
        for (i, &(su, lu)) in loc.iter().enumerate() {
            let m = self.members[su as usize].len();
            let intra_row = &self.intra[su as usize][lu as usize * m..][..m];
            let inter_row = &self.inter[su as usize * s_count..][..s_count];
            for &(sv, lv) in &loc[i + 1..] {
                sum += if su == sv {
                    intra_row[lv as usize]
                } else {
                    inter_row[sv as usize]
                };
            }
        }
        sum
    }

    /// Σ over all unordered pairs of `usable` (a subset of the covered
    /// nodes), in O(Σ m_s² + S²) instead of O(|usable|²): each switch's
    /// usable intra pairs read off its matrix, and each switch pair's
    /// inter value taken `count_s · count_t` times. The sum is exact,
    /// rounded once, so it equals the one-switch representation's total
    /// over the same pair values bit for bit.
    pub fn pair_sum(&self, usable: &[NodeId]) -> f64 {
        let s_count = self.members.len();
        let mut local: Vec<Vec<usize>> = vec![Vec::new(); s_count];
        for &n in usable {
            let (s, l) = self.locate(n);
            local[s as usize].push(l as usize);
        }
        let mats = self.intra.iter().zip(&self.members);
        let intra = local.iter().zip(mats).flat_map(|(ls, (mat, ms))| {
            ls.iter().enumerate().flat_map(move |(i, &a)| {
                let row = &mat[a * ms.len()..][..ms.len()];
                ls[i + 1..].iter().map(move |&b| (row[b], 1))
            })
        });
        let local = &local;
        let inter = (0..s_count).flat_map(|s| {
            let row = &self.inter[s * s_count..][..s_count];
            (s + 1..s_count).map(move |t| (row[t], local[s].len() * local[t].len()))
        });
        exact::sum(intra.chain(inter))
    }

    /// For every node of `usable`, the minimum NL to any *other* usable
    /// node (`f64::INFINITY` when `usable` is a singleton). Used as the
    /// network term of the pruning lower bound.
    pub fn min_incident(&self, usable: &[NodeId]) -> Vec<f64> {
        let s_count = self.members.len();
        // usable flag per member of each switch, and per switch whether
        // it has a usable member
        let mut live: Vec<Vec<bool>> = self
            .members
            .iter()
            .map(|ms| vec![false; ms.len()])
            .collect();
        let mut occupied = vec![false; s_count];
        for &n in usable {
            let (s, l) = self.locate(n);
            live[s as usize][l as usize] = true;
            occupied[s as usize] = true;
        }
        // min of `row` over the entries whose `keep` flag is set, without
        // the diagonal entry `at`
        fn row_min(row: &[f64], keep: &[bool], at: usize) -> f64 {
            let min = |m: f64, (&x, &k): (&f64, &bool)| m.min(if k { x } else { f64::INFINITY });
            let m = row[..at].iter().zip(&keep[..at]).fold(f64::INFINITY, min);
            row[at + 1..].iter().zip(&keep[at + 1..]).fold(m, min)
        }
        // per switch: min inter value to any other switch with usable nodes
        let min_inter: Vec<f64> = (0..s_count)
            .map(|s| row_min(&self.inter[s * s_count..][..s_count], &occupied, s))
            .collect();
        // per node: its intra row over the usable members
        usable
            .iter()
            .map(|&u| {
                let (s, lu) = self.locate(u);
                let (s, lu) = (s as usize, lu as usize);
                let m = self.members[s].len();
                let row = &self.intra[s][lu * m..][..m];
                min_inter[s].min(row_min(row, &live[s], lu))
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
}
