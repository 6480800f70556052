//! Deriving the allocator's inputs from a monitoring snapshot:
//! compute load `CL_v` (Eq. 1), network load `NL_(u,v)` (Eq. 2), and
//! effective processor count `pc_v` (Eq. 3).
//!
//! Eq. 2 has one implementation for both snapshot shapes, and both derive
//! a [`TieredNl`]. A dense (central-monitor) snapshot is one bucket with
//! one input per usable pair. A block snapshot gives one input per
//! intra-shard pair and one per shard pair, read by all its cross pairs.
//! Eq. 2's sums over the usable pairs are exact sums, rounded once, that
//! add each input times the number of pairs reading it, so both shapes
//! derive the same NL values by construction, in O(Σ m_s² + S²) adds on
//! blocks. The column they fill holds each input once, Σ m_s(m_s−1)/2 +
//! S(S−1)/2 cells, and becomes the [`TieredNl`]'s storage by move.

use crate::candidate::{ForeignIndex, SwitchStreams};
use crate::exact;
use crate::request::AllocError;
use crate::saw::{saw_scores, Column, Criterion};
use crate::scalable::FracMin;
use crate::tiered::{BucketPairs, TieredNl};
use crate::weights::{ComputeWeights, NetworkWeights};
use nlrm_monitor::{
    pair_index, BlockPairs, ClusterSnapshot, LatencyStat, NodeSample, PairSource, ShardBlock,
};
use nlrm_sim_core::time::Duration;
use nlrm_sim_core::window::WindowedValue;
use nlrm_topology::{NodeId, SwitchIndex};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// How load derivation degrades when monitoring data has gone stale
/// (daemons crashed, hung, or their writes were delayed).
///
/// Staleness is judged against the snapshot's own assembly time, so a
/// frozen snapshot stays internally consistent no matter how far reality
/// has moved on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessPolicy {
    /// A node whose newest sample is older than this is dropped from the
    /// usable universe: its compute load is pure fiction.
    pub max_sample_age: Duration,
    /// A pair whose latency or bandwidth row is older than this keeps its
    /// last value but is blended toward the unmeasured penalty.
    pub max_pair_age: Duration,
    /// Blend factor in `[0, 1]`: 0 trusts stale pair values as-is, 1 treats
    /// them as unmeasured. Fresh < stale < unmeasured holds for any value
    /// strictly between.
    pub stale_blend: f64,
}

impl Default for StalenessPolicy {
    /// Conservative defaults sized to the daemon periods: samples survive
    /// 12 missed 5-second publications, pair rows survive 3 missed
    /// 5-minute bandwidth sweeps.
    fn default() -> Self {
        StalenessPolicy {
            max_sample_age: Duration::from_secs(60),
            max_pair_age: Duration::from_secs(900),
            stale_blend: 0.5,
        }
    }
}

impl StalenessPolicy {
    /// Never degrade anything (pre-staleness-awareness behaviour).
    pub fn off() -> Self {
        StalenessPolicy {
            max_sample_age: Duration::MAX,
            max_pair_age: Duration::MAX,
            stale_blend: 0.0,
        }
    }

    fn validate(&self) -> Result<(), AllocError> {
        if !(0.0..=1.0).contains(&self.stale_blend) {
            return Err(AllocError::InvalidRequest(format!(
                "stale_blend must be in [0, 1], got {}",
                self.stale_blend
            )));
        }
        Ok(())
    }
}

/// `Loads::position` entry of an id outside the usable set.
const NOT_USABLE: u32 = u32::MAX;

/// Everything Algorithms 1–2 need, derived once per allocation.
#[derive(Debug, Clone)]
pub struct Loads {
    /// Usable nodes (live, with fresh samples), ascending id order.
    pub usable: Vec<NodeId>,
    /// Compute load per usable node (parallel to `usable`). Lower is better.
    pub cl: Vec<f64>,
    /// Pairwise network load, exact within a switch and one value per
    /// switch pair (a central derivation is one switch, every pair
    /// exact). Only entries between usable nodes are meaningful. Lower is
    /// better. Shared, not copied, by every [`Loads::restrict`] view of
    /// this derivation.
    pub nl: Arc<TieredNl>,
    /// Effective processor count per usable node (parallel to `usable`).
    pub pc: Vec<u32>,
    /// Position in the usable arrays per node id (dense over the id space
    /// up to the largest usable id); [`NOT_USABLE`] marks other ids.
    position: Vec<u32>,
    /// Σ CL over the usable universe, cached at construction so per-group
    /// scoring doesn't re-walk the whole universe.
    c_all: f64,
    /// Σ NL over all usable pairs, computed on first use and cached
    /// (recomputing it per `group_cost` call was O(V²) each time, and the
    /// broker's restricted views never ask for it).
    n_all: OnceLock<f64>,
    /// Per usable node its minimum NL to any other usable node, and the
    /// smallest of those: the pruned allocator's network bound inputs,
    /// computed on first use.
    min_incident: OnceLock<(Vec<f64>, f64)>,
    /// The foreign-switch neighbourhoods (`None` with too few switches),
    /// built on first use.
    foreign: OnceLock<Option<ForeignIndex>>,
    /// The per-switch streams in `(CL, id)` order and start positions,
    /// built on first use.
    streams: OnceLock<SwitchStreams>,
    /// The fractional-knapsack compute minimum over every usable node,
    /// built on first use.
    frac_min: OnceLock<FracMin>,
}

/// Histogram bucket bounds (seconds) for snapshot sample age.
const SAMPLE_AGE_BOUNDS: &[f64] = &[5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0, 3600.0];

/// Representative value of a windowed attribute: the mean of the 1/5/15-min
/// running means. Folding the windows keeps the paper's per-group weights
/// intact while still using all three histories.
fn windowed_rep(w: &WindowedValue) -> f64 {
    (w.m1 + w.m5 + w.m15) / 3.0
}

impl Loads {
    /// Derive loads from a snapshot with the default [`StalenessPolicy`].
    ///
    /// * `ppn` — when given, overrides `pc_v` for every node (paper §3.3.1).
    pub fn derive(
        snap: &ClusterSnapshot,
        compute_weights: &ComputeWeights,
        network_weights: &NetworkWeights,
        ppn: Option<u32>,
    ) -> Result<Loads, AllocError> {
        Self::derive_with_policy(
            snap,
            compute_weights,
            network_weights,
            ppn,
            &StalenessPolicy::default(),
        )
    }

    /// Derive loads from a snapshot under an explicit staleness policy:
    /// nodes with over-age samples leave the usable universe, over-age
    /// pair measurements are blended toward the unmeasured penalty.
    pub fn derive_with_policy(
        snap: &ClusterSnapshot,
        compute_weights: &ComputeWeights,
        network_weights: &NetworkWeights,
        ppn: Option<u32>,
        policy: &StalenessPolicy,
    ) -> Result<Loads, AllocError> {
        compute_weights
            .validate()
            .map_err(AllocError::InvalidRequest)?;
        network_weights
            .validate()
            .map_err(AllocError::InvalidRequest)?;
        policy.validate()?;
        // counted so schedulers can prove how often they pay for Eq. 2
        // (the broker's batched-cycle test relies on it)
        nlrm_obs::ctx::inc("loads_derive_total");
        // the usable nodes' records, in the snapshot's id order
        let mut infos = Vec::new();
        let mut excluded = 0usize;
        let observed = nlrm_obs::ctx::is_active();
        let stage = nlrm_obs::ctx::stage_start();
        for info in snap.nodes.iter().filter(|i| i.live) {
            let n = info.node;
            if info.sample.spec.cores == 0 {
                // a malformed sample (the store takes any writer's bytes):
                // Eq. 3 has no processor count to give the node
                if observed {
                    let event = nlrm_obs::EventKind::ZeroCoreNodeExcluded { node: n };
                    nlrm_obs::ctx::emit(nlrm_obs::Severity::Warn, snap.taken_at, event);
                    nlrm_obs::ctx::inc("loads_zero_core_node_excluded_total");
                }
                continue;
            }
            let age = snap.taken_at.since(info.sample.taken_at);
            if age <= policy.max_sample_age {
                infos.push(info);
            } else {
                excluded += 1;
                if observed {
                    // over-age sample: the node leaves the universe
                    let event = nlrm_obs::EventKind::StaleNodeExcluded { node: n, age };
                    nlrm_obs::ctx::emit(nlrm_obs::Severity::Warn, snap.taken_at, event);
                    nlrm_obs::ctx::inc("loads_stale_node_excluded_total");
                }
            }
        }
        let usable: Vec<NodeId> = infos.iter().map(|i| i.node).collect();
        if observed {
            if let Some(age) = snap.max_sample_age() {
                nlrm_obs::ctx::observe(
                    "snapshot_sample_age_secs",
                    SAMPLE_AGE_BOUNDS,
                    age.as_secs_f64(),
                );
            }
            // health inputs: how much of the monitored universe is usable,
            // and what fraction of it was dropped as stale this derivation
            let monitored = usable.len() + excluded;
            nlrm_obs::ctx::set_gauge("loads_usable_nodes", usable.len() as f64);
            nlrm_obs::ctx::set_gauge(
                "loads_stale_fraction",
                if monitored > 0 {
                    excluded as f64 / monitored as f64
                } else {
                    0.0
                },
            );
        }
        if usable.is_empty() {
            return Err(AllocError::NoUsableNodes);
        }
        if observed {
            let mean_load = infos
                .iter()
                .map(|i| windowed_rep(&i.sample.cpu_load))
                .sum::<f64>()
                / infos.len() as f64;
            nlrm_obs::ctx::set_gauge("cluster_mean_cpu_load", mean_load);
        }

        // --- Eq. 1: compute load via SAW over Table 1 attributes ---
        let w = compute_weights;
        let (min, max) = (Criterion::Minimize, Criterion::Maximize);
        let column = |value: fn(&NodeSample) -> f64, criterion, weight| Column {
            values: infos.iter().map(|i| value(&i.sample)).collect(),
            criterion,
            weight,
        };
        let columns = [
            column(|s| windowed_rep(&s.cpu_load), min, w.cpu_load),
            column(|s| windowed_rep(&s.cpu_util), min, w.cpu_util),
            column(|s| windowed_rep(&s.flow_rate_mbps), min, w.flow_rate),
            column(
                |s| s.available_mem_gb(windowed_rep(&s.mem_used_frac)),
                max,
                w.memory,
            ),
            column(|s| s.spec.cores as f64, max, w.core_count),
            column(|s| s.spec.freq_ghz, max, w.cpu_freq),
            column(|s| s.spec.total_mem_gb, max, w.total_mem),
            column(|s| s.users as f64, min, w.users),
        ];
        let mut cl = saw_scores(&columns);

        // --- Eq. 2: pairwise network load, kept in the snapshot's shape ---
        let nl = match &snap.pairs {
            PairSource::Dense(_) => central_network_load(snap, &usable, network_weights, policy),
            PairSource::Blocks(b) => block_network_load(snap, b, &usable, network_weights, policy),
        };

        // Rescale CL to mean 1 (the NL builders rescale NL the same way).
        // Sum normalization alone leaves CL ~ 1/V and NL ~ 1/V², so in
        // `A_v(u) = α·CL(u) + β·NL(v,u)` (Algorithm 1) the network term
        // would be a factor V smaller than α/β intends. Rescaling is
        // invariant for every ranking that normalizes per-term anyway
        // (Algorithm 2, group_cost, load-aware ordering) but makes the
        // candidate-generation trade-off mean what the paper's α/β say.
        rescale_to_unit_mean(&mut cl);

        // --- Eq. 3: effective processor count ---
        let pc: Vec<u32> = infos
            .iter()
            .map(|i| match ppn {
                Some(p) => p,
                None => effective_pc(i.sample.spec.cores, i.sample.cpu_load.m1),
            })
            .collect();

        nlrm_obs::ctx::stage_end("derive", stage);
        Ok(Loads::from_parts(usable, cl, nl, pc))
    }

    /// Assemble a `Loads` from precomputed parts (used by the scale
    /// benches to synthesize tiered universes directly).
    pub fn from_parts(
        usable: Vec<NodeId>,
        cl: Vec<f64>,
        nl: impl Into<TieredNl>,
        pc: Vec<u32>,
    ) -> Loads {
        Self::assemble(usable, cl, Arc::new(nl.into()), pc)
    }

    /// A view of this derivation over fewer nodes or less capacity:
    /// `capacity(node, pc)` gives each usable node its new processor
    /// count, and 0 drops the node. The view shares this derivation's NL
    /// representation (no copy) and has the universe totals over the kept
    /// nodes, exactly as [`Loads::from_parts`] would. `capacity` is called
    /// once per usable node, in `usable` order. Restricting to nothing
    /// yields an empty universe; callers map that to their own error.
    pub fn restrict(&self, mut capacity: impl FnMut(NodeId, u32) -> u32) -> Loads {
        let mut usable = Vec::new();
        let mut cl = Vec::new();
        let mut pc = Vec::new();
        for (i, &node) in self.usable.iter().enumerate() {
            let cap = capacity(node, self.pc[i]);
            if cap > 0 {
                usable.push(node);
                cl.push(self.cl[i]);
                pc.push(cap);
            }
        }
        Self::assemble(usable, cl, Arc::clone(&self.nl), pc)
    }

    fn assemble(usable: Vec<NodeId>, cl: Vec<f64>, nl: Arc<TieredNl>, pc: Vec<u32>) -> Loads {
        assert_eq!(usable.len(), cl.len());
        assert_eq!(usable.len(), pc.len());
        assert!(usable.len() < NOT_USABLE as usize, "too many usable nodes");
        let len = usable.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut position = vec![NOT_USABLE; len];
        for (i, &n) in usable.iter().enumerate() {
            position[n.index()] = i as u32;
        }
        Loads {
            c_all: cl.iter().sum(),
            usable,
            cl,
            nl,
            pc,
            position,
            n_all: OnceLock::new(),
            min_incident: OnceLock::new(),
            foreign: OnceLock::new(),
            streams: OnceLock::new(),
            frac_min: OnceLock::new(),
        }
    }

    /// Regroup a one-switch network load over a topology's switches (see
    /// [`TieredNl::regroup`]): intra-switch pairs keep their exact values,
    /// inter-switch cells aggregate to the per-switch-pair mean. A no-op
    /// when the representation already has more than one switch.
    pub fn into_tiered(self, index: &SwitchIndex) -> Loads {
        if self.nl.num_switches() != 1 {
            return self;
        }
        let nl = self.nl.regroup(&self.usable, index);
        Loads::from_parts(self.usable, self.cl, nl, self.pc)
    }

    /// Index of `node` in the usable arrays.
    pub fn index(&self, node: NodeId) -> Option<usize> {
        match self.position.get(node.index()) {
            Some(&at) if at != NOT_USABLE => Some(at as usize),
            _ => None,
        }
    }

    /// Compute load of a usable node.
    pub fn cl_of(&self, node: NodeId) -> f64 {
        self.cl[self.position[node.index()] as usize]
    }

    /// Network load between two usable nodes (0 for `u == v`).
    pub fn nl_between(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            0.0
        } else {
            self.nl.get(u, v)
        }
    }

    /// Effective processor count of a usable node.
    pub fn pc_of(&self, node: NodeId) -> u32 {
        self.pc[self.position[node.index()] as usize]
    }

    /// Total processes the usable universe can host.
    pub fn total_capacity(&self) -> u64 {
        self.pc.iter().map(|&p| p as u64).sum()
    }

    /// Σ CL over the whole usable universe (cached at construction).
    pub fn total_compute_load(&self) -> f64 {
        self.c_all
    }

    /// Σ NL over all usable pairs (computed once, on first use), summing
    /// switch blocks instead of walking V² pairs.
    pub fn total_network_load(&self) -> f64 {
        *self.n_all.get_or_init(|| self.nl.pair_sum(&self.usable))
    }

    /// Per usable node (parallel to `usable`) its minimum NL to any other
    /// usable node, and the smallest of those (∞ for a lone node).
    /// Computed once, on first use.
    pub(crate) fn min_incident(&self) -> (&[f64], f64) {
        let (per_node, min) = self.min_incident.get_or_init(|| {
            let per_node = self.nl.min_incident(&self.usable);
            let min = per_node.iter().copied().fold(f64::INFINITY, f64::min);
            (per_node, min)
        });
        (per_node, *min)
    }

    /// The foreign-switch neighbourhoods, built once, on first use;
    /// `None` when every switch's foreign switches fit one neighbourhood.
    pub(crate) fn foreign_index(&self) -> Option<&ForeignIndex> {
        self.foreign
            .get_or_init(|| ForeignIndex::build(self))
            .as_ref()
    }

    /// The per-switch streams and starts, built once, on first use.
    pub(crate) fn switch_streams(&self) -> &SwitchStreams {
        self.streams.get_or_init(|| SwitchStreams::build(self))
    }

    /// The fractional-knapsack compute minimum over every usable node,
    /// built once, on first use.
    pub(crate) fn frac_min(&self) -> &FracMin {
        self.frac_min
            .get_or_init(|| FracMin::build(self.cl.iter().copied().zip(self.pc.iter().copied())))
    }
}

/// Scale a vector so its mean is 1 (no-op for all-zero input).
fn rescale_to_unit_mean(values: &mut [f64]) {
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    if mean > 0.0 {
        for v in values.iter_mut() {
            *v /= mean;
        }
    }
}

/// Eq. 3: `pc_v = coreCount_v − ⌈Load_v⌉ % coreCount_v`, using the 1-minute
/// mean load. The modulo keeps `pc_v` in `[1, coreCount]` even on heavily
/// loaded nodes, exactly as the paper writes it.
pub fn effective_pc(core_count: u32, load_m1: f64) -> u32 {
    assert!(core_count > 0);
    let load = load_m1.max(0.0).ceil() as u32;
    core_count - load % core_count
}

/// The unmeasured penalties of two columns, in one pass: 10× each
/// column's worst measured value.
fn penalties(lat: &[f64], cbw: &[f64]) -> (f64, f64) {
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    let (lat_max, cbw_max) = lat
        .iter()
        .zip(cbw)
        .fold((0.0f64, 0.0f64), |(l, c), (&x, &y)| {
            (l.max(finite(x)), c.max(finite(y)))
        });
    let penalty = |max: f64| if max > 0.0 { max * 10.0 } else { 1.0 };
    (penalty(lat_max), penalty(cbw_max))
}

/// An unmeasured (non-finite) entry becomes the penalty, and a `stale`
/// one is blended toward it by `blend`, so fresh < stale < unmeasured.
/// True if blended.
fn settle(value: &mut f64, penalty: f64, stale: bool, blend: f64) -> bool {
    if !value.is_finite() {
        *value = penalty;
    } else if stale {
        *value += blend * (penalty - *value).max(0.0);
        return true;
    }
    false
}

/// A fresh stretch's settling: its unmeasured inputs become the penalty.
fn unmeasured(column: &mut [f64], penalty: f64) {
    for x in column.iter_mut().filter(|x| !x.is_finite()) {
        *x = penalty;
    }
}

/// `saw::normalize_sum`'s entry for a column summing to `sum`.
fn normalized(value: f64, sum: f64) -> f64 {
    if sum <= 0.0 || !sum.is_finite() {
        0.0
    } else {
        value / sum
    }
}

/// An Eq. 2 input latency: the 1-minute mean, or the instant when the
/// mean is not yet known.
fn latency_input(stat: LatencyStat) -> f64 {
    if stat.m1.is_finite() {
        stat.m1
    } else {
        stat.instant
    }
}

/// Complement of available bandwidth: peak − available, +∞ for a pair
/// never measured (an absolute sentinel in bps could rank *better* than a
/// congested measured pair on fast links).
fn complement(peak_bps: f64, avail_bps: f64) -> f64 {
    if !peak_bps.is_finite() || peak_bps <= 0.0 {
        return f64::INFINITY;
    }
    (peak_bps - avail_bps).max(0.0)
}

/// The Eq. 2 inputs of pair `(u, v)`: its latency and bandwidth
/// complement, from one read of the pair.
fn eq2_inputs(snap: &ClusterSnapshot, u: NodeId, v: NodeId) -> (f64, f64) {
    let (lat, peak, avail) = snap.pair(u, v);
    (latency_input(lat), complement(peak, avail))
}

/// Column entries `range` of Eq. 2 inputs that share their pair count and
/// ages: each is read by `count` usable pairs, and its latency and
/// bandwidth rows have the two ages.
type Stretch = (Range<usize>, usize, Option<Duration>, Option<Duration>);

/// Eq. 2 in place over a derivation's distinct inputs. `lat` holds each
/// input's latency and `cbw` its bandwidth complement; `stretches` names
/// every entry a usable pair reads, and entries it does not name stay 0.
/// An unmeasured input takes its column's penalty, and one whose rows
/// aged past `policy.max_pair_age` is blended toward it. Both columns are
/// then normalized by their sums over the usable pairs and combined with
/// `w_lt`/`w_bw` into `lat`, which is rescaled to unit mean over the
/// usable pairs. Each sum over the usable pairs is exact, an input taken
/// `count` times, so every input gets the value a derivation with one
/// input per pair gives it. Staleness is decided once per stretch: a
/// fresh one only has its unmeasured inputs replaced.
fn network_load(
    snap: &ClusterSnapshot,
    lat: &mut [f64],
    cbw: &mut [f64],
    stretches: impl Iterator<Item = Stretch> + Clone,
    weights: &NetworkWeights,
    policy: &StalenessPolicy,
) {
    let (lat_penalty, cbw_penalty) = penalties(lat, cbw);
    let stale = |age: Option<Duration>| age.is_none_or(|a| a > policy.max_pair_age);
    let (mut pairs, mut blended) = (0, 0);
    for (range, count, lat_age, bw_age) in stretches.clone() {
        pairs += range.len() * count;
        let (lat_stale, bw_stale) = (stale(lat_age), stale(bw_age));
        if !(lat_stale || bw_stale) {
            unmeasured(&mut lat[range.clone()], lat_penalty);
            unmeasured(&mut cbw[range], cbw_penalty);
            continue;
        }
        for (l, c) in lat[range.clone()].iter_mut().zip(&mut cbw[range]) {
            let l = settle(l, lat_penalty, lat_stale, policy.stale_blend);
            let c = settle(c, cbw_penalty, bw_stale, policy.stale_blend);
            blended += if l || c { count } else { 0 };
        }
    }
    if blended > 0 && nlrm_obs::ctx::is_active() {
        let event = nlrm_obs::EventKind::StalePairsBlended { count: blended };
        nlrm_obs::ctx::emit(nlrm_obs::Severity::Warn, snap.taken_at, event);
        nlrm_obs::ctx::add("loads_stale_pairs_blended_total", blended as u64);
    }
    if pairs == 0 {
        return;
    }
    let pair_sum = |column: &[f64]| {
        let terms = stretches
            .clone()
            .flat_map(|(range, count, ..)| column[range].iter().map(move |&x| (x, count)));
        exact::sum(terms)
    };
    let (lat_sum, cbw_sum) = (pair_sum(lat), pair_sum(cbw));
    for (l, &c) in lat.iter_mut().zip(cbw.iter()) {
        *l = weights.latency * normalized(*l, lat_sum) + weights.bandwidth * normalized(c, cbw_sum);
    }
    let pair_mean = pair_sum(lat) / pairs as f64;
    if pair_mean > 0.0 {
        lat.iter_mut().for_each(|x| *x /= pair_mean);
    }
}

/// Eq. 2 on a dense snapshot, the central monitor's shape: one bucket
/// in the [`BucketPairs`] layout, one input per usable pair; the `lat`
/// column becomes the [`TieredNl`].
fn central_network_load(
    snap: &ClusterSnapshot,
    usable: &[NodeId],
    weights: &NetworkWeights,
    policy: &StalenessPolicy,
) -> TieredNl {
    let order = BucketPairs::new(1, usable.iter().map(|&u| (u, 0)));
    let mut lat = Vec::with_capacity(order.len());
    let mut cbw = Vec::with_capacity(order.len());
    // once, not per walk: the Eq. 2 sums walk the stretches three times
    let mut ages = Vec::with_capacity(order.len());
    for (i, &u) in usable.iter().enumerate() {
        for &v in &usable[i + 1..] {
            let (l, c) = eq2_inputs(snap, u, v);
            lat.push(l);
            cbw.push(c);
            ages.push((snap.latency_age(u, v), snap.bandwidth_age(u, v)));
        }
    }
    let stretches = ages
        .iter()
        .enumerate()
        .map(|(x, &(l, b))| (x..x + 1, 1, l, b));
    network_load(snap, &mut lat, &mut cbw, stretches, weights, policy);
    order.into_tiered(lat)
}

/// Append block cells `cells` to the columns: a latency as its point
/// value (its own 1-minute mean and instant), a bandwidth as its
/// complement.
fn copy_cells(block: &ShardBlock, lat: &mut Vec<f64>, cbw: &mut Vec<f64>, cells: Range<usize>) {
    lat.extend_from_slice(&block.lat_s[cells.clone()]);
    let bw = block.peak_bps[cells.clone()]
        .iter()
        .zip(&block.avail_bps[cells]);
    cbw.extend(bw.map(|(&peak, &avail)| complement(peak, avail)));
}

/// Eq. 2 on a block snapshot, straight into a [`TieredNl`] with no V×V
/// structure. Bucket `b` holds shard block `b`'s usable members and the
/// last bucket the usable nodes no shard lists. An intra-bucket pair
/// reads its block's triangle (the last bucket's pairs are unmeasured).
/// Every cross pair of a bucket pair reads the same estimate cell at the
/// same ages, so it is one input counted `m_a·m_b` times. The columns
/// take the [`BucketPairs`] layout, and `lat` becomes the [`TieredNl`].
fn block_network_load(
    snap: &ClusterSnapshot,
    blocks: &BlockPairs,
    usable: &[NodeId],
    weights: &NetworkWeights,
    policy: &StalenessPolicy,
) -> TieredNl {
    let shards = blocks.blocks();
    let k = shards.len() + 1;
    let bucket = |u: NodeId| blocks.slot(u).map_or(k - 1, |(b, _)| b);
    let order = BucketPairs::new(k, usable.iter().map(|&u| (u, bucket(u))));
    let members = &order.members;
    // the triangles bucket by bucket, then room for the bucket pairs
    let len = order.len();
    let (mut lat, mut cbw) = (Vec::with_capacity(len), Vec::with_capacity(len));
    for (b, ms) in members.iter().enumerate() {
        let pairs = order.tri[b + 1] - order.tri[b];
        let Some(block) = shards.get(b) else {
            lat.resize(lat.len() + pairs, f64::INFINITY);
            cbw.resize(cbw.len() + pairs, f64::INFINITY);
            continue;
        };
        let at: Vec<usize> = ms
            .iter()
            .map(|&u| blocks.slot(u).expect("bucketed by its slot").1)
            .collect();
        let m = block.members.len();
        if at.iter().copied().eq(0..m) {
            // every member usable, in block order: the block's triangle
            copy_cells(block, &mut lat, &mut cbw, 0..pairs);
            continue;
        }
        // member `p`'s row: a run of later positions `q, q + 1, …` is a
        // stretch of its triangle row, an earlier position a column cell
        for (i, &p) in at.iter().enumerate() {
            let mut rest = &at[i + 1..];
            while let Some(&q) = rest.first() {
                let run = if q > p {
                    rest.iter().zip(q..).take_while(|&(&r, s)| r == s).count()
                } else {
                    1
                };
                let c = pair_index(m, p, q);
                copy_cells(block, &mut lat, &mut cbw, c..c + run);
                rest = &rest[run..];
            }
        }
    }
    lat.resize(len, 0.0);
    cbw.resize(len, 0.0);
    for (a, b) in order.bucket_pairs() {
        let (u, v) = (members[a][0], members[b][0]);
        let x = order.cross(a, b);
        (lat[x], cbw[x]) = eq2_inputs(snap, u, v);
    }
    // a pair's rows are as old as the fresher of its endpoints' blocks
    let age = |b: usize| shards.get(b).map(|block| block.age);
    let intra = (0..k).map(|b| (order.tri[b]..order.tri[b + 1], 1, age(b), age(b)));
    let cross = order.bucket_pairs().map(|(a, b)| {
        let x = order.cross(a, b);
        let age = match (age(a), age(b)) {
            (Some(s), Some(t)) => Some(s.min(t)),
            (s, t) => s.or(t),
        };
        (x..x + 1, members[a].len() * members[b].len(), age, age)
    });
    network_load(
        snap,
        &mut lat,
        &mut cbw,
        intra.chain(cross),
        weights,
        policy,
    );
    order.into_tiered(lat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::codec::{decode, encode, MonitorRecord};
    use nlrm_monitor::store::paths;
    use nlrm_monitor::{MonitorRuntime, SymMatrix};
    use nlrm_sim_core::time::{Duration, SimTime};

    fn snapshot(n: usize, seed: u64) -> ClusterSnapshot {
        let mut cluster = small_cluster(n, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap()
    }

    fn derive(snap: &ClusterSnapshot) -> Loads {
        Loads::derive(
            snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
        )
        .unwrap()
    }

    #[test]
    fn index_misses_gaps_and_ids_past_the_last_usable() {
        // usable ids 1, 2, 5, 9: 0, 3, 4, 6..=8 fall in gaps, 10+ lie past
        // the position table
        let usable: Vec<NodeId> = [1, 2, 5, 9].into_iter().map(NodeId).collect();
        let l = Loads::from_parts(
            usable.clone(),
            vec![0.1, 0.2, 0.3, 0.4],
            SymMatrix::new(10, 1.0),
            vec![4, 3, 2, 1],
        );
        for (i, &u) in usable.iter().enumerate() {
            assert_eq!(l.index(u), Some(i));
            assert_eq!(l.cl_of(u), l.cl[i]);
            assert_eq!(l.pc_of(u), l.pc[i]);
        }
        for gap in [0, 3, 4, 6, 7, 8] {
            assert_eq!(l.index(NodeId(gap)), None, "gap id {gap}");
        }
        for past in [10, 11, 1_000, u32::MAX] {
            assert_eq!(l.index(NodeId(past)), None, "id {past}");
        }
        let empty = Loads::from_parts(Vec::new(), Vec::new(), SymMatrix::new(0, 0.0), Vec::new());
        assert_eq!(empty.index(NodeId(0)), None);
    }

    #[test]
    fn effective_pc_matches_equation3() {
        // zero load: all cores
        assert_eq!(effective_pc(8, 0.0), 8);
        // load 1 → 8 − 1 = 7
        assert_eq!(effective_pc(8, 0.2), 7);
        // load 8 → 8 − (8 % 8) = 8 (the paper's modulo wraps)
        assert_eq!(effective_pc(8, 7.5), 8);
        // load 9 → 8 − 1 = 7
        assert_eq!(effective_pc(8, 8.5), 7);
        // 12-core node under load 3
        assert_eq!(effective_pc(12, 2.4), 9);
    }

    #[test]
    fn derive_produces_consistent_shapes() {
        let snap = snapshot(6, 3);
        let loads = derive(&snap);
        assert_eq!(loads.usable.len(), 6);
        assert_eq!(loads.cl.len(), 6);
        assert_eq!(loads.pc, vec![4; 6]);
        assert_eq!(loads.total_capacity(), 24);
    }

    #[test]
    fn compute_load_is_nonnegative_and_discriminates() {
        let snap = snapshot(8, 5);
        let loads = derive(&snap);
        assert!(loads.cl.iter().all(|&c| c >= 0.0 && c.is_finite()));
        // a shared-lab cluster is heterogeneous: loads must differ
        let min = loads.cl.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = loads.cl.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "all CL equal: {:?}", loads.cl);
    }

    #[test]
    fn network_load_is_symmetric_and_nonnegative() {
        let snap = snapshot(6, 7);
        let loads = derive(&snap);
        for (i, &u) in loads.usable.iter().enumerate() {
            for &v in &loads.usable[i + 1..] {
                let nl = loads.nl_between(u, v);
                assert!(nl >= 0.0, "nl({u},{v}) = {nl}");
                assert_eq!(loads.nl_between(u, v), loads.nl_between(v, u));
            }
        }
        assert_eq!(loads.nl_between(NodeId(2), NodeId(2)), 0.0);
    }

    #[test]
    fn without_ppn_pc_follows_load() {
        let snap = snapshot(6, 3);
        let loads = Loads::derive(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            None,
        )
        .unwrap();
        for (i, &node) in loads.usable.iter().enumerate() {
            let info = snap.info(node).unwrap();
            assert_eq!(
                loads.pc[i],
                effective_pc(info.sample.spec.cores, info.sample.cpu_load.m1)
            );
        }
    }

    #[test]
    fn congested_pair_has_higher_network_load() {
        let mut snap = snapshot(6, 11);
        let loads = derive(&snap);
        // find the pair with min available bandwidth and compare with max
        let mut worst = (NodeId(0), NodeId(1));
        let mut best = (NodeId(0), NodeId(1));
        let bandwidth = &snap.densify().bandwidth_bps;
        for (u, v, bw) in bandwidth.pairs() {
            if bw < bandwidth.get(worst.0, worst.1) {
                worst = (u, v);
            }
            if bw > bandwidth.get(best.0, best.1) {
                best = (u, v);
            }
        }
        assert!(
            loads.nl_between(worst.0, worst.1) >= loads.nl_between(best.0, best.1),
            "NL should rank congested pairs worse"
        );
    }

    #[test]
    fn unmeasured_bandwidth_ranks_worse_than_any_measured_pair() {
        // Regression: the unmeasured sentinel used to be an absolute
        // 1e9 bps, so on fast links a congested *measured* pair (complement
        // 99 Gbps here) ranked worse than a pair we know nothing about.
        let mut snap = snapshot(6, 13);
        let d = snap.densify();
        d.peak_bandwidth_bps.set(NodeId(2), NodeId(3), 100e9);
        d.bandwidth_bps.set(NodeId(2), NodeId(3), 1e9);
        // a never-measured pair (daemons publish 0.0 until first probe)
        d.peak_bandwidth_bps.set(NodeId(0), NodeId(1), 0.0);
        d.bandwidth_bps.set(NodeId(0), NodeId(1), 0.0);
        let loads = Loads::derive(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights {
                latency: 0.0,
                bandwidth: 1.0,
            },
            Some(4),
        )
        .unwrap();
        let unmeasured = loads.nl_between(NodeId(0), NodeId(1));
        for (u, v, _) in snap.densify().bandwidth_bps.pairs() {
            if (u, v) != (NodeId(0), NodeId(1)) {
                assert!(
                    unmeasured > loads.nl_between(u, v),
                    "unmeasured pair must rank worse than measured ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn stale_nodes_are_excluded_at_the_boundary() {
        let mut snap = snapshot(6, 3);
        let policy = StalenessPolicy::default();
        // node 2's sampler went silent: its sample ages past the bound
        snap.nodes[2].sample.taken_at =
            SimTime::from_micros(snap.taken_at.as_micros() - policy.max_sample_age.as_micros() - 1);
        // node 3 sits exactly on the bound: still usable (inclusive)
        snap.nodes[3].sample.taken_at =
            SimTime::from_micros(snap.taken_at.as_micros() - policy.max_sample_age.as_micros());
        let loads = Loads::derive_with_policy(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
            &policy,
        )
        .unwrap();
        assert!(!loads.usable.contains(&NodeId(2)), "over-age node kept");
        assert!(loads.usable.contains(&NodeId(3)), "boundary node dropped");
        assert_eq!(loads.usable.len(), 5);
        // the permissive policy keeps everything
        let all = Loads::derive_with_policy(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
            &StalenessPolicy::off(),
        )
        .unwrap();
        assert_eq!(all.usable.len(), 6);
    }

    #[test]
    fn a_zero_core_sample_leaves_the_universe() {
        let mut cluster = small_cluster(6, 3);
        let mut rt = MonitorRuntime::new(&cluster);
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        // a writer outside the daemons stores a sample claiming no cores
        let zero_cores = |node: NodeId| {
            let path = paths::node_state(node);
            let rec = rt.store().get(&path).unwrap();
            let Ok(MonitorRecord::Sample(mut sample)) = decode(&rec.data) else {
                panic!("node-state record");
            };
            Arc::make_mut(&mut sample.spec).cores = 0;
            let data = encode(&MonitorRecord::Sample(sample));
            rt.store().put(&path, rec.written_at, data);
            ClusterSnapshot::assemble(rt.store(), snap.num_nodes(), snap.taken_at).unwrap()
        };
        let derive = |snap: &ClusterSnapshot| {
            let (c, n) = (
                ComputeWeights::paper_default(),
                NetworkWeights::paper_default(),
            );
            Loads::derive(snap, &c, &n, None)
        };
        let obs = nlrm_obs::Obs::new();
        let _guard = nlrm_obs::ctx::install(&obs);
        let loads = derive(&zero_cores(NodeId(2))).unwrap();
        assert!(!loads.usable.contains(&NodeId(2)));
        assert_eq!(loads.usable.len(), 5);
        assert_eq!(obs.journal.count_of("zero_core_node_excluded"), 1);
        let excluded = obs
            .metrics
            .counter_value("loads_zero_core_node_excluded_total");
        assert_eq!(excluded, 1);
        let mut last = snap.clone();
        for n in 0..6 {
            last = zero_cores(NodeId(n));
        }
        assert_eq!(derive(&last).unwrap_err(), AllocError::NoUsableNodes);
    }

    #[test]
    fn stale_pairs_rank_between_fresh_and_unmeasured() {
        let mut snap = snapshot(6, 7);
        let d = snap.densify();
        // pair (0,1): never measured
        d.latency.set(
            NodeId(0),
            NodeId(1),
            nlrm_monitor::LatencyStat::constant(f64::INFINITY),
        );
        // pair (2,3): measured, but both endpoints' rows have gone stale
        d.latency_row_age[2] = Some(Duration::from_secs(2000));
        d.latency_row_age[3] = Some(Duration::from_secs(2000));
        let loads = Loads::derive_with_policy(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights {
                latency: 1.0,
                bandwidth: 0.0,
            },
            Some(4),
            &StalenessPolicy::default(),
        )
        .unwrap();
        let unmeasured = loads.nl_between(NodeId(0), NodeId(1));
        let stale = loads.nl_between(NodeId(2), NodeId(3));
        let fresh = loads.nl_between(NodeId(4), NodeId(5));
        assert!(
            fresh < stale,
            "stale pair should be penalized: fresh={fresh} stale={stale}"
        );
        assert!(
            stale < unmeasured,
            "stale pair still beats unmeasured: stale={stale} unmeasured={unmeasured}"
        );
    }

    #[test]
    fn stale_bandwidth_rows_blend_only_the_bandwidth_column() {
        // bandwidth rows aged past max_pair_age, latency rows fresh: each
        // column settles by its own rows' age
        let fresh = snapshot(6, 7);
        let mut stale = fresh.clone();
        for age in stale.densify().bandwidth_row_age.iter_mut() {
            *age = Some(Duration::from_secs(2000));
        }
        let weighted = |snap: &ClusterSnapshot, latency: f64| {
            let bandwidth = 1.0 - latency;
            let w = NetworkWeights { latency, bandwidth };
            Loads::derive(snap, &ComputeWeights::paper_default(), &w, Some(4)).unwrap()
        };
        let obs = nlrm_obs::Obs::new();
        let guard = nlrm_obs::ctx::install(&obs);
        let (lat_only, bw_only) = (weighted(&stale, 1.0), weighted(&stale, 0.0));
        drop(guard);
        let blended = obs.metrics.counter_value("loads_stale_pairs_blended_total");
        assert_eq!(blended, 2 * 15, "every pair blends, in both derivations");
        let (lat_ref, bw_ref) = (weighted(&fresh, 1.0), weighted(&fresh, 0.0));
        let mut moved = 0;
        for (i, &u) in lat_ref.usable.iter().enumerate() {
            for &v in &lat_ref.usable[i + 1..] {
                let bits = |l: &Loads| l.nl_between(u, v).to_bits();
                assert_eq!(bits(&lat_only), bits(&lat_ref), "latency nl({u},{v})");
                moved += usize::from(bits(&bw_only) != bits(&bw_ref));
            }
        }
        assert!(moved > 0, "the stale bandwidth column blended nothing");
    }

    #[test]
    fn default_policy_is_transparent_for_fresh_snapshots() {
        let snap = snapshot(6, 5);
        let a = derive(&snap);
        let b = Loads::derive_with_policy(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
            &StalenessPolicy::off(),
        )
        .unwrap();
        assert_eq!(a.usable, b.usable);
        assert_eq!(a.cl, b.cl);
        for (i, &u) in a.usable.iter().enumerate() {
            for &v in &a.usable[i + 1..] {
                assert_eq!(a.nl_between(u, v), b.nl_between(u, v));
            }
        }
    }

    #[test]
    fn invalid_blend_rejected() {
        let snap = snapshot(4, 3);
        let policy = StalenessPolicy {
            stale_blend: 1.5,
            ..StalenessPolicy::default()
        };
        assert!(matches!(
            Loads::derive_with_policy(
                &snap,
                &ComputeWeights::paper_default(),
                &NetworkWeights::paper_default(),
                Some(4),
                &policy,
            ),
            Err(AllocError::InvalidRequest(_))
        ));
    }

    #[test]
    fn bad_weights_rejected() {
        let snap = snapshot(4, 3);
        let mut w = ComputeWeights::paper_default();
        w.cpu_load = 0.9;
        assert!(matches!(
            Loads::derive(&snap, &w, &NetworkWeights::paper_default(), Some(4)),
            Err(AllocError::InvalidRequest(_))
        ));
    }

    #[test]
    fn restrict_shares_nl_and_matches_from_parts() {
        let central = derive(&snapshot(8, 3));
        let tiered = central.clone().into_tiered(&SwitchIndex::uniform(8, 3));
        // drop nodes 1 and 6, halve the capacity of the even ones
        let capacity = |n: NodeId, pc: u32| match n.0 {
            1 | 6 => 0,
            i if i % 2 == 0 => pc / 2,
            _ => pc,
        };
        for base in [&central, &tiered] {
            let view = base.restrict(capacity);
            assert!(Arc::ptr_eq(&view.nl, &base.nl), "NL was copied");
            let kept: Vec<NodeId> = base
                .usable
                .iter()
                .copied()
                .filter(|&n| capacity(n, base.pc_of(n)) > 0)
                .collect();
            assert_eq!(view.usable, kept);
            assert_eq!(view.usable.len(), 6);
            for &u in &kept {
                assert_eq!(view.cl_of(u).to_bits(), base.cl_of(u).to_bits());
                assert_eq!(view.pc_of(u), capacity(u, base.pc_of(u)));
                for &v in &kept {
                    assert_eq!(
                        view.nl_between(u, v).to_bits(),
                        base.nl_between(u, v).to_bits()
                    );
                }
            }
            let rebuilt = Loads::from_parts(
                view.usable.clone(),
                view.cl.clone(),
                (*base.nl).clone(),
                view.pc.clone(),
            );
            assert_eq!(
                view.total_compute_load().to_bits(),
                rebuilt.total_compute_load().to_bits()
            );
            assert_eq!(
                view.total_network_load().to_bits(),
                rebuilt.total_network_load().to_bits()
            );
            let nothing = base.restrict(|_, _| 0);
            assert!(nothing.usable.is_empty());
            assert_eq!(nothing.total_capacity(), 0);
        }
    }

    #[test]
    fn restrict_view_memoizes_its_own_min_incident() {
        let central = derive(&snapshot(8, 3));
        let tiered = central.clone().into_tiered(&SwitchIndex::uniform(8, 3));
        for base in [&central, &tiered] {
            // fill the base's memos first: the view must not inherit them
            let (base_min, _) = base.min_incident();
            assert_eq!(base_min.len(), base.usable.len());
            let base_streams = base.switch_streams().clone();
            let view = base.restrict(|n, pc| match n.0 % 3 {
                1 => 0,
                2 => pc / 2,
                _ => pc,
            });
            // a view's streams carry its own pc, never its parent's
            let fresh = SwitchStreams::build(&view);
            assert_eq!(view.switch_streams(), &fresh);
            assert_ne!(base_streams, fresh);
            let want = view.nl.min_incident(&view.usable);
            let (got, global) = view.min_incident();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want));
            let min = want.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(global.to_bits(), min.to_bits());
            assert!(view.usable.len() < base.usable.len());
        }
    }
}
