//! Deriving the allocator's inputs from a monitoring snapshot:
//! compute load `CL_v` (Eq. 1), network load `NL_(u,v)` (Eq. 2), and
//! effective processor count `pc_v` (Eq. 3).

use crate::request::AllocError;
use crate::saw::{saw_scores, Column, Criterion};
use crate::tiered::{EstimatedNl, TieredNl};
use crate::weights::{ComputeWeights, NetworkWeights};
use nlrm_monitor::{ClusterSnapshot, InterEstimate, SymMatrix};
use nlrm_sim_core::time::Duration;
use nlrm_sim_core::window::WindowedValue;
use nlrm_topology::{NodeId, SwitchIndex};
use std::collections::HashMap;
use std::sync::Arc;

pub use crate::tiered::NlRep;

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

/// Everything Algorithms 1–2 need, derived once per allocation.
#[derive(Debug, Clone)]
pub struct Loads {
    /// Usable nodes (live, with fresh samples), ascending id order.
    pub usable: Vec<NodeId>,
    /// Compute load per usable node (parallel to `usable`). Lower is better.
    pub cl: Vec<f64>,
    /// Pairwise network load over the node-id space — dense (exact V×V) or
    /// tiered (exact intra-switch, aggregated inter-switch). Only entries
    /// between usable nodes are meaningful. Lower is better. Shared, not
    /// copied, by every [`Loads::restrict`] view of this derivation.
    pub nl: Arc<NlRep>,
    /// Effective processor count per usable node (parallel to `usable`).
    pub pc: Vec<u32>,
    index_of: HashMap<NodeId, usize>,
    /// Σ CL over the usable universe, cached at construction so per-group
    /// scoring doesn't re-walk the whole universe.
    c_all: f64,
    /// Σ NL over all usable pairs, cached at construction (recomputing it
    /// per `group_cost` call was O(V²) each time).
    n_all: f64,
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
        Self::derive_core(snap, compute_weights, network_weights, ppn, policy)
            .map(|(loads, _)| loads)
    }

    /// The shared derivation body: everything `derive_with_policy` does,
    /// plus the [`NlNorm`] map that turned raw pair metrics into the final
    /// normalized NL values. `derive_sharded` reuses the map to push the
    /// estimator's raw error bands through the *same* normalization, so
    /// the bounds live on the same scale as the point matrix.
    fn derive_core(
        snap: &ClusterSnapshot,
        compute_weights: &ComputeWeights,
        network_weights: &NetworkWeights,
        ppn: Option<u32>,
        policy: &StalenessPolicy,
    ) -> Result<(Loads, NlNorm), AllocError> {
        compute_weights
            .validate()
            .map_err(AllocError::InvalidRequest)?;
        network_weights
            .validate()
            .map_err(AllocError::InvalidRequest)?;
        policy.validate()?;
        // counted so schedulers can prove how often they pay for the
        // O(V²) matrix build (the broker's batched-cycle test relies on it)
        nlrm_obs::ctx::inc("loads_derive_total");
        let mut usable: Vec<NodeId> = Vec::new();
        let mut excluded = 0usize;
        let observed = nlrm_obs::ctx::is_active();
        for n in snap.usable_nodes() {
            let age = snap.sample_age(n);
            if age.is_some_and(|a| a <= policy.max_sample_age) {
                usable.push(n);
            } else {
                excluded += 1;
                if observed {
                    // over-age (or missing) sample: the node leaves the
                    // universe
                    nlrm_obs::ctx::emit(
                        nlrm_obs::Severity::Warn,
                        snap.taken_at,
                        nlrm_obs::EventKind::StaleNodeExcluded {
                            node: n,
                            age: age.unwrap_or(Duration::MAX),
                        },
                    );
                    nlrm_obs::ctx::inc("loads_stale_node_excluded_total");
                }
            }
        }
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
        let infos: Vec<_> = usable
            .iter()
            .map(|&n| snap.info(n).expect("usable implies sample"))
            .collect();
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
        let columns = vec![
            Column {
                values: infos
                    .iter()
                    .map(|i| windowed_rep(&i.sample.cpu_load))
                    .collect(),
                criterion: Criterion::Minimize,
                weight: w.cpu_load,
            },
            Column {
                values: infos
                    .iter()
                    .map(|i| windowed_rep(&i.sample.cpu_util))
                    .collect(),
                criterion: Criterion::Minimize,
                weight: w.cpu_util,
            },
            Column {
                values: infos
                    .iter()
                    .map(|i| windowed_rep(&i.sample.flow_rate_mbps))
                    .collect(),
                criterion: Criterion::Minimize,
                weight: w.flow_rate,
            },
            Column {
                values: infos
                    .iter()
                    .map(|i| {
                        i.sample
                            .available_mem_gb(windowed_rep(&i.sample.mem_used_frac))
                    })
                    .collect(),
                criterion: Criterion::Maximize,
                weight: w.memory,
            },
            Column {
                values: infos.iter().map(|i| i.sample.spec.cores as f64).collect(),
                criterion: Criterion::Maximize,
                weight: w.core_count,
            },
            Column {
                values: infos.iter().map(|i| i.sample.spec.freq_ghz).collect(),
                criterion: Criterion::Maximize,
                weight: w.cpu_freq,
            },
            Column {
                values: infos.iter().map(|i| i.sample.spec.total_mem_gb).collect(),
                criterion: Criterion::Maximize,
                weight: w.total_mem,
            },
            Column {
                values: infos.iter().map(|i| i.sample.users as f64).collect(),
                criterion: Criterion::Minimize,
                weight: w.users,
            },
        ];
        let mut cl = saw_scores(&columns);

        // --- Eq. 2: pairwise network load ---
        let (mut nl, mut norm) = derive_network_load(snap, &usable, network_weights, policy);

        // Rescale both loads to mean 1 over their own domains. Sum
        // normalization alone leaves CL ~ 1/V and NL ~ 1/V², so in
        // `A_v(u) = α·CL(u) + β·NL(v,u)` (Algorithm 1) the network term
        // would be a factor V smaller than α/β intends. Rescaling is
        // invariant for every ranking that normalizes per-term anyway
        // (Algorithm 2, group_cost, load-aware ordering) but makes the
        // candidate-generation trade-off mean what the paper's α/β say.
        rescale_to_unit_mean(&mut cl);
        let mut pair_vals: Vec<f64> = Vec::new();
        for (i, &u) in usable.iter().enumerate() {
            for &v in &usable[i + 1..] {
                pair_vals.push(nl.get(u, v));
            }
        }
        let pair_mean = if pair_vals.is_empty() {
            0.0
        } else {
            pair_vals.iter().sum::<f64>() / pair_vals.len() as f64
        };
        if pair_mean > 0.0 {
            for (i, &u) in usable.iter().enumerate() {
                for &v in usable[i + 1..].iter() {
                    let scaled = nl.get(u, v) / pair_mean;
                    nl.set(u, v, scaled);
                }
            }
        }
        norm.pair_mean = pair_mean;

        // --- Eq. 3: effective processor count ---
        let pc: Vec<u32> = infos
            .iter()
            .map(|i| match ppn {
                Some(p) => p,
                None => effective_pc(i.sample.spec.cores, i.sample.cpu_load.m1),
            })
            .collect();

        Ok((Loads::from_parts(usable, cl, NlRep::Dense(nl), pc), norm))
    }

    /// Derive loads from a *sharded* snapshot whose inter-shard pairs were
    /// filled in by the sampling estimator, keeping the estimator's error
    /// bands attached to the result.
    ///
    /// The point matrix is derived exactly as [`Loads::derive_with_policy`]
    /// would (inter-shard cells carry the estimator's point values, which
    /// the sharded snapshot assembly wrote into the dense matrices), then
    /// collapsed to the tiered form over `index`. The estimator's raw
    /// `[lo, hi]` bands per switch pair are mapped through the same
    /// monotone normalization that produced the point matrix, yielding NL
    /// bounds on the same scale. Switch pairs the estimate does not cover
    /// get the vacuous band `[0, ∞)`, so pruning over the lower bounds
    /// stays sound: [`EstimatedNl::min_incident`] never exceeds the point
    /// answer, and `allocate_pruned` can never discard a candidate the
    /// exhaustive search over this `Loads` would keep.
    pub fn derive_sharded(
        snap: &ClusterSnapshot,
        est: &InterEstimate,
        index: &SwitchIndex,
        compute_weights: &ComputeWeights,
        network_weights: &NetworkWeights,
        ppn: Option<u32>,
        policy: &StalenessPolicy,
    ) -> Result<Loads, AllocError> {
        let (loads, norm) = Self::derive_core(snap, compute_weights, network_weights, ppn, policy)?;
        let dense = match &*loads.nl {
            NlRep::Dense(d) => d,
            _ => unreachable!("derive_core always builds a dense matrix"),
        };
        let point = TieredNl::from_dense(dense, &loads.usable, index);
        let s_count = index.num_switches();
        let mut inter_lo = vec![0.0f64; s_count * s_count];
        let mut inter_hi = vec![f64::INFINITY; s_count * s_count];
        for s in 0..s_count {
            let k_diag = s * s_count + s;
            inter_lo[k_diag] = 0.0;
            inter_hi[k_diag] = 0.0;
            for t in (s + 1)..s_count {
                let (su, tu) = (s as u32, t as u32);
                if !est.covers(su) || !est.covers(tu) {
                    continue; // vacuous [0, ∞) band
                }
                let (lat, cbw) = match (est.latency_s(su, tu), est.cbw_bps(su, tu)) {
                    (Some(l), Some(c)) => (l, c),
                    _ => continue,
                };
                let lo = norm.map(network_weights, lat.lo, cbw.lo);
                let hi = norm.map(network_weights, lat.hi, cbw.hi);
                inter_lo[s * s_count + t] = lo;
                inter_lo[t * s_count + s] = lo;
                inter_hi[s * s_count + t] = hi;
                inter_hi[t * s_count + s] = hi;
            }
        }
        let nl = NlRep::Estimated(EstimatedNl::new(point, inter_lo, inter_hi));
        Ok(Loads::from_parts(loads.usable, loads.cl, nl, loads.pc))
    }

    /// Assemble a `Loads` from precomputed parts (used by the scale
    /// benches to synthesize tiered universes directly).
    pub fn from_parts(
        usable: Vec<NodeId>,
        cl: Vec<f64>,
        nl: impl Into<NlRep>,
        pc: Vec<u32>,
    ) -> Loads {
        Self::assemble(usable, cl, Arc::new(nl.into()), pc)
    }

    /// A view of this derivation over fewer nodes or less capacity:
    /// `capacity(node, pc)` gives each usable node its new processor
    /// count, and 0 drops the node. The view shares this derivation's NL
    /// representation (no copy) and recomputes the universe totals over
    /// the kept nodes, exactly as [`Loads::from_parts`] would. Restricting
    /// to nothing yields an empty universe; callers map that to their own
    /// error.
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

    fn assemble(usable: Vec<NodeId>, cl: Vec<f64>, nl: Arc<NlRep>, pc: Vec<u32>) -> Loads {
        assert_eq!(usable.len(), cl.len());
        assert_eq!(usable.len(), pc.len());
        let index_of = usable.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let (c_all, n_all) = universe_totals(&usable, &cl, &nl);
        Loads {
            usable,
            cl,
            nl,
            pc,
            index_of,
            c_all,
            n_all,
        }
    }

    /// Convert the network-load representation to the tiered form using a
    /// topology's switch assignment: intra-switch pairs keep their exact
    /// values, inter-switch cells aggregate to the per-switch-pair mean.
    /// A no-op when the representation is already tiered.
    pub fn into_tiered(self, index: &SwitchIndex) -> Loads {
        let NlRep::Dense(d) = &*self.nl else {
            return self;
        };
        let nl = TieredNl::from_dense(d, &self.usable, index);
        Loads::from_parts(self.usable, self.cl, nl, self.pc)
    }

    /// Index of `node` in the usable arrays.
    pub fn index(&self, node: NodeId) -> Option<usize> {
        self.index_of.get(&node).copied()
    }

    /// Compute load of a usable node.
    pub fn cl_of(&self, node: NodeId) -> f64 {
        self.cl[self.index_of[&node]]
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
        self.pc[self.index_of[&node]]
    }

    /// Total processes the usable universe can host.
    pub fn total_capacity(&self) -> u64 {
        self.pc.iter().map(|&p| p as u64).sum()
    }

    /// Σ CL over the whole usable universe (cached at construction).
    pub fn total_compute_load(&self) -> f64 {
        self.c_all
    }

    /// Σ NL over all usable pairs (cached at construction).
    pub fn total_network_load(&self) -> f64 {
        self.n_all
    }
}

/// The universe-wide totals `group_cost` normalizes by: Σ CL and Σ NL over
/// all usable pairs. Computed once per `Loads` construction. The tiered
/// representation sums switch blocks analytically instead of walking V²
/// pairs.
fn universe_totals(usable: &[NodeId], cl: &[f64], nl: &NlRep) -> (f64, f64) {
    (cl.iter().sum(), nl.pair_sum(usable))
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

/// The monotone affine map from raw pair metrics — latency in seconds and
/// complement-of-available-bandwidth in bps — to the final normalized NL
/// value that `derive_network_load` plus the unit-mean rescale produce:
/// `NL = (w_lt·lat·lat_scale + w_bw·cbw·cbw_scale) / pair_mean`. Both
/// scales are non-negative, so the map is monotone non-decreasing in each
/// argument: pushing an interval's endpoints through it yields a valid
/// interval for the mapped value. That is what lets `derive_sharded` turn
/// the estimator's raw error bands into sound NL bounds.
#[derive(Debug, Clone, Copy)]
struct NlNorm {
    /// `1 / Σ` of the latency column (0 when the column summed to 0,
    /// matching `normalize_sum`'s all-zero output).
    lat_scale: f64,
    /// `1 / Σ` of the cbw column.
    cbw_scale: f64,
    /// Mean combined NL over usable pairs; filled in by the caller after
    /// the rescale pass. 0 means "no rescale was applied".
    pair_mean: f64,
}

impl NlNorm {
    fn map(&self, weights: &NetworkWeights, lat_raw: f64, cbw_raw: f64) -> f64 {
        if !lat_raw.is_finite() || !cbw_raw.is_finite() {
            return f64::INFINITY;
        }
        let nl = weights.latency * lat_raw * self.lat_scale
            + weights.bandwidth * cbw_raw * self.cbw_scale;
        if self.pair_mean > 0.0 {
            nl / self.pair_mean
        } else {
            nl
        }
    }
}

/// Eq. 2 over all usable pairs: normalized latency and normalized complement
/// of available bandwidth, combined with `w_lt`/`w_bw`. Pairs whose backing
/// rows have aged past `policy.max_pair_age` are blended toward the
/// unmeasured penalty, so fresh < stale < unmeasured in each column.
/// Also returns the [`NlNorm`] scales the normalization applied (with
/// `pair_mean` left at 0 for the caller to fill in).
fn derive_network_load(
    snap: &ClusterSnapshot,
    usable: &[NodeId],
    weights: &NetworkWeights,
    policy: &StalenessPolicy,
) -> (SymMatrix<f64>, NlNorm) {
    let n = snap.latency.len();
    let mut out = SymMatrix::new(n, 0.0);
    let mut norm = NlNorm {
        lat_scale: 0.0,
        cbw_scale: 0.0,
        pair_mean: 0.0,
    };
    let pairs: Vec<(NodeId, NodeId)> = usable
        .iter()
        .enumerate()
        .flat_map(|(i, &u)| usable[i + 1..].iter().map(move |&v| (u, v)))
        .collect();
    if pairs.is_empty() {
        return (out, norm);
    }

    // Latency column: prefer the 1-minute mean, fall back to the instant.
    let mut lat: Vec<f64> = pairs
        .iter()
        .map(|&(u, v)| {
            let st = snap.latency.get(u, v);
            if st.m1.is_finite() {
                st.m1
            } else {
                st.instant
            }
        })
        .collect();
    // Unmeasured pairs (∞) are clamped to a strong finite penalty so
    // normalization stays meaningful: 10× the worst measured latency.
    let max_finite = lat
        .iter()
        .cloned()
        .filter(|l| l.is_finite())
        .fold(0.0f64, f64::max);
    let penalty = if max_finite > 0.0 {
        max_finite * 10.0
    } else {
        1.0
    };
    let mut blended = vec![false; pairs.len()];
    for (k, l) in lat.iter_mut().enumerate() {
        if !l.is_finite() {
            *l = penalty;
        } else {
            let (u, v) = pairs[k];
            let stale = snap
                .latency_age(u, v)
                .is_none_or(|a| a > policy.max_pair_age);
            if stale {
                *l += policy.stale_blend * (penalty - *l).max(0.0);
                blended[k] = true;
            }
        }
    }

    // Complement-of-available-bandwidth column: peak − available.
    let mut cbw: Vec<f64> = pairs
        .iter()
        .map(|&(u, v)| {
            let peak = snap.peak_bandwidth_bps.get(u, v);
            let avail = snap.bandwidth_bps.get(u, v);
            if !peak.is_finite() || peak <= 0.0 {
                // never measured: penalized relative to the measured pairs
                // below (an absolute sentinel in bps can rank *better* than
                // a congested measured pair on fast links)
                return f64::INFINITY;
            }
            (peak - avail).max(0.0)
        })
        .collect();
    // Same convention as the latency column: 10× the worst measured value.
    let max_cbw = cbw
        .iter()
        .cloned()
        .filter(|c| c.is_finite())
        .fold(0.0f64, f64::max);
    let cbw_penalty = if max_cbw > 0.0 { max_cbw * 10.0 } else { 1.0 };
    for (k, c) in cbw.iter_mut().enumerate() {
        if !c.is_finite() {
            *c = cbw_penalty;
        } else {
            let (u, v) = pairs[k];
            let stale = snap
                .bandwidth_age(u, v)
                .is_none_or(|a| a > policy.max_pair_age);
            if stale {
                *c += policy.stale_blend * (cbw_penalty - *c).max(0.0);
                blended[k] = true;
            }
        }
    }

    let blended_count = blended.iter().filter(|&&b| b).count();
    if blended_count > 0 && nlrm_obs::ctx::is_active() {
        nlrm_obs::ctx::emit(
            nlrm_obs::Severity::Warn,
            snap.taken_at,
            nlrm_obs::EventKind::StalePairsBlended {
                count: blended_count,
            },
        );
        nlrm_obs::ctx::add("loads_stale_pairs_blended_total", blended_count as u64);
    }

    let lat_n = crate::saw::normalize_sum(&lat);
    let cbw_n = crate::saw::normalize_sum(&cbw);
    let sum_scale = |raw: &[f64]| {
        let s: f64 = raw.iter().sum();
        if s > 0.0 && s.is_finite() {
            1.0 / s
        } else {
            0.0
        }
    };
    norm.lat_scale = sum_scale(&lat);
    norm.cbw_scale = sum_scale(&cbw);
    for (k, &(u, v)) in pairs.iter().enumerate() {
        out.set(
            u,
            v,
            weights.latency * lat_n[k] + weights.bandwidth * cbw_n[k],
        );
    }
    (out, norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::MonitorRuntime;
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
        let snap = snapshot(6, 11);
        let loads = derive(&snap);
        // find the pair with min available bandwidth and compare with max
        let mut worst = (NodeId(0), NodeId(1));
        let mut best = (NodeId(0), NodeId(1));
        for (u, v, bw) in snap.bandwidth_bps.pairs() {
            if bw < snap.bandwidth_bps.get(worst.0, worst.1) {
                worst = (u, v);
            }
            if bw > snap.bandwidth_bps.get(best.0, best.1) {
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
        snap.peak_bandwidth_bps.set(NodeId(2), NodeId(3), 100e9);
        snap.bandwidth_bps.set(NodeId(2), NodeId(3), 1e9);
        // a never-measured pair (daemons publish 0.0 until first probe)
        snap.peak_bandwidth_bps.set(NodeId(0), NodeId(1), 0.0);
        snap.bandwidth_bps.set(NodeId(0), NodeId(1), 0.0);
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
        for (u, v, _) in snap.bandwidth_bps.pairs() {
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
    fn stale_pairs_rank_between_fresh_and_unmeasured() {
        let mut snap = snapshot(6, 7);
        // pair (0,1): never measured
        snap.latency.set(
            NodeId(0),
            NodeId(1),
            nlrm_monitor::LatencyStat::constant(f64::INFINITY),
        );
        // pair (2,3): measured, but both endpoints' rows have gone stale
        snap.latency_row_age[2] = Some(Duration::from_secs(2000));
        snap.latency_row_age[3] = Some(Duration::from_secs(2000));
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
        let dense = derive(&snapshot(8, 3));
        let tiered = dense.clone().into_tiered(&SwitchIndex::uniform(8, 3));
        let point = tiered.nl.as_tiered().unwrap().clone();
        let s = point.num_switches();
        let estimated = Loads::from_parts(
            dense.usable.clone(),
            dense.cl.clone(),
            NlRep::Estimated(EstimatedNl::new(point, vec![0.0; s * s], vec![9.0; s * s])),
            dense.pc.clone(),
        );
        // drop nodes 1 and 6, halve the capacity of the even ones
        let capacity = |n: NodeId, pc: u32| match n.0 {
            1 | 6 => 0,
            i if i % 2 == 0 => pc / 2,
            _ => pc,
        };
        for base in [&dense, &tiered, &estimated] {
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
}
