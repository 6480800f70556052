//! Landmark-based inter-shard network-load estimation.
//!
//! The central monitor measures all `V·(V−1)/2` node pairs. The sharded
//! topology measures pairs exhaustively only *inside* each shard
//! ([`crate::shard`]); across shards it probes a small sample and infers
//! the rest from the tree-topology model, the same idea as sampled
//! supercomputer bandwidth measurement: pick `L = O(log S)` *landmark*
//! shards, measure landmark↔landmark and every-shard↔landmark — that is
//! `O(S log S) = O(V log V)` probes total — and solve for each shard's
//! uplink contribution.
//!
//! Under the tree model a cross-shard path latency is additive in the two
//! shards' uplink contributions, `m(s,t) = u_s + u_t`, and the bandwidth
//! *complement* (peak − available, the congestion the allocator actually
//! scores) adds the same way. With `L ≥ 3` landmarks the landmark clique
//! solves in closed form:
//!
//! ```text
//! S_i = Σ_{j≠i} m(i,j)          row sums of the landmark clique
//! U   = Σ_{i<j} m(i,j) / (L−1)  total uplink mass
//! u_i = (S_i − U) / (L−2)
//! ```
//!
//! A non-landmark shard `s` gets one candidate `m(s,ℓ) − u_ℓ` per landmark
//! and takes their mean. Measured pairs keep their measured value. When
//! the additive model holds exactly every point equals the true value;
//! the property tests assert that on random tree models.
//!
//! The result is an [`InterEstimate`]: `O(S log S)` state (one uplink
//! point per covered shard plus the probed pairs) answering a point query
//! for *any* shard pair. The snapshot keeps it in that form and evaluates
//! a cross-shard cell on demand.

use crate::codec::{DirectPairRec, MonitorRecord, UplinkRec};
use crate::daemons::{BANDWIDTH_PROBE_BYTES, LATENCY_PROBE_BYTES};
use nlrm_sim_core::time::SimTime;
use nlrm_topology::NodeId;

/// One combined latency + bandwidth probe result for a node pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairProbe {
    /// Round-trip latency, seconds.
    pub latency_s: f64,
    /// Instantaneous available bandwidth, bits/s.
    pub avail_bps: f64,
    /// Peak (zero-load) bandwidth, bits/s.
    pub peak_bps: f64,
}

/// Wire cost of one combined probe (latency packet pair + bulk transfer).
pub const PAIR_PROBE_BYTES: u64 = LATENCY_PROBE_BYTES + BANDWIDTH_PROBE_BYTES;

/// One covered shard's uplink contribution under the tree model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uplink {
    /// Latency contribution, seconds.
    pub lat_s: f64,
    /// Bandwidth-complement (congestion) contribution, bits/s.
    pub cbw_bps: f64,
    /// Best known peak bandwidth through the uplink, bits/s.
    pub peak_bps: f64,
}

/// The sampled inter-shard view: measured pairs as probed, every other
/// covered pair inferred from its two uplinks. Both tables are sparse, so
/// memory follows the entries, whatever switch ids a record names.
#[derive(Debug, Clone, PartialEq)]
pub struct InterEstimate {
    num_switches: usize,
    /// Covered shards' uplinks, ascending switch id.
    up: Vec<(u32, Uplink)>,
    /// Measured pairs `(s, t)`, each listed both ways, ascending.
    direct: Vec<(u32, u32, PairProbe)>,
    /// Probes issued to build this estimate.
    pub probes: u64,
    /// Probe traffic in bytes.
    pub probe_bytes: u64,
}

/// A switch resolved against an [`InterEstimate`]: its uplink and its run
/// of measured pairs, so queries between resolved switches search only
/// the shorter run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    switch: u32,
    up: Option<Uplink>,
    run: (usize, usize),
}

/// Sort by `key`, keeping the last listing of each key as a map filled in
/// listing order would.
fn last_by_key<T, K: Ord>(mut v: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    v.reverse();
    v.sort_by_key(&key);
    v.dedup_by_key(|x| key(x));
    v
}

/// Measured pairs, each listed both ways, ascending; a pair of a switch
/// with itself is dropped.
fn both_ways(pairs: impl Iterator<Item = (u32, u32, PairProbe)>) -> Vec<(u32, u32, PairProbe)> {
    let pairs = pairs
        .filter(|&(s, t, _)| s != t)
        .flat_map(|(s, t, d)| [(s, t, d), (t, s, d)])
        .collect();
    last_by_key(pairs, |&(s, t, _)| (s, t))
}

impl InterEstimate {
    /// An estimate with no data (fewer than two covered shards).
    pub fn empty(num_switches: usize) -> InterEstimate {
        InterEstimate {
            num_switches,
            up: Vec::new(),
            direct: Vec::new(),
            probes: 0,
            probe_bytes: 0,
        }
    }

    /// Number of exactly measured cross-shard pairs.
    pub fn direct_pairs(&self) -> usize {
        self.direct.len() / 2
    }

    /// Entries held: one uplink per covered shard plus the measured pairs.
    pub fn entries(&self) -> usize {
        self.up.len() + self.direct_pairs()
    }

    /// The measured probe of pair `(s, t)`, if it was measured.
    fn measured(&self, s: u32, t: u32) -> Option<PairProbe> {
        let i = self
            .direct
            .binary_search_by_key(&(s, t), |&(s, t, _)| (s, t))
            .ok()?;
        Some(self.direct[i].2)
    }

    /// Switch `s` resolved for [`Self::pair_at`].
    pub(crate) fn site(&self, s: u32) -> Site {
        let up = self
            .up
            .binary_search_by_key(&s, |&(s, _)| s)
            .ok()
            .map(|i| self.up[i].1);
        let lo = self.direct.partition_point(|d| d.0 < s);
        let hi = lo + self.direct[lo..].partition_point(|d| d.0 == s);
        Site {
            switch: s,
            up,
            run: (lo, hi),
        }
    }

    /// Point values of the cross-shard pair `(s, t)`: the measured probe's
    /// latency and peak, or the sum of the two uplinks' latencies with the
    /// smaller peak. Available bandwidth is the peak less the pair's
    /// bandwidth complement, clamped into `[0, peak]`. `None` when `s = t`,
    /// when the pair was not measured and either side is uncovered, or
    /// when the peak is negative or NaN (a corrupt record).
    pub fn pair(&self, s: u32, t: u32) -> Option<PairProbe> {
        self.pair_at(&self.site(s), &self.site(t))
    }

    /// [`Self::pair`] between two resolved switches. Inlined: a block
    /// snapshot's pair accessors call it per cross-shard cell.
    #[inline]
    pub(crate) fn pair_at(&self, a: &Site, b: &Site) -> Option<PairProbe> {
        if a.switch == b.switch {
            return None;
        }
        let len = |x: &Site| x.run.1 - x.run.0;
        let (run, other) = if len(a) <= len(b) {
            (a.run, b.switch)
        } else {
            (b.run, a.switch)
        };
        let run = &self.direct[run.0..run.1];
        let (lat, cbw, peak) = match run.binary_search_by_key(&other, |d| d.1) {
            Ok(i) => {
                let d = run[i].2;
                (d.latency_s, (d.peak_bps - d.avail_bps).max(0.0), d.peak_bps)
            }
            Err(_) => {
                let (x, y) = (a.up?, b.up?);
                (
                    x.lat_s + y.lat_s,
                    x.cbw_bps + y.cbw_bps,
                    x.peak_bps.min(y.peak_bps),
                )
            }
        };
        // a foreign record's negative or NaN peak leaves the pair
        // unmeasured rather than an empty clamp range
        (peak >= 0.0).then(|| PairProbe {
            latency_s: lat,
            avail_bps: (peak - cbw).clamp(0.0, peak),
            peak_bps: peak,
        })
    }

    /// The store record of this estimate.
    pub fn to_record(&self, epoch: u64, taken_at: SimTime) -> MonitorRecord {
        let switches = self
            .up
            .iter()
            .map(|&(switch, u)| UplinkRec {
                switch,
                lat: u.lat_s,
                cbw: u.cbw_bps,
                peak_bps: u.peak_bps,
            })
            .collect();
        let direct = self
            .direct
            .iter()
            .filter(|&&(s, t, _)| s < t)
            .map(|&(s, t, d)| DirectPairRec {
                s,
                t,
                latency_s: d.latency_s,
                avail_bps: d.avail_bps,
                peak_bps: d.peak_bps,
            })
            .collect();
        MonitorRecord::InterEstimate {
            epoch,
            taken_at,
            num_switches: self.num_switches as u32,
            probes: self.probes,
            probe_bytes: self.probe_bytes,
            switches,
            direct,
        }
    }

    /// Rebuild from a decoded [`MonitorRecord::InterEstimate`]. Memory is
    /// proportional to the entries the record lists.
    pub fn from_record(record: &MonitorRecord) -> Option<InterEstimate> {
        let MonitorRecord::InterEstimate {
            num_switches,
            probes,
            probe_bytes,
            switches,
            direct,
            ..
        } = record
        else {
            return None;
        };
        // a switch id outside the record's own space is corrupt input:
        // leave it uncovered
        let up = switches
            .iter()
            .filter(|s| s.switch < *num_switches)
            .map(|s| {
                let up = Uplink {
                    lat_s: s.lat.max(0.0),
                    cbw_bps: s.cbw.max(0.0),
                    peak_bps: s.peak_bps,
                };
                (s.switch, up)
            })
            .collect();
        let direct = direct.iter().map(|d| {
            let probe = PairProbe {
                latency_s: d.latency_s,
                avail_bps: d.avail_bps,
                peak_bps: d.peak_bps,
            };
            (d.s, d.t, probe)
        });
        Some(InterEstimate {
            num_switches: *num_switches as usize,
            up: last_by_key(up, |&(s, _)| s),
            direct: both_ways(direct),
            probes: *probes,
            probe_bytes: *probe_bytes,
        })
    }
}

/// The landmark sampler: picks landmark shards and turns `O(S log S)`
/// probes into an [`InterEstimate`].
#[derive(Debug, Clone)]
pub struct NlEstimator {
    num_switches: usize,
}

impl NlEstimator {
    /// An estimator over a `num_switches`-shard space.
    pub fn new(num_switches: usize) -> NlEstimator {
        NlEstimator { num_switches }
    }

    /// Landmark count for `covered` reachable shards:
    /// `min(covered, max(3, ⌈log2 covered⌉ + 2))`. The closed-form solve
    /// needs at least 3; tiny clusters just measure everything.
    pub fn landmark_count(covered: usize) -> usize {
        if covered <= 3 {
            return covered;
        }
        let log2 = usize::BITS - (covered - 1).leading_zeros();
        covered.min((log2 as usize + 2).max(3))
    }

    /// Representative node pairs probed per measured switch pair (capped
    /// by shard membership). Averaging a few pairs keeps one unlucky leaf
    /// link from biasing the whole switch-pair estimate.
    pub const REP_PAIRS: usize = 3;

    /// Build the estimate. `members[s]` lists the live nodes of shard `s`
    /// (empty: shard unreachable this round); `probe` measures one node
    /// pair. Each sampled switch pair probes up to [`Self::REP_PAIRS`]
    /// distinct representative pairs and averages them. Probe traffic is
    /// accounted into the `monitor_*` counters.
    pub fn estimate(
        &self,
        members: &[Vec<NodeId>],
        probe: &mut impl FnMut(NodeId, NodeId) -> PairProbe,
    ) -> InterEstimate {
        assert_eq!(members.len(), self.num_switches);
        let covered: Vec<u32> = (0..self.num_switches as u32)
            .filter(|&s| !members[s as usize].is_empty())
            .collect();
        let mut est = InterEstimate::empty(self.num_switches);
        if covered.len() < 2 {
            return est;
        }
        let mut direct = Vec::new();
        let mut measure = |s: u32, t: u32| {
            let (ms, mt) = (&members[s as usize], &members[t as usize]);
            let k = Self::REP_PAIRS.min(ms.len()).min(mt.len());
            let mut d = PairProbe {
                latency_s: 0.0,
                avail_bps: 0.0,
                peak_bps: 0.0,
            };
            for i in 0..k {
                // rotate both sides so the k pairs share no endpoint
                let p = probe(ms[i % ms.len()], mt[(i + 1) % mt.len()]);
                est.probes += 1;
                est.probe_bytes += PAIR_PROBE_BYTES;
                d.latency_s += p.latency_s / k as f64;
                d.avail_bps += p.avail_bps / k as f64;
                d.peak_bps = d.peak_bps.max(p.peak_bps);
            }
            direct.push((s, t, d));
        };

        let l = Self::landmark_count(covered.len());
        // landmarks spread evenly over the covered shard list: deterministic
        // and topology-stable across rounds
        let landmarks: Vec<u32> = (0..l)
            .map(|i| covered[i * (covered.len() - 1) / (l - 1).max(1)])
            .collect();

        if covered.len() <= l {
            // small cluster: measure every covered pair exactly
            for (i, &s) in covered.iter().enumerate() {
                for &t in &covered[i + 1..] {
                    measure(s, t);
                }
            }
        } else {
            // landmark clique + every covered shard against every landmark
            for (i, &s) in landmarks.iter().enumerate() {
                for &t in &landmarks[i + 1..] {
                    measure(s, t);
                }
            }
            for &s in &covered {
                if landmarks.contains(&s) {
                    continue;
                }
                for &t in &landmarks {
                    measure(s, t);
                }
            }
        }
        est.direct = both_ways(direct.into_iter());

        // solve the additive model for both metrics
        let lat_up = solve_uplinks(&covered, &landmarks, &est, |d| d.latency_s);
        let cbw_up = solve_uplinks(&covered, &landmarks, &est, |d| {
            (d.peak_bps - d.avail_bps).max(0.0)
        });
        // peak per shard: the best capacity observed through its uplink
        let mut peak = vec![0.0f64; self.num_switches];
        for &(s, _, d) in &est.direct {
            peak[s as usize] = peak[s as usize].max(d.peak_bps);
        }
        est.up = covered
            .iter()
            .map(|&s| {
                let i = s as usize;
                let up = Uplink {
                    lat_s: lat_up[i],
                    cbw_bps: cbw_up[i],
                    peak_bps: peak[i],
                };
                (s, up)
            })
            .collect();
        nlrm_obs::ctx::add("monitor_pair_measurements_total", est.probes);
        nlrm_obs::ctx::add("monitor_probe_bytes_total", est.probe_bytes);
        est
    }
}

/// Solve per-shard uplink contributions from the landmark measurements,
/// indexed by shard id (uncovered shards get a zero that is never read).
fn solve_uplinks(
    covered: &[u32],
    landmarks: &[u32],
    est: &InterEstimate,
    metric: impl Fn(&PairProbe) -> f64,
) -> Vec<f64> {
    let n = covered.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
    let mut out = vec![0.0; n];
    let l = landmarks.len();
    if l < 3 {
        // no solvable clique: everything was measured directly
        return out;
    }
    let m = |s: u32, t: u32| metric(&est.measured(s, t).expect("landmark pair measured"));

    // closed-form landmark solve
    let mut total = 0.0;
    let mut row_sum = vec![0.0f64; l];
    for i in 0..l {
        for j in (i + 1)..l {
            let v = m(landmarks[i], landmarks[j]);
            total += v;
            row_sum[i] += v;
            row_sum[j] += v;
        }
    }
    let u_total = total / (l as f64 - 1.0);
    for (i, &s) in landmarks.iter().enumerate() {
        out[s as usize] = ((row_sum[i] - u_total) / (l as f64 - 2.0)).max(0.0);
    }
    for &s in covered {
        if landmarks.contains(&s) {
            continue;
        }
        // one candidate per landmark; the point is their mean
        let sum = landmarks
            .iter()
            .fold(0.0, |sum, &lm| sum + (m(s, lm) - out[lm as usize]).max(0.0));
        out[s as usize] = sum / l as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    /// Probes that follow the additive tree model exactly.
    fn tree_probe<'a>(
        lat_up: &'a [f64],
        cbw_up: &'a [f64],
        peak: f64,
        shard_of: &'a dyn Fn(NodeId) -> usize,
    ) -> impl FnMut(NodeId, NodeId) -> PairProbe + 'a {
        move |u, v| {
            let (s, t) = (shard_of(u), shard_of(v));
            let cbw = cbw_up[s] + cbw_up[t];
            PairProbe {
                latency_s: lat_up[s] + lat_up[t],
                avail_bps: (peak - cbw).max(0.0),
                peak_bps: peak,
            }
        }
    }

    fn reps(n: usize) -> Vec<Vec<NodeId>> {
        (0..n).map(|s| vec![NodeId(s as u32 * 100)]).collect()
    }

    #[test]
    fn switch_ids_outside_the_record_space_are_uncovered() {
        let uplink = |switch| crate::codec::UplinkRec {
            switch,
            lat: 2e-5,
            cbw: 1e6,
            peak_bps: 1e9,
        };
        // a corrupt record: switch 7 in a 2-switch space
        let rec = MonitorRecord::InterEstimate {
            epoch: 1,
            taken_at: SimTime::ZERO,
            num_switches: 2,
            probes: 0,
            probe_bytes: 0,
            switches: vec![uplink(0), uplink(1), uplink(7)],
            direct: Vec::new(),
        };
        let est = InterEstimate::from_record(&rec).unwrap();
        assert_eq!(est.entries(), 2);
        assert!(est.pair(0, 7).is_none() && est.pair(0, 99).is_none());
        assert!(est.pair(99, 1).is_none() && est.pair(1, 1).is_none());
        assert_eq!(est.pair(0, 1).unwrap().latency_s, 4e-5);
    }

    #[test]
    fn landmark_count_scales_logarithmically() {
        assert_eq!(NlEstimator::landmark_count(2), 2);
        assert_eq!(NlEstimator::landmark_count(3), 3);
        assert_eq!(NlEstimator::landmark_count(4), 4);
        assert_eq!(NlEstimator::landmark_count(8), 5);
        assert_eq!(NlEstimator::landmark_count(100), 9);
        assert_eq!(NlEstimator::landmark_count(2084), 14);
    }

    #[test]
    fn exact_on_additive_tree_model() {
        let s = 20usize;
        let lat: Vec<f64> = (0..s).map(|i| 1e-4 * (1.0 + i as f64 * 0.37)).collect();
        let cbw: Vec<f64> = (0..s)
            .map(|i| 1e7 * (1.0 + (i as f64 * 1.3) % 5.0))
            .collect();
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(s).estimate(&reps(s), &mut probe);
        for a in 0..s as u32 {
            for b in (a + 1)..s as u32 {
                let p = est.pair(a, b).unwrap();
                let want_lat = lat[a as usize] + lat[b as usize];
                assert!(
                    (p.latency_s - want_lat).abs() < 1e-12,
                    "lat({a},{b}) {} != {want_lat}",
                    p.latency_s
                );
                let want_cbw = cbw[a as usize] + cbw[b as usize];
                assert!((p.peak_bps - p.avail_bps - want_cbw).abs() < 1e-3);
                assert_eq!(p.peak_bps, 1e9);
            }
        }
    }

    #[test]
    fn probe_budget_is_s_log_s_not_s_squared() {
        let s = 256usize;
        let lat = vec![1e-4; s];
        let cbw = vec![1e6; s];
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(s).estimate(&reps(s), &mut probe);
        let l = NlEstimator::landmark_count(s);
        let want = (l * (l - 1) / 2 + (s - l) * l) as u64;
        assert_eq!(est.probes, want);
        assert!(
            (est.probes as usize) < s * (s - 1) / 8,
            "sampled probes {} not far below the full {} pairs",
            est.probes,
            s * (s - 1) / 2
        );
    }

    #[test]
    fn small_cluster_measures_all_pairs_exactly() {
        let s = 4usize;
        let lat = [1e-4, 2e-4, 3e-4, 4e-4];
        let cbw = [1e6, 2e6, 3e6, 4e6];
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(s).estimate(&reps(s), &mut probe);
        assert_eq!(est.direct_pairs(), 6, "all pairs measured directly");
        for a in 0..4usize {
            for b in (a + 1)..4 {
                let p = est.pair(a as u32, b as u32).unwrap();
                assert_eq!(p.latency_s, lat[a] + lat[b], "direct pairs are exact");
                assert_eq!(p.peak_bps - p.avail_bps, cbw[a] + cbw[b]);
            }
        }
    }

    #[test]
    fn uncovered_shards_yield_none() {
        let mut r = reps(6);
        r[2] = vec![];
        let lat = vec![1e-4; 6];
        let cbw = vec![1e6; 6];
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(6).estimate(&r, &mut probe);
        assert!(est.pair(1, 2).is_none() && est.pair(2, 5).is_none());
        assert!(est.pair(0, 3).is_some());
    }

    #[test]
    fn record_roundtrip_preserves_queries() {
        let s = 12usize;
        let lat: Vec<f64> = (0..s).map(|i| 1e-4 + i as f64 * 1e-5).collect();
        let cbw: Vec<f64> = (0..s).map(|i| 1e6 * (1.0 + i as f64)).collect();
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(s).estimate(&reps(s), &mut probe);
        let rec = est.to_record(7, SimTime::from_secs(60));
        let back = InterEstimate::from_record(&decode(&encode(&rec)).unwrap()).unwrap();
        assert_eq!(back, est);
    }
}
