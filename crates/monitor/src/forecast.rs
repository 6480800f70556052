//! Snapshot-level forecasting: project a monitoring snapshot forward.
//!
//! The paper's related work (§2) models its composite metric on the Network
//! Weather Service, whose point is that *forecasts*, not raw last samples,
//! should guide scheduling. [`ForecastEngine`] watches the stream of
//! [`ClusterSnapshot`]s the monitor produces, learns per-node and per-pair
//! predictors (the adaptive ensemble from `nlrm_sim_core::forecast`), and
//! can project a snapshot's dynamic attributes to "what they will look like
//! when the job actually starts" — the antidote to the staleness the
//! `ablation_staleness` experiment quantifies.

use crate::sample::LatencyStat;
use crate::snapshot::ClusterSnapshot;
use nlrm_sim_core::forecast::{AdaptiveEnsemble, Ewma, Forecaster};
use nlrm_sim_core::time::SimTime;
use nlrm_topology::NodeId;

/// Forecasters for one node's dynamic attributes.
struct NodeForecasts {
    cpu_load: AdaptiveEnsemble,
    cpu_util: AdaptiveEnsemble,
    flow_rate: AdaptiveEnsemble,
    mem_used: AdaptiveEnsemble,
}

impl NodeForecasts {
    fn new() -> Self {
        NodeForecasts {
            cpu_load: AdaptiveEnsemble::standard(),
            cpu_util: AdaptiveEnsemble::standard(),
            flow_rate: AdaptiveEnsemble::standard(),
            mem_used: AdaptiveEnsemble::standard(),
        }
    }
}

/// Learns from observed snapshots; projects new ones.
///
/// Node attributes get the full adaptive ensemble; the O(n²) pairwise
/// bandwidth/latency series get lightweight EWMAs to keep the engine cheap
/// on large clusters.
pub struct ForecastEngine {
    n: usize,
    nodes: Vec<NodeForecasts>,
    bandwidth: Vec<Ewma>,
    latency: Vec<Ewma>,
    snapshots_seen: usize,
    last_time: Option<SimTime>,
}

impl ForecastEngine {
    /// An engine for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        ForecastEngine {
            n,
            nodes: (0..n).map(|_| NodeForecasts::new()).collect(),
            bandwidth: (0..n * n).map(|_| Ewma::new(0.3)).collect(),
            latency: (0..n * n).map(|_| Ewma::new(0.3)).collect(),
            snapshots_seen: 0,
            last_time: None,
        }
    }

    /// Number of snapshots consumed.
    pub fn snapshots_seen(&self) -> usize {
        self.snapshots_seen
    }

    fn pair_idx(&self, u: NodeId, v: NodeId) -> usize {
        u.index().min(v.index()) * self.n + u.index().max(v.index())
    }

    /// Learn from one snapshot (call on every fresh snapshot, in time order).
    pub fn observe(&mut self, snap: &ClusterSnapshot) {
        if let Some(last) = self.last_time {
            if snap.taken_at <= last {
                return; // ignore replays / out-of-order snapshots
            }
        }
        self.last_time = Some(snap.taken_at);
        let t = snap.taken_at;
        for info in &snap.nodes {
            if !info.live {
                continue;
            }
            let f = &mut self.nodes[info.node.index()];
            f.cpu_load.observe(t, info.sample.cpu_load.instant);
            f.cpu_util.observe(t, info.sample.cpu_util.instant);
            f.flow_rate.observe(t, info.sample.flow_rate_mbps.instant);
            f.mem_used.observe(t, info.sample.mem_used_frac.instant);
        }
        let usable = snap.usable_nodes();
        for (i, &u) in usable.iter().enumerate() {
            for &v in &usable[i + 1..] {
                let idx = self.pair_idx(u, v);
                let bw = snap.bandwidth_bps(u, v);
                if bw.is_finite() {
                    self.bandwidth[idx].observe(t, bw);
                }
                let lat = snap.latency(u, v).instant;
                if lat.is_finite() {
                    self.latency[idx].observe(t, lat);
                }
            }
        }
        self.snapshots_seen += 1;
    }

    /// Produce a copy of `snap` with every dynamic attribute replaced by the
    /// engine's prediction (where one exists). Static attributes, liveness
    /// and long-window means are passed through; the projected values land
    /// in the `instant` and 1-minute slots the allocator actually reads.
    /// Pairs are projected one by one, so the copy is always dense.
    pub fn project(&self, snap: &ClusterSnapshot) -> ClusterSnapshot {
        let mut out = snap.clone();
        for info in &mut out.nodes {
            let f = &self.nodes[info.node.index()];
            if let Some(p) = f.cpu_load.predict() {
                info.sample.cpu_load.instant = p.max(0.0);
                info.sample.cpu_load.m1 = p.max(0.0);
            }
            if let Some(p) = f.cpu_util.predict() {
                let p = p.clamp(0.0, 1.0);
                info.sample.cpu_util.instant = p;
                info.sample.cpu_util.m1 = p;
            }
            if let Some(p) = f.flow_rate.predict() {
                info.sample.flow_rate_mbps.instant = p.max(0.0);
                info.sample.flow_rate_mbps.m1 = p.max(0.0);
            }
            if let Some(p) = f.mem_used.predict() {
                let p = p.clamp(0.0, 1.0);
                info.sample.mem_used_frac.instant = p;
                info.sample.mem_used_frac.m1 = p;
            }
        }
        let usable = snap.usable_nodes();
        let out_pairs = out.densify();
        for (i, &u) in usable.iter().enumerate() {
            for &v in &usable[i + 1..] {
                let idx = self.pair_idx(u, v);
                if let Some(p) = self.bandwidth[idx].predict() {
                    let peak = out_pairs.peak_bandwidth_bps.get(u, v);
                    let p = if peak.is_finite() {
                        p.clamp(0.0, peak)
                    } else {
                        p.max(0.0)
                    };
                    out_pairs.bandwidth_bps.set(u, v, p);
                }
                if let Some(p) = self.latency[idx].predict() {
                    let p = p.max(0.0);
                    let st = out_pairs.latency.get(u, v);
                    out_pairs.latency.set(
                        u,
                        v,
                        LatencyStat {
                            instant: p,
                            m1: p,
                            m5: st.m5,
                        },
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::MonitorRuntime;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_sim_core::time::Duration;

    fn history(n: usize, seed: u64, snaps: usize) -> (Vec<ClusterSnapshot>, ClusterSnapshot) {
        let mut cluster = small_cluster(n, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        let mut out = Vec::new();
        rt.run_until(&mut cluster, SimTime::from_secs(400));
        for _ in 0..snaps {
            let target = cluster.now() + Duration::from_secs(60);
            rt.run_until(&mut cluster, target);
            out.push(rt.snapshot(cluster.now()).unwrap());
        }
        // truth one minute after the last observed snapshot
        let target = cluster.now() + Duration::from_secs(60);
        rt.run_until(&mut cluster, target);
        let future = rt.snapshot(cluster.now()).unwrap();
        (out, future)
    }

    #[test]
    fn projection_replaces_dynamic_attributes() {
        let (history, _) = history(4, 3, 10);
        let mut engine = ForecastEngine::new(4);
        for s in &history {
            engine.observe(s);
        }
        assert_eq!(engine.snapshots_seen(), 10);
        let last = history.last().unwrap();
        let proj = engine.project(last);
        assert_eq!(proj.nodes.len(), last.nodes.len());
        // statics untouched
        for (a, b) in proj.nodes.iter().zip(&last.nodes) {
            assert_eq!(a.sample.spec, b.sample.spec);
            assert_eq!(a.live, b.live);
        }
        // values stay in valid ranges
        for info in &proj.nodes {
            assert!(info.sample.cpu_load.instant >= 0.0);
            assert!((0.0..=1.0).contains(&info.sample.cpu_util.instant));
        }
        let crate::snapshot::PairSource::Dense(d) = &proj.pairs else {
            panic!("projections are dense");
        };
        for (u, v, bw) in d.bandwidth_bps.pairs() {
            let peak = d.peak_bandwidth_bps.get(u, v);
            if peak.is_finite() {
                assert!(bw <= peak + 1.0, "bw({u},{v}) above peak");
            }
        }
    }

    #[test]
    fn forecast_beats_stale_snapshot_on_average() {
        // Walk-forward one-step-ahead comparison (the NWS claim is about
        // average prediction error, so evaluate every step after a short
        // warm-up rather than a single terminal point whose error is
        // dominated by whether a load spike happened to land there):
        // projecting the previous snapshot forward must not lose to
        // carrying it unchanged, on total CPU-load error.
        let mut stale_err = 0.0;
        let mut forecast_err = 0.0;
        for seed in [3u64, 5, 7, 11, 13] {
            let (history, future) = history(6, seed, 40);
            let mut engine = ForecastEngine::new(6);
            let warmup = 10;
            let mut prev: Option<&ClusterSnapshot> = None;
            for (i, snap) in history.iter().chain(std::iter::once(&future)).enumerate() {
                if let Some(last) = prev {
                    if i > warmup {
                        let proj = engine.project(last);
                        for info in &snap.nodes {
                            let truth = info.sample.cpu_load.instant;
                            let stale = last.info(info.node).unwrap().sample.cpu_load.instant;
                            let pred = proj.info(info.node).unwrap().sample.cpu_load.instant;
                            stale_err += (stale - truth).abs();
                            forecast_err += (pred - truth).abs();
                        }
                    }
                }
                engine.observe(snap);
                prev = Some(snap);
            }
        }
        assert!(
            forecast_err <= stale_err * 1.05,
            "forecast {forecast_err:.2} should not lose to stale {stale_err:.2}"
        );
    }

    #[test]
    fn out_of_order_snapshots_are_ignored() {
        let (history, _) = history(4, 9, 5);
        let mut engine = ForecastEngine::new(4);
        for s in &history {
            engine.observe(s);
        }
        let before = engine.snapshots_seen();
        engine.observe(&history[0]); // replay: stale timestamp
        assert_eq!(engine.snapshots_seen(), before);
    }
}
