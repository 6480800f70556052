//! Cluster snapshots: the allocator's only view of the world.
//!
//! A [`ClusterSnapshot`] is assembled **exclusively from store records** —
//! the same way the paper's Node Allocator reads the files the daemons wrote
//! to NFS. If a daemon lagged or died, the snapshot is stale or partial, and
//! the allocator decides with exactly that imperfect information.

use crate::codec::{decode, CodecError, MonitorRecord};
use crate::matrix::SymMatrix;
use crate::sample::{LatencyStat, NodeSample};
use crate::store::{paths, SharedStore};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::fmt;

/// One node's monitored information.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// Node id.
    pub node: NodeId,
    /// Latest published sample.
    pub sample: NodeSample,
    /// Whether the node appeared in the latest livehosts sweep.
    pub live: bool,
}

/// A consistent view of the cluster assembled from the shared store.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Virtual time the snapshot was assembled.
    pub taken_at: SimTime,
    /// Per-node info for every node that has ever published a sample,
    /// indexed positionally by node id (missing nodes are absent).
    pub nodes: Vec<NodeInfo>,
    /// Pairwise latency stats. Diagonal is 0; unmeasured pairs are +∞.
    pub latency: SymMatrix<LatencyStat>,
    /// Pairwise instantaneous available bandwidth, bits/s. Diagonal +∞,
    /// unmeasured pairs 0.
    pub bandwidth_bps: SymMatrix<f64>,
    /// Pairwise peak bandwidth, bits/s.
    pub peak_bandwidth_bps: SymMatrix<f64>,
    /// Age of each node's latency row at assembly time (`None`: the node
    /// never published one). A delayed or hung prober shows up here.
    pub latency_row_age: Vec<Option<Duration>>,
    /// Age of each node's bandwidth row at assembly time.
    pub bandwidth_row_age: Vec<Option<Duration>>,
}

/// Snapshot assembly failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Livehosts record missing: monitoring has never run.
    NoLivehosts,
    /// A record failed to decode (corrupt store).
    Corrupt(String, CodecError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NoLivehosts => write!(f, "no livehosts record in store"),
            SnapshotError::Corrupt(path, e) => write!(f, "corrupt record at {path}: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The parts of a snapshot shared by the central and sharded assemblers:
/// node infos from livehosts + nodestate records, plus matrices initialised
/// to the unmeasured-pair conventions.
struct BaseParts {
    nodes: Vec<NodeInfo>,
    latency: SymMatrix<LatencyStat>,
    bandwidth: SymMatrix<f64>,
    peak: SymMatrix<f64>,
}

fn base_parts(store: &SharedStore, n: usize) -> Result<BaseParts, SnapshotError> {
    let live = read_livehosts(store)?;
    let mut nodes = Vec::new();
    for i in 0..n {
        let node = NodeId(i as u32);
        let path = paths::node_state(node);
        let Some(rec) = store.get(&path) else {
            continue;
        };
        match decode(&rec.data) {
            Ok(MonitorRecord::Sample(sample)) => nodes.push(NodeInfo {
                node,
                sample,
                live: live.contains(&node),
            }),
            Ok(_) => return Err(SnapshotError::Corrupt(path, CodecError::BadTag(0))),
            Err(e) => return Err(SnapshotError::Corrupt(path, e)),
        }
    }

    let mut latency = SymMatrix::new(n, LatencyStat::constant(f64::INFINITY));
    for i in 0..n {
        latency.set(
            NodeId(i as u32),
            NodeId(i as u32),
            LatencyStat::constant(0.0),
        );
    }
    let mut bandwidth = SymMatrix::new(n, 0.0f64);
    let mut peak = SymMatrix::new(n, 0.0f64);
    for i in 0..n {
        bandwidth.set(NodeId(i as u32), NodeId(i as u32), f64::INFINITY);
        peak.set(NodeId(i as u32), NodeId(i as u32), f64::INFINITY);
    }
    Ok(BaseParts {
        nodes,
        latency,
        bandwidth,
        peak,
    })
}

impl ClusterSnapshot {
    /// Assemble a snapshot for an `n`-node cluster from the store.
    pub fn assemble(store: &SharedStore, n: usize, now: SimTime) -> Result<Self, SnapshotError> {
        let BaseParts {
            nodes,
            mut latency,
            mut bandwidth,
            mut peak,
        } = base_parts(store, n)?;

        let mut latency_row_age = vec![None; n];
        let mut bandwidth_row_age = vec![None; n];
        for i in 0..n {
            let node = NodeId(i as u32);
            if let Some(rec) = store.get(&paths::latency_row(node)) {
                latency_row_age[i] = Some(now.since(rec.written_at));
                match decode(&rec.data) {
                    Ok(MonitorRecord::LatencyRow { node: u, stats }) => {
                        for (v, st) in stats.iter().enumerate().take(n) {
                            if v != u.index() {
                                latency.set(u, NodeId(v as u32), *st);
                            }
                        }
                    }
                    Ok(_) => {
                        return Err(SnapshotError::Corrupt(
                            paths::latency_row(node),
                            CodecError::BadTag(0),
                        ))
                    }
                    Err(e) => return Err(SnapshotError::Corrupt(paths::latency_row(node), e)),
                }
            }
            if let Some(rec) = store.get(&paths::bandwidth_row(node)) {
                bandwidth_row_age[i] = Some(now.since(rec.written_at));
                match decode(&rec.data) {
                    Ok(MonitorRecord::BandwidthRow {
                        node: u,
                        avail_bps,
                        peak_bps,
                    }) => {
                        for v in 0..n.min(avail_bps.len()) {
                            if v != u.index() {
                                bandwidth.set(u, NodeId(v as u32), avail_bps[v]);
                                peak.set(u, NodeId(v as u32), peak_bps[v]);
                            }
                        }
                    }
                    Ok(_) => {
                        return Err(SnapshotError::Corrupt(
                            paths::bandwidth_row(node),
                            CodecError::BadTag(0),
                        ))
                    }
                    Err(e) => return Err(SnapshotError::Corrupt(paths::bandwidth_row(node), e)),
                }
            }
        }

        Ok(ClusterSnapshot {
            taken_at: now,
            nodes,
            latency,
            bandwidth_bps: bandwidth,
            peak_bandwidth_bps: peak,
            latency_row_age,
            bandwidth_row_age,
        })
    }

    /// Assemble a snapshot from *sharded* monitor records: intra-shard
    /// pairs come exact from the per-shard `ShardNl` matrices, cross-shard
    /// pairs from the sampled [`InterEstimate`](crate::estimate::InterEstimate)
    /// point values. Livehosts/nodestate handling and the matrix
    /// conventions are identical to [`ClusterSnapshot::assemble`], so the
    /// allocator consumes either transparently.
    ///
    /// Row ages are conservative: a member's rows are as old as the *older*
    /// of its shard record and the estimate record, so the staleness policy
    /// never treats inferred data as fresher than its inputs.
    pub fn assemble_sharded(
        store: &SharedStore,
        n: usize,
        now: SimTime,
    ) -> Result<Self, SnapshotError> {
        let BaseParts {
            nodes,
            mut latency,
            mut bandwidth,
            mut peak,
        } = base_parts(store, n)?;

        let mut latency_row_age = vec![None; n];
        let mut bandwidth_row_age = vec![None; n];

        // intra-shard: exact pair matrices per shard
        let mut shards: Vec<(u32, Vec<NodeId>, Duration)> = Vec::new();
        for path in store.list_prefix("shard/") {
            let Some(rec) = store.get(&path) else {
                continue;
            };
            let age = now.since(rec.written_at);
            match decode(&rec.data) {
                Ok(MonitorRecord::ShardNl {
                    shard,
                    members,
                    lat_s,
                    avail_bps,
                    peak_bps,
                    ..
                }) => {
                    let m = members.len();
                    let tri = |i: usize, j: usize| i * (2 * m - i - 1) / 2 + j - i - 1;
                    for i in 0..m {
                        for j in (i + 1)..m {
                            let (u, v) = (members[i], members[j]);
                            if u.index() >= n || v.index() >= n {
                                continue;
                            }
                            let k = tri(i, j);
                            latency.set(u, v, LatencyStat::constant(lat_s[k]));
                            bandwidth.set(u, v, avail_bps[k]);
                            peak.set(u, v, peak_bps[k]);
                        }
                    }
                    shards.push((shard, members, age));
                }
                Ok(_) => return Err(SnapshotError::Corrupt(path, CodecError::BadTag(0))),
                Err(e) => return Err(SnapshotError::Corrupt(path, e)),
            }
        }

        // cross-shard: point values from the sampled estimate
        let mut est = None;
        let mut est_age = None;
        if let Some(rec) = store.get(paths::INTER_ESTIMATE) {
            est_age = Some(now.since(rec.written_at));
            match decode(&rec.data) {
                Ok(r @ MonitorRecord::InterEstimate { .. }) => {
                    est = crate::estimate::InterEstimate::from_record(&r);
                }
                Ok(_) => {
                    return Err(SnapshotError::Corrupt(
                        paths::INTER_ESTIMATE.into(),
                        CodecError::BadTag(0),
                    ))
                }
                Err(e) => return Err(SnapshotError::Corrupt(paths::INTER_ESTIMATE.into(), e)),
            }
        }
        if let Some(est) = &est {
            for (i, (s, ms, _)) in shards.iter().enumerate() {
                for (t, mt, _) in &shards[i + 1..] {
                    let Some(lat) = est.latency_s(*s, *t) else {
                        continue;
                    };
                    let avail = est.avail_bps(*s, *t).unwrap_or(0.0);
                    let pk = est.peak_bps(*s, *t).unwrap_or(0.0);
                    for &u in ms {
                        for &v in mt {
                            if u.index() >= n || v.index() >= n {
                                continue;
                            }
                            latency.set(u, v, LatencyStat::constant(lat.point));
                            bandwidth.set(u, v, avail);
                            peak.set(u, v, pk);
                        }
                    }
                }
            }
        }

        for (_, members, age) in &shards {
            let worst = match est_age {
                Some(e) => (*age).max(e),
                None => *age,
            };
            for &u in members {
                if u.index() >= n {
                    continue;
                }
                latency_row_age[u.index()] = Some(worst);
                bandwidth_row_age[u.index()] = Some(worst);
            }
        }

        Ok(ClusterSnapshot {
            taken_at: now,
            nodes,
            latency,
            bandwidth_bps: bandwidth,
            peak_bandwidth_bps: peak,
            latency_row_age,
            bandwidth_row_age,
        })
    }

    /// Age of a node's published sample, if it has one.
    pub fn sample_age(&self, node: NodeId) -> Option<Duration> {
        self.info(node)
            .map(|i| self.taken_at.since(i.sample.taken_at))
    }

    /// Age of the freshest latency row covering pair `(u, v)` — the entry
    /// is overwritten by whichever endpoint's row was read, so the newer
    /// row bounds how stale the value can be.
    pub fn latency_age(&self, u: NodeId, v: NodeId) -> Option<Duration> {
        min_age(
            self.latency_row_age[u.index()],
            self.latency_row_age[v.index()],
        )
    }

    /// Age of the freshest bandwidth row covering pair `(u, v)`.
    pub fn bandwidth_age(&self, u: NodeId, v: NodeId) -> Option<Duration> {
        min_age(
            self.bandwidth_row_age[u.index()],
            self.bandwidth_row_age[v.index()],
        )
    }

    /// Nodes that are live *and* have a sample: the allocatable universe.
    pub fn usable_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| n.node)
            .collect()
    }

    /// Info for a node, if present.
    pub fn info(&self, node: NodeId) -> Option<&NodeInfo> {
        self.nodes.iter().find(|n| n.node == node)
    }

    /// Age of the oldest sample among usable nodes (staleness diagnostic).
    pub fn max_sample_age(&self) -> Option<nlrm_sim_core::time::Duration> {
        self.nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| self.taken_at.since(n.sample.taken_at))
            .max()
    }
}

fn min_age(a: Option<Duration>, b: Option<Duration>) -> Option<Duration> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

fn read_livehosts(store: &SharedStore) -> Result<Vec<NodeId>, SnapshotError> {
    let rec = store
        .get(paths::LIVEHOSTS)
        .ok_or(SnapshotError::NoLivehosts)?;
    match decode(&rec.data) {
        Ok(MonitorRecord::Livehosts(hosts)) => Ok(hosts),
        Ok(_) => Err(SnapshotError::Corrupt(
            paths::LIVEHOSTS.into(),
            CodecError::BadTag(0),
        )),
        Err(e) => Err(SnapshotError::Corrupt(paths::LIVEHOSTS.into(), e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemons::{BandwidthD, LatencyD, LivehostsD, NodeStateD};
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_sim_core::time::Duration;

    fn populated(n: usize) -> (SharedStore, SimTime) {
        let mut cluster = small_cluster(n, 17);
        cluster.advance(Duration::from_secs(30));
        let store = SharedStore::new();
        LivehostsD::new().tick(&cluster, &store);
        for i in 0..n {
            NodeStateD::new(NodeId(i as u32)).tick(&cluster, &store);
        }
        LatencyD::new(n).tick(&mut cluster, &store);
        BandwidthD::new(n).tick(&mut cluster, &store);
        (store, cluster.now())
    }

    #[test]
    fn assemble_full_snapshot() {
        let (store, now) = populated(6);
        let snap = ClusterSnapshot::assemble(&store, 6, now).unwrap();
        assert_eq!(snap.nodes.len(), 6);
        assert_eq!(snap.usable_nodes().len(), 6);
        // matrices populated
        for (u, v, bw) in snap.bandwidth_bps.pairs() {
            assert!(bw > 0.0, "bw({u},{v}) = {bw}");
        }
        for (u, v, lat) in snap.latency.pairs() {
            assert!(lat.instant > 0.0 && lat.instant.is_finite(), "lat({u},{v})");
        }
    }

    #[test]
    fn empty_store_errors() {
        let store = SharedStore::new();
        assert_eq!(
            ClusterSnapshot::assemble(&store, 4, SimTime::ZERO).unwrap_err(),
            SnapshotError::NoLivehosts
        );
    }

    #[test]
    fn missing_node_sample_drops_node() {
        let (store, now) = populated(4);
        store.remove(&paths::node_state(NodeId(2)));
        let snap = ClusterSnapshot::assemble(&store, 4, now).unwrap();
        assert_eq!(snap.nodes.len(), 3);
        assert!(snap.info(NodeId(2)).is_none());
        assert_eq!(snap.usable_nodes().len(), 3);
    }

    #[test]
    fn corrupt_record_is_reported() {
        let (store, now) = populated(3);
        store.put(
            &paths::node_state(NodeId(1)),
            now,
            bytes::Bytes::from_static(&[1, 2, 3]),
        );
        match ClusterSnapshot::assemble(&store, 3, now) {
            Err(SnapshotError::Corrupt(path, _)) => assert_eq!(path, "nodestate/1"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn staleness_is_measured() {
        let (store, now) = populated(3);
        let later = now + Duration::from_secs(120);
        let snap = ClusterSnapshot::assemble(&store, 3, later).unwrap();
        assert_eq!(snap.max_sample_age().unwrap(), Duration::from_secs(120));
    }

    #[test]
    fn row_ages_track_publication_times() {
        let (store, now) = populated(3);
        let later = now + Duration::from_secs(120);
        let snap = ClusterSnapshot::assemble(&store, 3, later).unwrap();
        let age = Some(Duration::from_secs(120));
        assert_eq!(snap.latency_age(NodeId(0), NodeId(1)), age);
        assert_eq!(snap.bandwidth_age(NodeId(0), NodeId(2)), age);
        assert_eq!(snap.sample_age(NodeId(1)), age);
        assert_eq!(snap.sample_age(NodeId(9)), None);
        // a pair with one missing row falls back to the other endpoint's
        store.remove(&paths::latency_row(NodeId(0)));
        let snap = ClusterSnapshot::assemble(&store, 3, later).unwrap();
        assert!(snap.latency_row_age[0].is_none());
        assert_eq!(snap.latency_age(NodeId(0), NodeId(1)), age);
    }

    #[test]
    fn diagonal_conventions() {
        let (store, now) = populated(3);
        let snap = ClusterSnapshot::assemble(&store, 3, now).unwrap();
        assert!(snap.bandwidth_bps.get(NodeId(1), NodeId(1)).is_infinite());
        assert_eq!(snap.latency.get(NodeId(1), NodeId(1)).instant, 0.0);
    }
}
