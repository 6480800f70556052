//! Cluster snapshots: the allocator's only view of the world.
//!
//! A [`ClusterSnapshot`] is assembled **exclusively from store records** —
//! the same way the paper's Node Allocator reads the files the daemons wrote
//! to NFS. If a daemon lagged or died, the snapshot is stale or partial, and
//! the allocator decides with exactly that imperfect information.
//!
//! The pair data keeps the shape the monitor published ([`PairSource`]). The
//! central monitor's all-pairs rows fill three dense V×V matrices. The
//! sharded monitor's records stay blocks: one exact triangle per shard plus
//! the inter-shard estimate in its sampled O(S log S) form, which answers
//! a cross-shard cell on demand: O(Σ m_s² + S log S) instead of O(V²).
//! Readers go through accessors that both shapes answer alike.

use crate::codec::{CodecError, MonitorRecord};
use crate::estimate::{InterEstimate, PairProbe, Site};
use crate::matrix::{pair_index, SymMatrix};
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
    /// Per-node info for every node that has ever published a sample, in
    /// ascending node id (missing nodes are absent). Both assemblers walk
    /// ids in order, and [`ClusterSnapshot::info`] binary-searches on it.
    pub nodes: Vec<NodeInfo>,
    /// Pairwise latency and bandwidth, in the shape the monitor published.
    pub pairs: PairSource,
}

/// Where a snapshot's pair measurements live.
#[derive(Debug, Clone)]
pub enum PairSource {
    /// All-pairs matrices (the central monitor, the paper's protocol).
    Dense(DensePairs),
    /// Exact per-shard blocks plus the sampled inter-shard estimate (the
    /// sharded monitor).
    Blocks(BlockPairs),
}

/// All-pairs matrices filled from the central monitor's rows.
#[derive(Debug, Clone)]
pub struct DensePairs {
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

impl DensePairs {
    /// `n` nodes, every pair unmeasured and no row published.
    fn unmeasured(n: usize) -> DensePairs {
        let mut d = DensePairs {
            latency: SymMatrix::new(n, LatencyStat::constant(f64::INFINITY)),
            bandwidth_bps: SymMatrix::new(n, 0.0),
            peak_bandwidth_bps: SymMatrix::new(n, 0.0),
            latency_row_age: vec![None; n],
            bandwidth_row_age: vec![None; n],
        };
        for i in 0..n {
            let u = NodeId(i as u32);
            d.latency.set(u, u, LatencyStat::constant(0.0));
            d.bandwidth_bps.set(u, u, f64::INFINITY);
            d.peak_bandwidth_bps.set(u, u, f64::INFINITY);
        }
        d
    }
}

/// A node paired with itself.
const SELF: PairProbe = PairProbe {
    latency_s: 0.0,
    avail_bps: f64::INFINITY,
    peak_bps: f64::INFINITY,
};

/// A pair no record covers.
const UNMEASURED: PairProbe = PairProbe {
    latency_s: f64::INFINITY,
    avail_bps: 0.0,
    peak_bps: 0.0,
};

/// One shard's exact block, as its `ShardNl` record published it.
#[derive(Debug, Clone)]
pub struct ShardBlock {
    /// Shard (switch) id.
    pub shard: u32,
    /// Members in record order.
    pub members: Vec<NodeId>,
    /// Latency per member pair `(i < j)` at [`pair_index`]`(m, i, j)`, s.
    pub lat_s: Vec<f64>,
    /// Available bandwidth per member pair, bits/s.
    pub avail_bps: Vec<f64>,
    /// Peak bandwidth per member pair, bits/s.
    pub peak_bps: Vec<f64>,
    /// Age at assembly: the older of the shard and estimate records, so
    /// inferred data never looks fresher than its inputs.
    pub age: Duration,
}

impl ShardBlock {
    /// The pair of members at positions `i ≠ j`.
    fn cell(&self, i: usize, j: usize) -> PairProbe {
        let k = pair_index(self.members.len(), i, j);
        PairProbe {
            latency_s: self.lat_s[k],
            avail_bps: self.avail_bps[k],
            peak_bps: self.peak_bps[k],
        }
    }
}

/// The sharded monitor's pairs: shard blocks plus the inter-shard
/// estimate, which answers a cell between two blocks on demand.
#[derive(Debug, Clone)]
pub struct BlockPairs {
    n: usize,
    /// Ascending shard id.
    blocks: Vec<ShardBlock>,
    /// `(block, position)` per node id below `n`, or [`NO_SLOT`].
    slot: Vec<(u32, u32)>,
    /// The published estimate (empty when there is none).
    est: InterEstimate,
    /// Each block's shard resolved against `est`.
    sites: Vec<Site>,
}

const NO_SLOT: (u32, u32) = (u32::MAX, u32::MAX);

impl BlockPairs {
    /// Index `blocks` over the `n`-node id space. A member `≥ n` is kept in
    /// its triangle but never resolved; a node listed twice resolves to its
    /// last listing.
    fn new(n: usize, mut blocks: Vec<ShardBlock>, est: Option<InterEstimate>) -> BlockPairs {
        blocks.sort_by_key(|b| b.shard);
        let mut slot = vec![NO_SLOT; n];
        for (b, block) in blocks.iter().enumerate() {
            for (i, &u) in block.members.iter().enumerate() {
                if let Some(s) = slot.get_mut(u.index()) {
                    *s = (b as u32, i as u32);
                }
            }
        }
        let est = est.unwrap_or_else(|| InterEstimate::empty(0));
        let sites = blocks.iter().map(|b| est.site(b.shard)).collect();
        BlockPairs {
            n,
            blocks,
            slot,
            est,
            sites,
        }
    }

    /// The shard blocks, ascending shard id.
    pub fn blocks(&self) -> &[ShardBlock] {
        &self.blocks
    }

    /// `(block, position in its members)` of a node, if a block holds it.
    pub fn slot(&self, node: NodeId) -> Option<(usize, usize)> {
        match self.slot.get(node.index()) {
            Some(&(b, i)) if (b, i) != NO_SLOT => Some((b as usize, i as usize)),
            _ => None,
        }
    }

    /// The cell between blocks `a ≠ b`: the estimate's point values, or
    /// unmeasured when the estimate does not cover the pair or both blocks
    /// name one shard.
    fn cross(&self, a: usize, b: usize) -> PairProbe {
        let (s, t) = (&self.sites[a], &self.sites[b]);
        self.est.pair_at(s, t).unwrap_or(UNMEASURED)
    }

    /// The cell for any node pair.
    fn cell(&self, u: NodeId, v: NodeId) -> PairProbe {
        if u == v {
            return SELF;
        }
        match (self.slot(u), self.slot(v)) {
            (Some((a, i)), Some((b, j))) if a == b => self.blocks[a].cell(i, j),
            (Some((a, _)), Some((b, _))) => self.cross(a, b),
            _ => UNMEASURED,
        }
    }

    /// Age of a node's pair data (`None`: no block holds it).
    fn age(&self, node: NodeId) -> Option<Duration> {
        self.slot(node).map(|(b, _)| self.blocks[b].age)
    }

    /// Pair cells stored: `Σ_s C(m_s, 2)` block pairs plus the estimate's
    /// entries (one uplink per covered shard and the measured pairs).
    pub fn stored_cells(&self) -> usize {
        self.blocks.iter().map(|b| b.lat_s.len()).sum::<usize>() + self.est.entries()
    }
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

/// Decode the record at `path`, if there is one, with its age at `now`.
fn read(
    store: &SharedStore,
    path: &str,
    now: SimTime,
) -> Result<Option<(MonitorRecord, Duration)>, SnapshotError> {
    let Some((written_at, record)) = store.record(path) else {
        return Ok(None);
    };
    match record {
        Ok(r) => Ok(Some((r, now.since(written_at)))),
        Err(e) => Err(SnapshotError::Corrupt(path.into(), e)),
    }
}

fn wrong_kind(path: &str) -> SnapshotError {
    SnapshotError::Corrupt(path.into(), CodecError::BadTag(0))
}

/// Node infos from the livehosts and nodestate records, ascending id.
fn read_nodes(store: &SharedStore, n: usize, now: SimTime) -> Result<Vec<NodeInfo>, SnapshotError> {
    let mut live = vec![false; n];
    match read(store, paths::LIVEHOSTS, now)? {
        Some((MonitorRecord::Livehosts(hosts), _)) => {
            for h in hosts.into_iter().filter(|h| h.index() < n) {
                live[h.index()] = true;
            }
        }
        Some(_) => return Err(wrong_kind(paths::LIVEHOSTS)),
        None => return Err(SnapshotError::NoLivehosts),
    }
    let mut nodes = Vec::new();
    for (i, live) in live.into_iter().enumerate() {
        let node = NodeId(i as u32);
        let path = paths::node_state(node);
        match read(store, &path, now)? {
            Some((MonitorRecord::Sample(sample), _)) => nodes.push(NodeInfo { node, sample, live }),
            Some(_) => return Err(wrong_kind(&path)),
            None => {}
        }
    }
    Ok(nodes)
}

impl ClusterSnapshot {
    /// Assemble a snapshot for an `n`-node cluster from the central
    /// monitor's per-node latency and bandwidth rows.
    pub fn assemble(store: &SharedStore, n: usize, now: SimTime) -> Result<Self, SnapshotError> {
        let nodes = read_nodes(store, n, now)?;
        let mut d = DensePairs::unmeasured(n);
        for i in 0..n {
            let node = NodeId(i as u32);
            let path = paths::latency_row(node);
            match read(store, &path, now)? {
                Some((MonitorRecord::LatencyRow { node: u, stats }, age)) => {
                    d.latency_row_age[i] = Some(age);
                    for (v, st) in stats.iter().enumerate().take(n) {
                        if v != u.index() {
                            d.latency.set(u, NodeId(v as u32), *st);
                        }
                    }
                }
                Some(_) => return Err(wrong_kind(&path)),
                None => {}
            }
            let path = paths::bandwidth_row(node);
            match read(store, &path, now)? {
                Some((
                    MonitorRecord::BandwidthRow {
                        node: u,
                        avail_bps,
                        peak_bps,
                    },
                    age,
                )) => {
                    d.bandwidth_row_age[i] = Some(age);
                    for v in 0..n.min(avail_bps.len()) {
                        if v != u.index() {
                            d.bandwidth_bps.set(u, NodeId(v as u32), avail_bps[v]);
                            d.peak_bandwidth_bps.set(u, NodeId(v as u32), peak_bps[v]);
                        }
                    }
                }
                Some(_) => return Err(wrong_kind(&path)),
                None => {}
            }
        }
        Ok(ClusterSnapshot {
            taken_at: now,
            nodes,
            pairs: PairSource::Dense(d),
        })
    }

    /// Assemble a snapshot from *sharded* monitor records in their own
    /// shape, building no V×V or S×S structure: each `ShardNl` record
    /// becomes an exact [`ShardBlock`], and the sampled [`InterEstimate`]
    /// answers each shard pair with its point values. Node handling is that of
    /// [`ClusterSnapshot::assemble`], and the pair accessors answer as
    /// dense matrices would.
    pub fn assemble_sharded(
        store: &SharedStore,
        n: usize,
        now: SimTime,
    ) -> Result<Self, SnapshotError> {
        let nodes = read_nodes(store, n, now)?;
        let mut blocks = Vec::new();
        for path in store.list_prefix("shard/") {
            match read(store, &path, now)? {
                Some((
                    MonitorRecord::ShardNl {
                        shard,
                        members,
                        lat_s,
                        avail_bps,
                        peak_bps,
                        ..
                    },
                    age,
                )) => blocks.push(ShardBlock {
                    shard,
                    members,
                    lat_s,
                    avail_bps,
                    peak_bps,
                    age,
                }),
                Some(_) => return Err(wrong_kind(&path)),
                None => {}
            }
        }
        let (est, est_age) = match read(store, paths::INTER_ESTIMATE, now)? {
            Some((r @ MonitorRecord::InterEstimate { .. }, age)) => {
                (InterEstimate::from_record(&r), Some(age))
            }
            Some(_) => return Err(wrong_kind(paths::INTER_ESTIMATE)),
            None => (None, None),
        };
        for b in &mut blocks {
            b.age = b.age.max(est_age.unwrap_or(Duration::ZERO));
        }
        Ok(ClusterSnapshot {
            taken_at: now,
            nodes,
            pairs: PairSource::Blocks(BlockPairs::new(n, blocks, est)),
        })
    }

    /// Size of the node-id space the pair accessors cover.
    pub fn num_nodes(&self) -> usize {
        match &self.pairs {
            PairSource::Dense(d) => d.latency.len(),
            PairSource::Blocks(b) => b.n,
        }
    }

    /// Every pair `(u, v)`, `u < v`, of the node-id space, row-major.
    pub fn node_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> {
        let n = self.num_nodes() as u32;
        (0..n).flat_map(move |u| ((u + 1)..n).map(move |v| (NodeId(u), NodeId(v))))
    }

    /// Latency stat of a pair (0 on the diagonal, +∞ when unmeasured).
    pub fn latency(&self, u: NodeId, v: NodeId) -> LatencyStat {
        match &self.pairs {
            PairSource::Dense(d) => d.latency.get(u, v),
            PairSource::Blocks(b) => LatencyStat::constant(b.cell(u, v).latency_s),
        }
    }

    /// Available bandwidth of a pair, bits/s (+∞ on the diagonal, 0 when
    /// unmeasured).
    pub fn bandwidth_bps(&self, u: NodeId, v: NodeId) -> f64 {
        match &self.pairs {
            PairSource::Dense(d) => d.bandwidth_bps.get(u, v),
            PairSource::Blocks(b) => b.cell(u, v).avail_bps,
        }
    }

    /// Peak bandwidth of a pair, bits/s.
    pub fn peak_bandwidth_bps(&self, u: NodeId, v: NodeId) -> f64 {
        match &self.pairs {
            PairSource::Dense(d) => d.peak_bandwidth_bps.get(u, v),
            PairSource::Blocks(b) => b.cell(u, v).peak_bps,
        }
    }

    /// A pair's latency stat, peak and available bandwidth in one read:
    /// what [`Self::latency`], [`Self::peak_bandwidth_bps`] and
    /// [`Self::bandwidth_bps`] answer, with a block cell resolved once.
    pub fn pair(&self, u: NodeId, v: NodeId) -> (LatencyStat, f64, f64) {
        match &self.pairs {
            PairSource::Dense(d) => (
                d.latency.get(u, v),
                d.peak_bandwidth_bps.get(u, v),
                d.bandwidth_bps.get(u, v),
            ),
            PairSource::Blocks(b) => {
                let c = b.cell(u, v);
                (LatencyStat::constant(c.latency_s), c.peak_bps, c.avail_bps)
            }
        }
    }

    /// Age of a node's latency row at assembly (`None`: never published).
    /// A sharded snapshot ages each node with its block.
    pub fn latency_row_age(&self, node: NodeId) -> Option<Duration> {
        match &self.pairs {
            PairSource::Dense(d) => d.latency_row_age.get(node.index()).copied().flatten(),
            PairSource::Blocks(b) => b.age(node),
        }
    }

    /// Age of a node's bandwidth row at assembly.
    pub fn bandwidth_row_age(&self, node: NodeId) -> Option<Duration> {
        match &self.pairs {
            PairSource::Dense(d) => d.bandwidth_row_age.get(node.index()).copied().flatten(),
            PairSource::Blocks(b) => b.age(node),
        }
    }

    /// The dense matrices, materialised through the accessors first if
    /// the snapshot holds blocks (O(V²): oracles, forecasts and tests).
    pub fn densify(&mut self) -> &mut DensePairs {
        if let PairSource::Blocks(_) = self.pairs {
            let n = self.num_nodes();
            let mut d = DensePairs::unmeasured(n);
            for u in (0..n as u32).map(NodeId) {
                d.latency_row_age[u.index()] = self.latency_row_age(u);
                d.bandwidth_row_age[u.index()] = self.bandwidth_row_age(u);
            }
            for (u, v) in self.node_pairs() {
                d.latency.set(u, v, self.latency(u, v));
                d.bandwidth_bps.set(u, v, self.bandwidth_bps(u, v));
                d.peak_bandwidth_bps
                    .set(u, v, self.peak_bandwidth_bps(u, v));
            }
            self.pairs = PairSource::Dense(d);
        }
        match &mut self.pairs {
            PairSource::Dense(d) => d,
            PairSource::Blocks(_) => unreachable!("materialised above"),
        }
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
        min_age(self.latency_row_age(u), self.latency_row_age(v))
    }

    /// Age of the freshest bandwidth row covering pair `(u, v)`.
    pub fn bandwidth_age(&self, u: NodeId, v: NodeId) -> Option<Duration> {
        min_age(self.bandwidth_row_age(u), self.bandwidth_row_age(v))
    }

    /// Nodes that are live *and* have a sample: the allocatable universe.
    pub fn usable_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| n.node)
            .collect()
    }

    /// Info for a node, if present (binary search over the id-ascending
    /// `nodes`).
    pub fn info(&self, node: NodeId) -> Option<&NodeInfo> {
        let i = self.nodes.binary_search_by_key(&node, |n| n.node).ok()?;
        Some(&self.nodes[i])
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
            NodeStateD::new(NodeId(i as u32), Duration::from_secs(5)).tick(&cluster, &store);
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
        // every pair measured
        for (u, v) in snap.node_pairs() {
            let bw = snap.bandwidth_bps(u, v);
            assert!(bw > 0.0, "bw({u},{v}) = {bw}");
            let lat = snap.latency(u, v);
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
        assert!(snap.latency_row_age(NodeId(0)).is_none());
        assert_eq!(snap.latency_age(NodeId(0), NodeId(1)), age);
    }

    #[test]
    fn diagonal_conventions() {
        let (store, now) = populated(3);
        let snap = ClusterSnapshot::assemble(&store, 3, now).unwrap();
        assert!(snap.bandwidth_bps(NodeId(1), NodeId(1)).is_infinite());
        assert_eq!(snap.latency(NodeId(1), NodeId(1)).instant, 0.0);
    }

    /// A warmed sharded monitor over a 3×8 campus.
    fn sharded() -> (crate::MonitorRuntime, ClusterSnapshot) {
        let mut cluster = nlrm_cluster::iitk::campus(3, 8, 5);
        let idx = cluster.topology().switch_index();
        let mut rt = crate::MonitorRuntime::with_topo(
            &cluster,
            crate::daemons::DaemonConfig::default(),
            crate::MonitorTopo::Sharded(crate::ShardConfig::new(idx)),
        );
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        (rt, snap)
    }

    #[test]
    fn nodes_are_id_ascending_in_both_shapes() {
        let (store, now) = populated(6);
        store.remove(&paths::node_state(NodeId(3)));
        let central = ClusterSnapshot::assemble(&store, 6, now).unwrap();
        let (_, sharded) = sharded();
        for snap in [&central, &sharded] {
            assert!(snap.nodes.windows(2).all(|w| w[0].node < w[1].node));
            for info in &snap.nodes {
                assert_eq!(snap.info(info.node), Some(info));
            }
        }
        assert!(central.info(NodeId(3)).is_none());
        assert!(central.info(NodeId(60)).is_none());
    }

    #[test]
    fn sharded_snapshot_keeps_the_block_shape() {
        let (_, snap) = sharded();
        let PairSource::Blocks(b) = &snap.pairs else {
            panic!("a sharded monitor yields blocks");
        };
        assert_eq!(snap.num_nodes(), 24);
        assert_eq!(b.blocks().len(), 3);
        assert!(b.blocks().windows(2).all(|w| w[0].shard < w[1].shard));
        let intra: usize = b
            .blocks()
            .iter()
            .map(|s| s.members.len())
            .map(|m| m * (m - 1) / 2)
            .sum();
        // three covered shards, all three pairs measured
        assert_eq!(b.stored_cells(), intra + 3 + 3);
        // every pair is measured, exact inside a block, one cell across
        for (u, v) in snap.node_pairs() {
            let (lat, bw) = (snap.latency(u, v), snap.bandwidth_bps(u, v));
            assert!(lat.instant > 0.0 && lat.instant.is_finite(), "lat({u},{v})");
            assert!(
                bw > 0.0 && bw <= snap.peak_bandwidth_bps(u, v),
                "bw({u},{v})"
            );
            let (a, _) = b.slot(u).unwrap();
            let (c, _) = b.slot(v).unwrap();
            if a != c {
                assert_eq!(b.cell(u, v), b.cross(a, c));
            }
            assert_eq!(snap.latency_age(u, v), snap.latency_row_age(u));
        }
        // the dense copy answers every accessor the same
        let mut dense = snap.clone();
        dense.densify();
        assert!(matches!(dense.pairs, PairSource::Dense(_)));
        for u in (0..25).map(NodeId) {
            assert_eq!(dense.latency_row_age(u), snap.latency_row_age(u));
            assert_eq!(dense.bandwidth_row_age(u), snap.bandwidth_row_age(u));
            for v in (0..24).map(NodeId) {
                if u.index() < 24 {
                    assert_eq!(dense.latency(u, v), snap.latency(u, v));
                    assert_eq!(
                        dense.bandwidth_bps(u, v).to_bits(),
                        snap.bandwidth_bps(u, v).to_bits()
                    );
                    assert_eq!(
                        dense.peak_bandwidth_bps(u, v).to_bits(),
                        snap.peak_bandwidth_bps(u, v).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_shard_records_resolve_without_panics() {
        let (rt, snap) = sharded();
        let PairSource::Blocks(b) = &snap.pairs else {
            panic!("blocks");
        };
        let (s0, s1) = (b.blocks()[0].shard, b.blocks()[1].shard);
        let store = rt.store();
        let now = SimTime::from_secs(400);
        // the second shard's record vanishes; the first names a node beyond
        // the id space
        store.remove(&paths::shard_nl(s1));
        let rec = crate::codec::decode(&store.get(&paths::shard_nl(s0)).unwrap().data).unwrap();
        let MonitorRecord::ShardNl {
            mut members,
            shard,
            epoch,
            taken_at,
            lat_s,
            avail_bps,
            peak_bps,
            probe_bytes,
        } = rec
        else {
            panic!("shard record");
        };
        let last = members.len() - 1;
        let evicted = members[last];
        members[last] = NodeId(99);
        let rec = MonitorRecord::ShardNl {
            shard,
            epoch,
            taken_at,
            members,
            lat_s,
            avail_bps,
            peak_bps,
            probe_bytes,
        };
        store.put(&paths::shard_nl(s0), now, crate::codec::encode(&rec));
        let snap = ClusterSnapshot::assemble_sharded(store, 24, now).unwrap();
        let PairSource::Blocks(b) = &snap.pairs else {
            panic!("blocks");
        };
        assert_eq!(b.blocks().len(), 2);
        assert!(b.slot(NodeId(99)).is_none() && b.slot(evicted).is_none());
        assert_eq!(snap.bandwidth_bps(evicted, NodeId(0)), 0.0);
        assert!(snap.latency(evicted, NodeId(0)).instant.is_infinite());
        assert_eq!(snap.latency_row_age(evicted), None);
        // without the estimate every cross pair is unmeasured
        store.remove(paths::INTER_ESTIMATE);
        let snap = ClusterSnapshot::assemble_sharded(store, 24, now).unwrap();
        let PairSource::Blocks(b) = &snap.pairs else {
            panic!("blocks");
        };
        assert_eq!(b.cross(0, 1), UNMEASURED);
        let (u, v) = (b.blocks()[0].members[0], b.blocks()[0].members[1]);
        assert!(snap.latency(u, v).instant.is_finite());
    }

    #[test]
    fn a_negative_or_nan_peak_leaves_cross_pairs_unmeasured() {
        let (rt, snap) = sharded();
        let PairSource::Blocks(b) = &snap.pairs else {
            panic!("blocks");
        };
        let shards: Vec<u32> = b.blocks().iter().map(|s| s.shard).collect();
        let (u, v, w) = (
            b.blocks()[0].members[0],
            b.blocks()[1].members[0],
            b.blocks()[2].members[0],
        );
        let store = rt.store();
        let now = SimTime::from_secs(400);
        // uplinks with peaks -1 and NaN, and a measured pair with peak -5
        let uplink = |switch, peak_bps| crate::codec::UplinkRec {
            switch,
            lat: 1e-5,
            cbw: 1e6,
            peak_bps,
        };
        let rec = MonitorRecord::InterEstimate {
            epoch: 1,
            taken_at: now,
            num_switches: shards[2] + 1,
            probes: 0,
            probe_bytes: 0,
            switches: vec![
                uplink(shards[0], -1.0),
                uplink(shards[1], f64::NAN),
                uplink(shards[2], 1e9),
            ],
            direct: vec![crate::codec::DirectPairRec {
                s: shards[1],
                t: shards[2],
                latency_s: 1e-5,
                avail_bps: 1e9,
                peak_bps: -5.0,
            }],
        };
        store.put(paths::INTER_ESTIMATE, now, crate::codec::encode(&rec));
        let data = store.get(paths::INTER_ESTIMATE).unwrap().data;
        let est = InterEstimate::from_record(&crate::codec::decode(&data).unwrap()).unwrap();
        assert_eq!(est.pair(shards[0], shards[1]), None);
        assert_eq!(est.pair(shards[1], shards[2]), None);
        assert_eq!(est.pair(shards[0], shards[2]), None);
        let snap = ClusterSnapshot::assemble_sharded(store, 24, now).unwrap();
        for (x, y) in [(u, v), (v, w), (u, w)] {
            assert_eq!(snap.bandwidth_bps(x, y), 0.0);
            assert_eq!(snap.peak_bandwidth_bps(x, y), 0.0);
            let (lat, peak, avail) = snap.pair(x, y);
            assert!(lat.instant.is_infinite() && peak == 0.0 && avail == 0.0);
        }
    }

    #[test]
    fn pair_reads_what_the_three_accessors_read() {
        let (store, now) = populated(5);
        let central = ClusterSnapshot::assemble(&store, 5, now).unwrap();
        let (_, sharded) = sharded();
        for snap in [&central, &sharded] {
            for (u, v) in snap.node_pairs().chain([(NodeId(1), NodeId(1))]) {
                let (lat, peak, avail) = snap.pair(u, v);
                assert_eq!(lat, snap.latency(u, v));
                assert_eq!(peak.to_bits(), snap.peak_bandwidth_bps(u, v).to_bits());
                assert_eq!(avail.to_bits(), snap.bandwidth_bps(u, v).to_bits());
            }
        }
    }

    #[test]
    fn estimate_record_sizes_allocate_nothing() {
        let (rt, _) = sharded();
        let store = rt.store();
        let now = SimTime::from_secs(400);
        // a well-formed record naming the largest switch space and id
        let rec = MonitorRecord::InterEstimate {
            epoch: 1,
            taken_at: now,
            num_switches: u32::MAX,
            probes: 0,
            probe_bytes: 0,
            switches: vec![crate::codec::UplinkRec {
                switch: u32::MAX - 1,
                lat: 1e-5,
                cbw: 0.0,
                peak_bps: 1e9,
            }],
            direct: Vec::new(),
        };
        store.put(paths::INTER_ESTIMATE, now, crate::codec::encode(&rec));
        let snap = ClusterSnapshot::assemble_sharded(store, 24, now).unwrap();
        let PairSource::Blocks(b) = &snap.pairs else {
            panic!("blocks");
        };
        assert_eq!(b.cross(0, 1), UNMEASURED);
    }
}
