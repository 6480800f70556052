//! A SLURM select-plugin-shaped adapter (paper §6: "we also intend to
//! explore integrating our tool as a plugin for the SLURM job scheduler").
//!
//! SLURM's *select* plugins answer one question: given a job description
//! and a bitmap of currently-available nodes, which nodes should the job
//! get? This module mirrors that interface — [`JobDescriptor`] carries the
//! fields a `job_desc_msg_t` would, [`NodeBitmap`] plays the role of the
//! availability bitmap, and [`SelectPlugin`] is the `select_p_job_test`
//! entry point — and [`NlrmSelect`] implements it with the paper's
//! allocator, so the same decision logic could sit behind a real
//! `select/nlrm` plugin.

use crate::loads::Loads;
use crate::policies::place;
use crate::request::{AllocError, Allocation, AllocationRequest};
use nlrm_monitor::ClusterSnapshot;
use nlrm_topology::NodeId;

/// The subset of a SLURM job description the selector consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDescriptor {
    /// Total task count (`--ntasks`).
    pub num_tasks: u32,
    /// Tasks per node (`--ntasks-per-node`), if pinned.
    pub ntasks_per_node: Option<u32>,
    /// Minimum distinct nodes (`--nodes=<min>`), 0 = no constraint.
    pub min_nodes: u32,
    /// Maximum distinct nodes (`--nodes=<min>-<max>`), 0 = no constraint.
    pub max_nodes: u32,
    /// Excluded hostnames (`--exclude`).
    pub excluded_hosts: Vec<String>,
    /// Required hostnames (`--nodelist`); all must be in the result.
    pub required_hosts: Vec<String>,
    /// The α/β job mix (a site would wire this to a QOS or comment field).
    pub alpha: f64,
}

impl JobDescriptor {
    /// A plain `--ntasks=n --ntasks-per-node=ppn` job with the miniMD mix.
    pub fn tasks(num_tasks: u32, ppn: u32) -> Self {
        JobDescriptor {
            num_tasks,
            ntasks_per_node: Some(ppn),
            min_nodes: 0,
            max_nodes: 0,
            excluded_hosts: Vec::new(),
            required_hosts: Vec::new(),
            alpha: 0.3,
        }
    }
}

/// A set of selectable nodes, indexed by node id (SLURM's node bitmap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBitmap {
    bits: Vec<bool>,
}

impl NodeBitmap {
    /// All `n` nodes available.
    pub fn all(n: usize) -> Self {
        NodeBitmap {
            bits: vec![true; n],
        }
    }

    /// No nodes available.
    pub fn none(n: usize) -> Self {
        NodeBitmap {
            bits: vec![false; n],
        }
    }

    /// Bitmap size.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        !self.bits.iter().any(|&b| b)
    }

    /// Whether `node` is set.
    pub fn contains(&self, node: NodeId) -> bool {
        self.bits.get(node.index()).copied().unwrap_or(false)
    }

    /// Set or clear a node.
    pub fn set(&mut self, node: NodeId, value: bool) {
        self.bits[node.index()] = value;
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Iterate set nodes.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| NodeId(i as u32))
    }
}

/// The select-plugin entry point (`select_p_job_test` in SLURM terms).
pub trait SelectPlugin {
    /// Pick nodes for `job` out of `avail`; on success returns the chosen
    /// bitmap and the full allocation (rank map included).
    fn select_nodes(
        &mut self,
        job: &JobDescriptor,
        avail: &NodeBitmap,
        snap: &ClusterSnapshot,
    ) -> Result<(NodeBitmap, Allocation), AllocError>;
}

/// The paper's allocator behind the SLURM-shaped interface.
#[derive(Debug, Clone, Default)]
pub struct NlrmSelect;

impl NlrmSelect {
    /// A fresh selector.
    pub fn new() -> Self {
        NlrmSelect
    }

    fn resolve_hosts(snap: &ClusterSnapshot, hosts: &[String]) -> Result<Vec<NodeId>, AllocError> {
        hosts
            .iter()
            .map(|h| {
                snap.nodes
                    .iter()
                    .find(|i| &i.sample.spec.hostname == h)
                    .map(|i| i.node)
                    .ok_or_else(|| AllocError::InvalidRequest(format!("unknown host '{h}'")))
            })
            .collect()
    }
}

impl SelectPlugin for NlrmSelect {
    fn select_nodes(
        &mut self,
        job: &JobDescriptor,
        avail: &NodeBitmap,
        snap: &ClusterSnapshot,
    ) -> Result<(NodeBitmap, Allocation), AllocError> {
        if job.num_tasks == 0 {
            return Err(AllocError::InvalidRequest("num_tasks must be > 0".into()));
        }
        let req = AllocationRequest::new(
            job.num_tasks,
            job.ntasks_per_node,
            job.alpha,
            1.0 - job.alpha,
        );
        req.validate()?;
        let excluded = Self::resolve_hosts(snap, &job.excluded_hosts)?;
        let required = Self::resolve_hosts(snap, &job.required_hosts)?;
        for &r in &required {
            if !avail.contains(r) || excluded.contains(&r) {
                return Err(AllocError::InvalidRequest(format!(
                    "required node {r} is not available"
                )));
            }
        }

        // restrict the universe to the bitmap minus exclusions
        let loads = Loads::derive(snap, &req.compute_weights, &req.network_weights, req.ppn)?;
        let restricted = loads.restrict(|node, pc| {
            if avail.contains(node) && !excluded.contains(&node) {
                pc
            } else {
                0
            }
        });
        if restricted.usable.is_empty() {
            return Err(AllocError::NoUsableNodes);
        }
        // a required host the derivation dropped (down, or a stale sample)
        // cannot start a candidate
        if let Some(r) = required.iter().find(|&&r| restricted.index(r).is_none()) {
            return Err(AllocError::InvalidRequest(format!(
                "required node {r} is not available"
            )));
        }

        // candidate search; required hosts pin the start nodes
        let starts = (!required.is_empty()).then_some(required.as_slice());
        let allocation = place(
            &restricted,
            &req,
            starts,
            "network-load-aware/select-plugin",
        )?;
        let nodes = allocation.node_list();

        // node-count window (SLURM's --nodes=<min>-<max>)
        let n_nodes = nodes.len() as u32;
        if job.min_nodes > 0 && n_nodes < job.min_nodes {
            return Err(AllocError::NotEnoughNodes {
                available: n_nodes as usize,
                needed: job.min_nodes as usize,
            });
        }
        if job.max_nodes > 0 && n_nodes > job.max_nodes {
            return Err(AllocError::InvalidRequest(format!(
                "placement needs {n_nodes} nodes, above --nodes max {}",
                job.max_nodes
            )));
        }
        if let Some(r) = required.iter().find(|r| !nodes.contains(r)) {
            return Err(AllocError::InvalidRequest(format!(
                "required node {r} could not be honoured"
            )));
        }

        let mut bitmap = NodeBitmap::none(snap.num_nodes());
        for n in nodes {
            bitmap.set(n, true);
        }
        Ok((bitmap, allocation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{NetworkLoadAwarePolicy, Policy};
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::MonitorRuntime;
    use nlrm_sim_core::time::Duration;

    fn snapshot(n: usize, seed: u64) -> ClusterSnapshot {
        let mut cluster = small_cluster(n, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap()
    }

    #[test]
    fn plain_job_matches_the_native_allocator() {
        let snap = snapshot(8, 3);
        let job = JobDescriptor::tasks(16, 4);
        let (bitmap, alloc) = NlrmSelect::new()
            .select_nodes(&job, &NodeBitmap::all(8), &snap)
            .unwrap();
        let native = NetworkLoadAwarePolicy::new()
            .allocate(&snap, &AllocationRequest::new(16, Some(4), 0.3, 0.7))
            .unwrap();
        assert_eq!(alloc.nodes, native.nodes);
        assert_eq!(bitmap.count(), 4);
        for n in alloc.node_list() {
            assert!(bitmap.contains(n));
        }
    }

    #[test]
    fn bitmap_restricts_the_universe() {
        let snap = snapshot(8, 3);
        let mut avail = NodeBitmap::all(8);
        // only nodes 4..8 available
        for i in 0..4u32 {
            avail.set(NodeId(i), false);
        }
        let (bitmap, alloc) = NlrmSelect::new()
            .select_nodes(&JobDescriptor::tasks(16, 4), &avail, &snap)
            .unwrap();
        for n in alloc.node_list() {
            assert!(n.0 >= 4, "picked unavailable node {n}");
        }
        assert_eq!(bitmap.count(), 4);
    }

    #[test]
    fn excluded_hosts_are_avoided() {
        let snap = snapshot(6, 5);
        let mut job = JobDescriptor::tasks(8, 4);
        job.excluded_hosts = vec!["test0".into(), "test1".into()];
        let (_, alloc) = NlrmSelect::new()
            .select_nodes(&job, &NodeBitmap::all(6), &snap)
            .unwrap();
        for n in alloc.node_list() {
            assert!(n.0 >= 2, "picked excluded node {n}");
        }
    }

    #[test]
    fn required_host_is_honoured() {
        let snap = snapshot(6, 5);
        let mut job = JobDescriptor::tasks(8, 4);
        job.required_hosts = vec!["test3".into()];
        let (_, alloc) = NlrmSelect::new()
            .select_nodes(&job, &NodeBitmap::all(6), &snap)
            .unwrap();
        assert!(alloc.node_list().contains(&NodeId(3)));
    }

    #[test]
    fn node_window_is_enforced() {
        let snap = snapshot(8, 3);
        let mut job = JobDescriptor::tasks(16, 4); // needs 4 nodes
        job.max_nodes = 3;
        assert!(matches!(
            NlrmSelect::new().select_nodes(&job, &NodeBitmap::all(8), &snap),
            Err(AllocError::InvalidRequest(_))
        ));
        job.max_nodes = 0;
        job.min_nodes = 5;
        assert!(matches!(
            NlrmSelect::new().select_nodes(&job, &NodeBitmap::all(8), &snap),
            Err(AllocError::NotEnoughNodes { .. })
        ));
    }

    #[test]
    fn unknown_and_unavailable_hosts_error() {
        let snap = snapshot(4, 5);
        let mut job = JobDescriptor::tasks(4, 4);
        job.required_hosts = vec!["nonexistent".into()];
        assert!(NlrmSelect::new()
            .select_nodes(&job, &NodeBitmap::all(4), &snap)
            .is_err());
        let mut job = JobDescriptor::tasks(4, 4);
        job.required_hosts = vec!["test2".into()];
        let mut avail = NodeBitmap::all(4);
        avail.set(NodeId(2), false);
        assert!(NlrmSelect::new().select_nodes(&job, &avail, &snap).is_err());
        // in the bitmap but outside the derived universe (down or stale)
        let mut snap = snapshot(6, 5);
        snap.nodes[3].live = false;
        let mut job = JobDescriptor::tasks(4, 4);
        job.required_hosts = vec!["test3".into()];
        assert_eq!(
            NlrmSelect::new().select_nodes(&job, &NodeBitmap::all(6), &snap),
            Err(AllocError::InvalidRequest(
                "required node n3 is not available".into()
            ))
        );
    }

    #[test]
    fn empty_bitmap_errors() {
        let snap = snapshot(4, 5);
        assert!(matches!(
            NlrmSelect::new().select_nodes(
                &JobDescriptor::tasks(4, 4),
                &NodeBitmap::none(4),
                &snap
            ),
            Err(AllocError::NoUsableNodes)
        ));
        // exclusions can empty the universe just as the bitmap can
        let mut job = JobDescriptor::tasks(4, 4);
        job.excluded_hosts = (0..4).map(|i| format!("test{i}")).collect();
        assert_eq!(
            NlrmSelect::new().select_nodes(&job, &NodeBitmap::all(4), &snap),
            Err(AllocError::NoUsableNodes)
        );
        assert!(NodeBitmap::none(4).is_empty());
        assert_eq!(NodeBitmap::all(4).len(), 4);
        assert_eq!(NodeBitmap::all(4).iter().count(), 4);
    }
}
