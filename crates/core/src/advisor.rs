//! Wait-or-allocate advice (paper §6).
//!
//! "If the overall load on the cluster is extremely high, the performance
//! gain will not be significant because there are not enough lightly loaded
//! processors; in that case, our tool should recommend waiting rather than
//! allocating it right away."

use crate::policies::{NetworkLoadAwarePolicy, Policy};
use crate::request::{AllocError, Allocation, AllocationRequest};
use nlrm_monitor::ClusterSnapshot;
use nlrm_topology::NodeId;

/// Thresholds for the wait recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorConfig {
    /// Recommend waiting when the best group's mean CPU load per logical
    /// core exceeds this (1.0 ≈ every core already busy).
    pub max_load_per_core: f64,
    /// Recommend waiting when the mean available-bandwidth fraction inside
    /// the best group falls below this.
    pub min_bandwidth_fraction: f64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            max_load_per_core: 0.9,
            min_bandwidth_fraction: 0.05,
        }
    }
}

/// The advisor's verdict.
#[derive(Debug, Clone)]
pub enum Advice {
    /// The allocation is worth running now.
    Allocate(Allocation),
    /// Better to wait; the allocation is included for inspection.
    Wait {
        /// The best allocation the policy could find anyway.
        best_available: Allocation,
        /// Human-readable explanation.
        reason: String,
    },
}

impl Advice {
    /// True when the advice is to go ahead.
    pub fn should_run(&self) -> bool {
        matches!(self, Advice::Allocate(_))
    }

    /// The allocation either way.
    pub fn allocation(&self) -> &Allocation {
        match self {
            Advice::Allocate(a) => a,
            Advice::Wait { best_available, .. } => best_available,
        }
    }
}

/// The §6 load check's measure over `nodes`: Σ 1-min CPU load / Σ logical
/// cores (0 without cores), or the first node with no sample in `snap`.
pub(crate) fn load_per_core(
    snap: &ClusterSnapshot,
    nodes: impl IntoIterator<Item = NodeId>,
) -> Result<f64, NodeId> {
    let (mut load, mut cores) = (0.0, 0.0);
    for u in nodes {
        let info = snap.info(u).ok_or(u)?;
        load += info.sample.cpu_load.m1;
        cores += info.sample.spec.cores as f64;
    }
    Ok(if cores > 0.0 { load / cores } else { 0.0 })
}

/// Run the network-and-load-aware allocator, then judge whether even its
/// best group is too loaded to be worth running on. A winner node with no
/// sample in `snap` advises waiting.
pub fn advise(
    snap: &ClusterSnapshot,
    req: &AllocationRequest,
    config: &AdvisorConfig,
) -> Result<Advice, AllocError> {
    let alloc = NetworkLoadAwarePolicy::new().allocate(snap, req)?;

    let selected = alloc.node_list();
    let mut bw_frac_sum = 0.0;
    let mut bw_pairs = 0usize;
    for (i, &u) in selected.iter().enumerate() {
        for &v in &selected[i + 1..] {
            let peak = snap.peak_bandwidth_bps(u, v);
            let avail = snap.bandwidth_bps(u, v);
            if peak.is_finite() && peak > 0.0 {
                bw_frac_sum += (avail / peak).clamp(0.0, 1.0);
                bw_pairs += 1;
            }
        }
    }
    let bw_frac = if bw_pairs > 0 {
        bw_frac_sum / bw_pairs as f64
    } else {
        1.0
    };

    let reason = match load_per_core(snap, selected.iter().copied()) {
        Err(u) => format!("node {u} has no sample in the snapshot"),
        Ok(load_per_core) if load_per_core > config.max_load_per_core => format!(
            "best group's CPU load per core is {load_per_core:.2} \
             (> {:.2}); not enough lightly loaded processors",
            config.max_load_per_core
        ),
        Ok(_) if bw_frac < config.min_bandwidth_fraction => format!(
            "best group's mean available bandwidth is {:.1}% of peak \
             (< {:.1}%); the network is saturated",
            bw_frac * 100.0,
            config.min_bandwidth_fraction * 100.0
        ),
        Ok(_) => return Ok(Advice::Allocate(alloc)),
    };
    Ok(Advice::Wait {
        best_available: alloc,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster_with_profile;
    use nlrm_cluster::ClusterProfile;
    use nlrm_monitor::MonitorRuntime;
    use nlrm_sim_core::time::Duration;

    fn snapshot_with(profile: ClusterProfile, seed: u64) -> ClusterSnapshot {
        let mut cluster = small_cluster_with_profile(8, profile, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.warm_snapshot(&mut cluster, Duration::from_secs(600))
            .unwrap()
    }

    #[test]
    fn quiet_cluster_gets_allocate() {
        let snap = snapshot_with(ClusterProfile::quiet(), 3);
        let advice = advise(
            &snap,
            &AllocationRequest::minimd(16),
            &AdvisorConfig::default(),
        )
        .unwrap();
        assert!(advice.should_run(), "quiet cluster should allocate");
        assert_eq!(advice.allocation().total_procs(), 16);
    }

    #[test]
    fn overloaded_cluster_gets_wait() {
        let snap = snapshot_with(ClusterProfile::overloaded(), 3);
        let advice = advise(
            &snap,
            &AllocationRequest::minimd(16),
            &AdvisorConfig::default(),
        )
        .unwrap();
        match advice {
            Advice::Wait { reason, .. } => {
                assert!(reason.contains("load per core") || reason.contains("bandwidth"));
            }
            Advice::Allocate(_) => panic!("overloaded cluster should recommend waiting"),
        }
    }

    #[test]
    fn wait_still_reports_best_allocation() {
        let snap = snapshot_with(ClusterProfile::overloaded(), 5);
        let advice = advise(
            &snap,
            &AllocationRequest::minimd(16),
            &AdvisorConfig::default(),
        )
        .unwrap();
        assert_eq!(advice.allocation().total_procs(), 16);
    }
}
