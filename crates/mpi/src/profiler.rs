//! Application profiling: derive the α/β job mix from a short run.
//!
//! The paper sets α/β "empirically … One may set these weights by profiling
//! an application and decide the relative weights on the basis of the
//! computation and communication times" and lists better profiling tools as
//! future work (§5, §6). This module is that tool: it runs a few timesteps
//! of a workload on a reference placement, measures the compute/
//! communication split per step, and recommends (α, β).
//!
//! Calibration anchor: the paper measured miniMD at 40–80% communication
//! and chose β = 0.7, miniFE at 25–60% and chose β = 0.6. A linear map
//! `β = 0.4 + 0.5·comm_fraction` (clamped to [0.3, 0.9]) passes through
//! both choices at the midpoints of those measured ranges.

use crate::comm::Communicator;
use crate::exec::execute;
use crate::pattern::Workload;
use nlrm_cluster::ClusterSim;

/// Result of profiling a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Workload display name.
    pub workload: String,
    /// Steps profiled.
    pub steps: usize,
    /// Fraction of time spent communicating.
    pub comm_fraction: f64,
    /// Recommended compute weight α for Eq. 4.
    pub alpha: f64,
    /// Recommended network weight β for Eq. 4.
    pub beta: f64,
}

/// Map a measured communication fraction to the paper's (α, β) convention.
pub fn alpha_beta_for(comm_fraction: f64) -> (f64, f64) {
    let beta = (0.4 + 0.5 * comm_fraction.clamp(0.0, 1.0)).clamp(0.3, 0.9);
    (1.0 - beta, beta)
}

/// A limiting view of a workload: only its first `steps` timesteps.
struct Truncated<'a> {
    inner: &'a dyn Workload,
    steps: usize,
}

impl Workload for Truncated<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn steps(&self) -> usize {
        self.steps.min(self.inner.steps())
    }
    fn phase(&self, step: usize, comm: &Communicator) -> crate::pattern::Phase {
        self.inner.phase(step, comm)
    }
}

/// Profile `workload` by executing its first `steps` timesteps on `comm`
/// over a **clone** of the cluster (the caller's timeline is untouched).
pub fn profile(
    cluster: &ClusterSim,
    comm: &Communicator,
    workload: &dyn Workload,
    steps: usize,
) -> ProfileReport {
    assert!(steps > 0, "profiling needs at least one step");
    let mut sandbox = cluster.clone();
    let truncated = Truncated {
        inner: workload,
        steps,
    };
    let timing = execute(&mut sandbox, comm, &truncated);
    let comm_fraction = timing.comm_fraction();
    let (alpha, beta) = alpha_beta_for(comm_fraction);
    ProfileReport {
        workload: workload.name(),
        steps: truncated.steps(),
        comm_fraction,
        alpha,
        beta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Collective, Message, Phase};
    use nlrm_cluster::iitk::small_cluster_with_profile;
    use nlrm_cluster::ClusterProfile;
    use nlrm_sim_core::time::Duration;
    use nlrm_topology::NodeId;

    struct Tunable {
        gcycles: f64,
        bytes: f64,
    }

    impl Workload for Tunable {
        fn name(&self) -> String {
            "tunable".into()
        }
        fn steps(&self) -> usize {
            100
        }
        fn phase(&self, _step: usize, comm: &Communicator) -> Phase {
            let p = comm.size();
            Phase {
                compute_gcycles: vec![self.gcycles; p],
                messages: (0..p)
                    .map(|i| Message {
                        src: i,
                        dst: (i + 1) % p,
                        bytes: self.bytes,
                    })
                    .collect(),
                collectives: vec![Collective::Barrier],
            }
        }
    }

    fn setup() -> (ClusterSim, Communicator) {
        let mut c = small_cluster_with_profile(4, ClusterProfile::quiet(), 3);
        c.advance(Duration::from_secs(30));
        let comm = Communicator::new((0..8).map(|i| NodeId(i / 2)).collect::<Vec<_>>());
        (c, comm)
    }

    #[test]
    fn anchor_points_match_paper_choices() {
        // miniMD's measured 40–80% band midpoint → the paper's β = 0.7
        let (_, beta_md) = alpha_beta_for(0.6);
        assert!((beta_md - 0.7).abs() < 1e-9);
        // miniFE's 25–60% midpoint ≈ 0.42 → close to the paper's β = 0.6
        let (_, beta_fe) = alpha_beta_for(0.425);
        assert!((beta_fe - 0.6).abs() < 0.02);
        // extremes are clamped
        assert_eq!(alpha_beta_for(0.0).1, 0.4);
        assert_eq!(alpha_beta_for(1.0).1, 0.9);
        // α + β = 1 always
        for f in [0.0, 0.3, 0.5, 0.9, 1.0] {
            let (a, b) = alpha_beta_for(f);
            assert!((a + b - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn compute_bound_workload_gets_high_alpha() {
        let (cluster, comm) = setup();
        let report = profile(
            &cluster,
            &comm,
            &Tunable {
                gcycles: 5.0,
                bytes: 100.0,
            },
            10,
        );
        assert!(report.comm_fraction < 0.1, "comm {}", report.comm_fraction);
        assert!(report.alpha > 0.5, "alpha {}", report.alpha);
        assert_eq!(report.steps, 10);
    }

    #[test]
    fn comm_bound_workload_gets_high_beta() {
        let (cluster, comm) = setup();
        let report = profile(
            &cluster,
            &comm,
            &Tunable {
                gcycles: 0.001,
                bytes: 5e6,
            },
            10,
        );
        assert!(report.comm_fraction > 0.8, "comm {}", report.comm_fraction);
        assert!(report.beta > 0.75, "beta {}", report.beta);
    }

    #[test]
    fn profiling_does_not_disturb_the_cluster() {
        let (cluster, comm) = setup();
        let before = cluster.now();
        let load_before = cluster.node_state(NodeId(0)).cpu_load;
        profile(
            &cluster,
            &comm,
            &Tunable {
                gcycles: 1.0,
                bytes: 1e5,
            },
            5,
        );
        assert_eq!(cluster.now(), before);
        assert_eq!(cluster.node_state(NodeId(0)).cpu_load, load_before);
    }

    #[test]
    fn truncation_respects_short_workloads() {
        let (cluster, comm) = setup();
        let report = profile(
            &cluster,
            &comm,
            &Tunable {
                gcycles: 0.1,
                bytes: 1e4,
            },
            500,
        );
        assert_eq!(report.steps, 100, "cannot profile more steps than exist");
    }
}
