//! Synthetic kernels for tests, calibration, and ablations.

use crate::decomp::Grid3d;
use nlrm_mpi::pattern::{Collective, Message, Phase, Workload};
use nlrm_mpi::Communicator;

/// Pure computation: `gcycles` of work per rank per step, no communication.
/// The embarrassingly parallel end of the spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeOnly {
    /// Work per rank per step, Gcycles.
    pub gcycles: f64,
    /// Steps.
    pub steps: usize,
}

impl Workload for ComputeOnly {
    fn name(&self) -> String {
        "compute-only".into()
    }
    fn steps(&self) -> usize {
        self.steps
    }
    fn phase(&self, _step: usize, comm: &Communicator) -> Phase {
        Phase::compute_only(comm.size(), self.gcycles)
    }
}

/// A 3D halo-exchange stencil with tunable compute/communication balance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Halo3d {
    /// Work per rank per step, Gcycles.
    pub gcycles: f64,
    /// Bytes per face exchange.
    pub face_bytes: f64,
    /// Steps.
    pub steps: usize,
}

impl Workload for Halo3d {
    fn name(&self) -> String {
        "halo3d".into()
    }
    fn steps(&self) -> usize {
        self.steps
    }
    fn phase(&self, _step: usize, comm: &Communicator) -> Phase {
        let p = comm.size();
        let grid = Grid3d::for_ranks(p);
        let mut messages = Vec::new();
        for rank in 0..p {
            for nb in grid.neighbors(rank) {
                if nb != rank {
                    messages.push(Message {
                        src: rank,
                        dst: nb,
                        bytes: self.face_bytes,
                    });
                }
            }
        }
        Phase {
            compute_gcycles: vec![self.gcycles; p],
            messages,
            collectives: Vec::new(),
        }
    }
}

/// All-to-all every step: the communication-dominated extreme (FFT transposes,
/// graph shuffles). Stresses the trunk links of a bad allocation hardest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllToAllHeavy {
    /// Work per rank per step, Gcycles.
    pub gcycles: f64,
    /// Bytes exchanged per rank pair per step.
    pub pair_bytes: f64,
    /// Steps.
    pub steps: usize,
}

impl Workload for AllToAllHeavy {
    fn name(&self) -> String {
        "alltoall-heavy".into()
    }
    fn steps(&self) -> usize {
        self.steps
    }
    fn phase(&self, _step: usize, comm: &Communicator) -> Phase {
        Phase {
            compute_gcycles: vec![self.gcycles; comm.size()],
            messages: Vec::new(),
            collectives: vec![Collective::AllToAll {
                bytes: self.pair_bytes,
            }],
        }
    }
}

/// Rank-0↔rank-1 ping-pong, used to calibrate the latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPong {
    /// Message size in bytes.
    pub bytes: f64,
    /// Number of round trips.
    pub steps: usize,
}

impl Workload for PingPong {
    fn name(&self) -> String {
        "pingpong".into()
    }
    fn steps(&self) -> usize {
        self.steps
    }
    fn phase(&self, step: usize, _comm: &Communicator) -> Phase {
        // alternate direction each step; zero compute
        let (src, dst) = if step.is_multiple_of(2) {
            (0, 1)
        } else {
            (1, 0)
        };
        Phase {
            compute_gcycles: vec![0.0; _comm.size()],
            messages: vec![Message {
                src,
                dst,
                bytes: self.bytes,
            }],
            collectives: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster_with_profile;
    use nlrm_cluster::ClusterProfile;
    use nlrm_mpi::execute;
    use nlrm_sim_core::time::Duration;
    use nlrm_topology::NodeId;

    fn comm(p: usize, ppn: usize) -> Communicator {
        Communicator::new((0..p).map(|i| NodeId((i / ppn) as u32)).collect())
    }

    fn quiet(n: usize) -> nlrm_cluster::ClusterSim {
        let mut c = small_cluster_with_profile(n, ClusterProfile::quiet(), 9);
        c.advance(Duration::from_secs(30));
        c
    }

    #[test]
    fn compute_only_has_zero_comm() {
        let mut cluster = quiet(2);
        let t = execute(
            &mut cluster,
            &comm(8, 4),
            &ComputeOnly {
                gcycles: 1.0,
                steps: 3,
            },
        );
        assert_eq!(t.comm_s, 0.0);
        assert!(t.compute_s > 0.0);
    }

    #[test]
    fn alltoall_dominates_halo_at_equal_volume() {
        // same per-rank compute; all-to-all moves P−1× more data
        let mut a = quiet(4);
        let mut b = quiet(4);
        let halo = execute(
            &mut a,
            &comm(8, 2),
            &Halo3d {
                gcycles: 0.1,
                face_bytes: 1e5,
                steps: 5,
            },
        );
        let ata = execute(
            &mut b,
            &comm(8, 2),
            &AllToAllHeavy {
                gcycles: 0.1,
                pair_bytes: 1e5,
                steps: 5,
            },
        );
        assert!(
            ata.comm_s > halo.comm_s,
            "halo {} ata {}",
            halo.comm_s,
            ata.comm_s
        );
    }

    #[test]
    fn pingpong_measures_latency_floor() {
        let mut cluster = quiet(2);
        let t = execute(
            &mut cluster,
            &comm(2, 1),
            &PingPong {
                bytes: 8.0,
                steps: 100,
            },
        );
        let per_trip = t.comm_s / 100.0;
        // two access hops at ~50 µs base each, lightly congested
        assert!(per_trip > 5e-5 && per_trip < 5e-3, "per trip {per_trip}");
    }
}
