//! miniMD: a spatial-decomposition molecular-dynamics proxy.
//!
//! Models the Mantevo miniMD application the paper evaluates: an fcc
//! Lennard-Jones box of side `s` (so `4·s³` atoms — `s = 8 → 2 048` atoms,
//! `s = 48 → 442 368`, matching the paper's "2K – 442K atoms"), decomposed
//! over a 3D process grid. Each timestep:
//!
//! * force computation + neighbouring bookkeeping ∝ atoms per rank,
//! * halo exchange on the six subdomain faces (ghost-atom positions out,
//!   forces back — modeled as one round trip of face-sized messages),
//! * a small allreduce for the thermodynamics output.
//!
//! The per-atom cycle cost is calibrated so that on the paper's cluster
//! (GigE, 2.8–4.6 GHz nodes, 4 processes/node) the communication fraction
//! lands in the 40–80% band the authors measured by profiling (§5).

use crate::decomp::Grid3d;
use nlrm_mpi::pattern::{Collective, Message, Phase, Workload};
use nlrm_mpi::Communicator;

/// Bytes carried per ghost atom, one round trip: 3 position doubles out and
/// 3 force doubles back.
const BYTES_PER_GHOST_ATOM: f64 = 48.0;

/// Calibrated per-atom per-step cost in cycles (force kernel + neighbor
/// list amortization). Chosen so compute/step ≈ a few ms at the paper's
/// per-rank atom counts, yielding the measured 40–80% communication share.
const CYCLES_PER_ATOM: f64 = 50_000.0;

/// The miniMD proxy workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniMd {
    /// Box side in lattice cells (`s` in the paper; atoms = 4·s³).
    pub size: u32,
    /// Number of MD timesteps (miniMD's default input runs 100).
    pub steps: usize,
}

impl MiniMd {
    /// A run of the paper's shape: box side `size`, 100 timesteps.
    pub fn new(size: u32) -> Self {
        assert!(size > 0);
        MiniMd { size, steps: 100 }
    }

    /// Override the timestep count.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Total atom count: 4 atoms per fcc cell.
    pub fn atoms(&self) -> f64 {
        4.0 * (self.size as f64).powi(3)
    }

    /// Atoms owned by each rank on `p` processes.
    pub fn atoms_per_rank(&self, p: usize) -> f64 {
        self.atoms() / p as f64
    }

    /// Ghost atoms crossing one face of a rank's subdomain: surface area in
    /// atoms (∝ (atoms/rank)^(2/3)) times a skin factor for the cutoff.
    fn ghost_atoms_per_face(&self, p: usize) -> f64 {
        1.5 * self.atoms_per_rank(p).powf(2.0 / 3.0)
    }
}

impl Workload for MiniMd {
    fn name(&self) -> String {
        format!("miniMD(s={})", self.size)
    }

    fn steps(&self) -> usize {
        self.steps
    }

    fn phase(&self, _step: usize, comm: &Communicator) -> Phase {
        let p = comm.size();
        let grid = Grid3d::for_ranks(p);
        let face_bytes = self.ghost_atoms_per_face(p) * BYTES_PER_GHOST_ATOM;
        let mut messages = Vec::with_capacity(p * 6);
        for rank in 0..p {
            for nb in grid.neighbors(rank) {
                if nb != rank {
                    messages.push(Message {
                        src: rank,
                        dst: nb,
                        bytes: face_bytes,
                    });
                }
            }
        }
        Phase {
            compute_gcycles: vec![self.atoms_per_rank(p) * CYCLES_PER_ATOM / 1e9; p],
            messages,
            // per-step thermo reduction (energy + temperature)
            collectives: vec![Collective::Allreduce { bytes: 16.0 }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_topology::NodeId;

    fn comm(p: usize, ppn: usize) -> Communicator {
        Communicator::new((0..p).map(|i| NodeId((i / ppn) as u32)).collect())
    }

    #[test]
    fn atom_counts_match_paper() {
        assert_eq!(MiniMd::new(8).atoms(), 2048.0); // "2K"
        assert_eq!(MiniMd::new(48).atoms(), 442_368.0); // "442K"
    }

    #[test]
    fn phase_shape_is_consistent() {
        let md = MiniMd::new(16).with_steps(10);
        let c = comm(32, 4);
        let ph = md.phase(0, &c);
        assert_eq!(ph.compute_gcycles.len(), 32);
        // 6 neighbours per rank on a 4×4×2 grid (all extents > 1)
        assert_eq!(ph.messages.len(), 32 * 6);
        assert_eq!(ph.collectives.len(), 1);
    }

    #[test]
    fn work_scales_with_problem_size() {
        let small = MiniMd::new(8);
        let large = MiniMd::new(16);
        let c = comm(8, 4);
        let w_small = small.phase(0, &c).compute_gcycles[0];
        let w_large = large.phase(0, &c).compute_gcycles[0];
        // atoms scale as s³: 8× work
        assert!((w_large / w_small - 8.0).abs() < 1e-9);
    }

    #[test]
    fn strong_scaling_reduces_per_rank_work() {
        let md = MiniMd::new(32);
        let w8 = md.phase(0, &comm(8, 4)).compute_gcycles[0];
        let w64 = md.phase(0, &comm(64, 4)).compute_gcycles[0];
        assert!((w8 / w64 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn halo_messages_shrink_sublinearly() {
        // surface-to-volume: message bytes per rank shrink slower than work
        let md = MiniMd::new(32);
        let m8 = md.phase(0, &comm(8, 4)).messages[0].bytes;
        let m64 = md.phase(0, &comm(64, 4)).messages[0].bytes;
        let ratio = m8 / m64;
        assert!(ratio > 2.0 && ratio < 8.0, "surface ratio {ratio}");
    }
}
