//! miniFE: an implicit finite-element proxy.
//!
//! Models the Mantevo miniFE application (§5 of the paper): a brick-shaped
//! domain of `nx × ny × nz` hexahedral elements — the paper sets
//! `ny = nz = nx` — assembled into a 27-point sparse system and solved with
//! CG. Each CG iteration is:
//!
//! * an SpMV over the rank's rows (≈ `(nx+1)³ / P` rows, 27 nonzeros each)
//!   plus the AXPY/precondition vector work,
//! * a halo exchange of boundary rows on the six subdomain faces,
//! * two dot-product allreduces (8 bytes each) — the latency-bound part
//!   that makes miniFE sensitive to the allocation's pairwise latency.
//!
//! A one-off assembly phase precedes the solve. Cost constants are
//! calibrated for the paper's 25–60% communication share (≈40% at 48
//! processes).

use crate::decomp::Grid3d;
use nlrm_mpi::pattern::{Collective, Message, Phase, Workload};
use nlrm_mpi::Communicator;

/// Cycles per matrix row per CG iteration (27-pt SpMV + vector ops).
const CYCLES_PER_ROW: f64 = 700.0;

/// Assembly cost relative to one CG iteration.
const ASSEMBLY_ITER_EQUIV: f64 = 10.0;

/// Bytes per boundary-face row exchanged in the halo (one double + index).
const BYTES_PER_FACE_ROW: f64 = 12.0;

/// The miniFE proxy workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniFe {
    /// Elements per dimension (`nx`; the paper uses `ny = nz = nx`).
    pub nx: u32,
    /// CG iterations (miniFE's default cap is 200).
    pub iterations: usize,
}

impl MiniFe {
    /// A solve of the paper's shape: `nx³` elements, 200 CG iterations.
    pub fn new(nx: u32) -> Self {
        assert!(nx > 0);
        MiniFe {
            nx,
            iterations: 200,
        }
    }

    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Total matrix rows: one per mesh node, `(nx+1)³`.
    pub fn rows(&self) -> f64 {
        ((self.nx + 1) as f64).powi(3)
    }

    /// Rows owned per rank.
    pub fn rows_per_rank(&self, p: usize) -> f64 {
        self.rows() / p as f64
    }

    /// Boundary rows on one face of a rank's subdomain.
    fn face_rows(&self, p: usize) -> f64 {
        self.rows_per_rank(p).powf(2.0 / 3.0)
    }
}

impl Workload for MiniFe {
    fn name(&self) -> String {
        format!("miniFE(nx={})", self.nx)
    }

    fn steps(&self) -> usize {
        // step 0 is assembly; the rest are CG iterations
        self.iterations + 1
    }

    fn phase(&self, step: usize, comm: &Communicator) -> Phase {
        let p = comm.size();
        let iter_gcycles = self.rows_per_rank(p) * CYCLES_PER_ROW / 1e9;
        if step == 0 {
            // assembly: pure compute, then one barrier
            return Phase {
                compute_gcycles: vec![iter_gcycles * ASSEMBLY_ITER_EQUIV; p],
                messages: Vec::new(),
                collectives: vec![Collective::Barrier],
            };
        }
        let grid = Grid3d::for_ranks(p);
        let face_bytes = self.face_rows(p) * BYTES_PER_FACE_ROW;
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
            compute_gcycles: vec![iter_gcycles; p],
            messages,
            // the two CG dot products
            collectives: vec![
                Collective::Allreduce { bytes: 8.0 },
                Collective::Allreduce { bytes: 8.0 },
            ],
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
    fn row_counts() {
        assert_eq!(MiniFe::new(48).rows(), 117_649.0); // 49³
        assert_eq!(MiniFe::new(96).rows(), 912_673.0); // 97³
    }

    #[test]
    fn assembly_phase_is_compute_heavy() {
        let fe = MiniFe::new(48).with_iterations(5);
        let c = comm(8, 4);
        let assembly = fe.phase(0, &c);
        let iter = fe.phase(1, &c);
        assert!(assembly.messages.is_empty());
        assert!(
            assembly.compute_gcycles[0] > iter.compute_gcycles[0] * 5.0,
            "assembly should dominate a single iteration"
        );
    }

    #[test]
    fn iterations_have_two_dot_products() {
        let fe = MiniFe::new(48);
        let ph = fe.phase(1, &comm(16, 4));
        assert_eq!(ph.collectives.len(), 2);
        assert!(matches!(
            ph.collectives[0],
            Collective::Allreduce { bytes } if bytes == 8.0
        ));
    }

    #[test]
    fn steps_count_includes_assembly() {
        let fe = MiniFe::new(48).with_iterations(7);
        assert_eq!(fe.steps(), 8);
    }

    #[test]
    fn work_scales_with_nx_cubed() {
        let a = MiniFe::new(48);
        let b = MiniFe::new(96);
        let c = comm(8, 4);
        let ratio = b.phase(1, &c).compute_gcycles[0] / a.phase(1, &c).compute_gcycles[0];
        // (97/49)³ ≈ 7.76
        assert!(
            (ratio - (97.0f64 / 49.0).powi(3)).abs() < 0.01,
            "ratio {ratio}"
        );
    }
}
