//! The workload language: what an application does in each timestep.

use crate::comm::Communicator;

/// A point-to-point message between ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: f64,
}

/// A collective operation over the whole communicator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Collective {
    /// Allreduce of `bytes` per rank (recursive doubling).
    Allreduce {
        /// Per-rank contribution size.
        bytes: f64,
    },
    /// Broadcast of `bytes` from `root` (binomial tree).
    Bcast {
        /// Root rank.
        root: usize,
        /// Payload size.
        bytes: f64,
    },
    /// Barrier (a zero-payload allreduce in practice).
    Barrier,
    /// All-to-all with `bytes` exchanged per rank pair (pairwise exchange).
    AllToAll {
        /// Per-pair payload size.
        bytes: f64,
    },
}

impl Collective {
    /// Stable lower-case operation name, used in trace span attributes.
    pub fn label(&self) -> &'static str {
        match self {
            Collective::Allreduce { .. } => "allreduce",
            Collective::Bcast { .. } => "bcast",
            Collective::Barrier => "barrier",
            Collective::AllToAll { .. } => "alltoall",
        }
    }
}

/// One bulk-synchronous timestep: per-rank compute work, then P2P
/// messages (concurrent), then collectives (in order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Phase {
    /// Compute work per rank, in Gcycles (time on a free core =
    /// `work / freq_ghz` seconds).
    pub compute_gcycles: Vec<f64>,
    /// Concurrent point-to-point messages.
    pub messages: Vec<Message>,
    /// Collectives executed after the P2P exchange.
    pub collectives: Vec<Collective>,
}

impl Phase {
    /// A phase with uniform compute work and no communication.
    pub fn compute_only(ranks: usize, gcycles: f64) -> Phase {
        Phase {
            compute_gcycles: vec![gcycles; ranks],
            messages: Vec::new(),
            collectives: Vec::new(),
        }
    }

    /// Total bytes moved by P2P messages.
    pub fn p2p_bytes(&self) -> f64 {
        self.messages.iter().map(|m| m.bytes).sum()
    }
}

/// An application: a named sequence of phases parameterized by the
/// communicator it runs on.
pub trait Workload {
    /// Display name (used in reports).
    fn name(&self) -> String;

    /// Number of timesteps.
    fn steps(&self) -> usize;

    /// The phase executed at `step` on `comm`.
    fn phase(&self, step: usize, comm: &Communicator) -> Phase;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_only_shape() {
        let p = Phase::compute_only(4, 2.5);
        assert_eq!(p.compute_gcycles, vec![2.5; 4]);
        assert!(p.messages.is_empty());
        assert_eq!(p.p2p_bytes(), 0.0);
    }

    #[test]
    fn p2p_bytes_sums() {
        let p = Phase {
            compute_gcycles: vec![0.0; 2],
            messages: vec![
                Message {
                    src: 0,
                    dst: 1,
                    bytes: 100.0,
                },
                Message {
                    src: 1,
                    dst: 0,
                    bytes: 50.0,
                },
            ],
            collectives: vec![],
        };
        assert_eq!(p.p2p_bytes(), 150.0);
    }
}
