//! Epoch-stamped gossip dissemination with push-pull anti-entropy.
//!
//! In the sharded monitor topology each shard leader stamps its sweeps
//! with an `(origin, epoch)` version and disseminates the stamps
//! peer-to-peer instead of funnelling everything through the central
//! master. A peer only ever replaces an origin's epoch with a strictly
//! newer one, so stamps never regress no matter how messages are
//! reordered or replayed. The allocation chain reads the shared store,
//! never a gossip view, so a view holds the epochs alone: one row of
//! `S` epochs per peer (0 for an origin it has not heard of), the
//! version vectors of anti-entropy as Demers et al. describe it
//! (PODC 1987).
//!
//! One [`GossipNet::round`] models a synchronous gossip round: every live
//! peer contacts `fanout` deterministic targets and runs a push-pull
//! *anti-entropy* exchange — both sides swap compact digests
//! (`origin → epoch`, [`DIGEST_ENTRY_BYTES`] per known origin) and then
//! transfer only the records the other side is missing or holds stale,
//! each priced as a [`RECORD_BYTES`] record plus its digest entry. Byte
//! and round accounting flows into the `monitor_gossip_*` obs counters;
//! gossip never writes the shared store, so its traffic can never be
//! double counted as a central publish (`store_publish_bytes_total`).
//!
//! Everything is deterministic: targets come from a seeded splitmix64
//! stream over `(round, peer, attempt)` and peers are processed in index
//! order, so a run replays byte-identically.

use nlrm_sim_core::rng::splitmix64;

/// Wire size of one digest entry: a `u32` origin plus a `u64` epoch.
pub const DIGEST_ENTRY_BYTES: u64 = 12;

/// Fixed per-message envelope cost (headers, peer ids) per direction.
pub const MESSAGE_OVERHEAD_BYTES: u64 = 16;

/// Modelled wire size of one gossiped shard record: shard id and live
/// count (4 B each), sweep epoch and probe bytes (8 B each), and the
/// shard's mean latency and available bandwidth (two f64s).
pub const RECORD_BYTES: u64 = 40;

/// Accounting for one gossip round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipRound {
    /// Total bytes moved this round (digests + transferred records +
    /// message overheads).
    pub bytes: u64,
    /// Pairwise exchanges performed.
    pub exchanges: u64,
    /// Records applied (strictly newer than the receiver's copy).
    pub updates: u64,
}

/// Result of [`GossipNet::run_to_convergence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Convergence {
    /// Rounds executed (including the final converged-check round).
    pub rounds: u64,
    /// Total bytes across those rounds.
    pub bytes: u64,
    /// Whether all live peers agreed within the round budget.
    pub converged: bool,
}

/// A simulated gossip overlay of `peers` shard leaders.
///
/// Each peer's view is one `peers`-long row of `epochs`: the newest
/// epoch it holds for every origin, 0 for an origin it has not heard
/// of. `known[p]` counts the nonzero entries of row `p`, which is the
/// length of the digest it sends.
#[derive(Debug, Clone)]
pub struct GossipNet {
    epochs: Vec<u64>,
    known: Vec<u64>,
    alive: Vec<bool>,
    fanout: usize,
    seed: u64,
    rounds_run: u64,
    total_bytes: u64,
    regressions_rejected: u64,
}

impl GossipNet {
    /// An overlay of `peers` live peers. `fanout` targets are contacted per
    /// peer per round.
    pub fn new(peers: usize, fanout: usize, seed: u64) -> Self {
        assert!(fanout >= 1, "gossip needs fanout >= 1");
        GossipNet {
            epochs: vec![0; peers * peers],
            known: vec![0; peers],
            alive: vec![true; peers],
            fanout,
            seed,
            rounds_run: 0,
            total_bytes: 0,
            regressions_rejected: 0,
        }
    }

    fn peers(&self) -> usize {
        self.alive.len()
    }

    /// Mark a peer up or down. A down peer neither initiates nor answers
    /// exchanges; when it comes back its stale view catches up through
    /// anti-entropy.
    pub fn set_alive(&mut self, peer: usize, alive: bool) {
        self.alive[peer] = alive;
    }

    /// Number of live peers.
    pub fn live_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Rounds executed so far.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Total bytes moved so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Publishes rejected because their epoch did not advance.
    pub fn regressions_rejected(&self) -> u64 {
        self.regressions_rejected
    }

    /// Publish a new epoch at its origin peer. Returns `false` (and
    /// changes nothing) unless `epoch` is strictly newer than the
    /// origin's current stamp — version stamps never regress, and epoch
    /// 0, the unknown marker, is never newer.
    pub fn publish(&mut self, origin: u32, epoch: u64) -> bool {
        let o = origin as usize;
        let n = self.peers();
        let have = &mut self.epochs[o * n + o];
        if *have >= epoch {
            self.regressions_rejected += 1;
            return false;
        }
        if *have == 0 {
            self.known[o] += 1;
        }
        *have = epoch;
        true
    }

    /// `peer`'s view: the epoch it holds for each origin, 0 for unknown.
    pub fn epochs(&self, peer: usize) -> &[u64] {
        let n = self.peers();
        &self.epochs[peer * n..(peer + 1) * n]
    }

    /// Whether every live peer holds an identical view (same origins,
    /// same epochs). Vacuously true with fewer than two live peers.
    pub fn converged(&self) -> bool {
        let mut live = (0..self.peers()).filter(|&p| self.alive[p]);
        let Some(first) = live.next() else {
            return true;
        };
        let reference = self.epochs(first);
        live.all(|p| self.epochs(p) == reference)
    }

    /// Deterministic gossip targets for `peer` this round: up to `fanout`
    /// distinct live peers other than itself.
    fn targets(&self, peer: usize, round: u64) -> Vec<usize> {
        let n = self.peers();
        let mut out = Vec::with_capacity(self.fanout);
        let mut attempt = 0u64;
        // bounded scan: enough attempts to find distinct live targets with
        // overwhelming probability, but never an unbounded loop
        while out.len() < self.fanout && attempt < (self.fanout as u64 + 8) * 4 {
            let h = splitmix64(
                self.seed ^ round.wrapping_mul(0x9e37_79b9) ^ ((peer as u64) << 20) ^ attempt,
            );
            let t = (h % n as u64) as usize;
            if t != peer && self.alive[t] && !out.contains(&t) {
                out.push(t);
            }
            attempt += 1;
        }
        out
    }

    /// Run one synchronous gossip round over all live peers and account the
    /// traffic into the `monitor_gossip_*` obs counters.
    pub fn round(&mut self) -> GossipRound {
        let round = self.rounds_run;
        let mut acc = GossipRound::default();
        for peer in 0..self.peers() {
            if !self.alive[peer] {
                continue;
            }
            for target in self.targets(peer, round) {
                acc.exchanges += 1;
                // push-pull: both digests cross the wire first…
                acc.bytes += (self.known[peer] + self.known[target]) * DIGEST_ENTRY_BYTES
                    + 2 * MESSAGE_OVERHEAD_BYTES;
                // …then each side sends what the other is missing or holds
                // stale. Applied immediately (the round is sequential and
                // deterministic).
                let updates = self.exchange(peer, target);
                acc.updates += updates;
                acc.bytes += updates * (RECORD_BYTES + DIGEST_ENTRY_BYTES);
            }
        }
        self.rounds_run += 1;
        self.total_bytes += acc.bytes;
        nlrm_obs::ctx::inc("monitor_gossip_rounds_total");
        nlrm_obs::ctx::add("monitor_gossip_bytes_total", acc.bytes);
        nlrm_obs::ctx::add("monitor_gossip_updates_total", acc.updates);
        nlrm_obs::ctx::set_gauge("monitor_gossip_round_bytes", acc.bytes as f64);
        acc
    }

    /// Symmetric transfer between two distinct peers: every origin ends
    /// at the larger of the two epochs on both sides. Returns the
    /// records moved.
    fn exchange(&mut self, a: usize, b: usize) -> u64 {
        let n = self.peers();
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.epochs.split_at_mut(hi * n);
        let (row_lo, row_hi) = (&mut head[lo * n..(lo + 1) * n], &mut tail[..n]);
        let (mut updates, mut gained_lo, mut gained_hi) = (0, 0, 0);
        for (x, y) in row_lo.iter_mut().zip(row_hi.iter_mut()) {
            if *x == *y {
                continue;
            }
            updates += 1;
            if *x < *y {
                gained_lo += u64::from(*x == 0);
                *x = *y;
            } else {
                gained_hi += u64::from(*y == 0);
                *y = *x;
            }
        }
        self.known[lo] += gained_lo;
        self.known[hi] += gained_hi;
        updates
    }

    /// Run rounds until all live peers agree or `max_rounds` is exhausted.
    pub fn run_to_convergence(&mut self, max_rounds: u64) -> Convergence {
        let mut rounds = 0u64;
        let mut bytes = 0u64;
        while rounds < max_rounds {
            if self.converged() {
                nlrm_obs::ctx::set_gauge("monitor_gossip_convergence_rounds", rounds as f64);
                return Convergence {
                    rounds,
                    bytes,
                    converged: true,
                };
            }
            bytes += self.round().bytes;
            rounds += 1;
        }
        let converged = self.converged();
        if converged {
            nlrm_obs::ctx::set_gauge("monitor_gossip_convergence_rounds", rounds as f64);
        }
        Convergence {
            rounds,
            bytes,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(peers: usize) -> GossipNet {
        let mut net = GossipNet::new(peers, 2, 0xABCD);
        for p in 0..peers as u32 {
            assert!(net.publish(p, 1));
        }
        net
    }

    #[test]
    fn all_peers_converge_on_every_record() {
        let mut net = seeded(12);
        let c = net.run_to_convergence(64);
        assert!(c.converged, "did not converge in {} rounds", c.rounds);
        assert!(c.rounds >= 1 && c.rounds < 64);
        for p in 0..12 {
            assert_eq!(
                net.epochs(p),
                [1; 12],
                "peer {p} holds every origin at epoch 1"
            );
        }
    }

    #[test]
    fn epoch_regression_is_rejected() {
        let mut net = GossipNet::new(4, 1, 7);
        assert!(!net.publish(0, 0), "epoch 0 is the unknown marker");
        assert_eq!(net.epochs(0)[0], 0);
        assert!(net.publish(0, 5));
        assert!(!net.publish(0, 5), "equal epoch must not replace");
        assert!(!net.publish(0, 4), "older epoch must not replace");
        assert!(!net.publish(0, 0), "epoch 0 never replaces a known origin");
        assert_eq!(net.epochs(0)[0], 5);
        assert_eq!(net.regressions_rejected(), 4);
        assert!(net.publish(0, 6));
        assert_eq!(net.epochs(0)[0], 6);
    }

    #[test]
    fn newer_epoch_overtakes_older_copies_everywhere() {
        let mut net = seeded(6);
        net.run_to_convergence(64);
        assert!(net.publish(3, 2));
        let c = net.run_to_convergence(64);
        assert!(c.converged);
        for p in 0..6 {
            assert_eq!(net.epochs(p), [1, 1, 1, 2, 1, 1]);
        }
    }

    #[test]
    fn dead_peer_catches_up_after_revival() {
        let mut net = seeded(8);
        net.set_alive(5, false);
        let c = net.run_to_convergence(64);
        assert!(c.converged, "live peers converge around the dead one");
        // the dead peer saw nothing beyond its own record
        assert_eq!(net.epochs(5), [0, 0, 0, 0, 0, 1, 0, 0]);
        net.set_alive(5, true);
        let c = net.run_to_convergence(64);
        assert!(c.converged);
        assert_eq!(net.epochs(5), [1; 8], "revived peer caught up");
    }

    #[test]
    fn rounds_are_deterministic() {
        let run = || {
            let mut net = seeded(10);
            let c = net.run_to_convergence(64);
            (c.rounds, c.bytes, net.epochs(0).to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bytes_accounting_is_positive_and_bounded() {
        let mut net = seeded(5);
        let r = net.round();
        assert!(r.bytes > 0);
        assert!(r.exchanges >= net.live_count() as u64);
        // a fully converged net still pays digests but moves no records
        net.run_to_convergence(64);
        let r = net.round();
        assert_eq!(r.updates, 0);
        assert!(r.bytes > 0, "anti-entropy digests still flow");
    }

    /// Per-round `(bytes, updates, exchanges, converged)` of a seeded
    /// 200-peer scenario with the runtime's gossip seed: peer 0 is dead
    /// throughout, a rotating seventeenth of the others is down in each
    /// of the first nine rounds, every live-capable peer publishes epoch
    /// 1 before round 0 and every even one epoch 2 before round 4. The
    /// table was captured from the payload-carrying `BTreeMap` views this
    /// design replaced, so any change to target selection, apply order
    /// or byte accounting shows here.
    #[test]
    fn round_trace_is_golden() {
        const PEERS: usize = 200;
        const GOLDEN: [(u64, u64, u64, bool); 12] = [
            (545408, 8007, 376, false),
            (2231872, 24092, 376, false),
            (2021456, 6565, 374, false),
            (1826408, 718, 374, true),
            (2005952, 4000, 374, false),
            (2398480, 11544, 374, false),
            (2000832, 3712, 376, false),
            (1826216, 354, 376, false),
            (1798816, 12, 374, true),
            (1913584, 0, 398, true),
            (1913584, 0, 398, true),
            (1913584, 0, 398, true),
        ];
        let mut net = GossipNet::new(PEERS, 2, 0x5ea1_ab1e);
        net.set_alive(0, false);
        let mut trace = Vec::new();
        for round in 0..12u64 {
            for p in 1..PEERS {
                net.set_alive(p, round >= 9 || !(p as u64 + 3 * round).is_multiple_of(17));
            }
            if round == 0 {
                for p in 1..PEERS as u32 {
                    net.publish(p, 1);
                }
            }
            if round == 4 {
                for p in (2..PEERS as u32).step_by(2) {
                    net.publish(p, 2);
                }
            }
            let r = net.round();
            trace.push((r.bytes, r.updates, r.exchanges, net.converged()));
        }
        assert_eq!(trace, GOLDEN);
    }
}
