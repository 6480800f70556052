//! Epoch-stamped gossip dissemination with push-pull anti-entropy.
//!
//! In the sharded monitor topology each shard leader owns a small set of
//! *versioned records* (its per-shard aggregates) and disseminates them
//! peer-to-peer instead of funnelling everything through the central
//! master. Every record carries an `(origin, epoch)` version stamp; a peer
//! only ever replaces a record with a strictly newer epoch from the same
//! origin, so stamps never regress no matter how messages are reordered or
//! replayed.
//!
//! One [`GossipNet::round`] models a synchronous gossip round: every live
//! peer contacts `fanout` deterministic targets and runs a push-pull
//! *anti-entropy* exchange — both sides swap compact digests
//! (`origin → epoch`, [`DIGEST_ENTRY_BYTES`] per entry) and then transfer
//! only the records the other side is missing or holds stale. Byte and
//! round accounting flows into the `monitor_gossip_*` obs counters; gossip
//! never writes the shared store, so its traffic can never be double
//! counted as a central publish (`store_publish_bytes_total`).
//!
//! Everything is deterministic: targets come from a seeded splitmix64
//! stream over `(round, peer, attempt)` and peers are processed in index
//! order, so a run replays byte-identically.

use nlrm_sim_core::rng::splitmix64;
use std::collections::BTreeMap;

/// Wire size of one digest entry: a `u32` origin plus a `u64` epoch.
pub const DIGEST_ENTRY_BYTES: u64 = 12;

/// Fixed per-message envelope cost (headers, peer ids) per direction.
pub const MESSAGE_OVERHEAD_BYTES: u64 = 16;

/// A record stamped with its origin peer and a monotonically increasing
/// epoch. Higher epoch always wins; equal epochs are identical by
/// construction (an origin never re-issues an epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct Versioned<T> {
    /// The peer (shard) that issued the record.
    pub origin: u32,
    /// Version stamp; strictly increasing per origin.
    pub epoch: u64,
    /// The record body.
    pub payload: T,
}

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
/// The generic payload `T` is the record body carried next to the version
/// stamp; its wire size is modeled by the constant `record_bytes` given at
/// construction (the monitor uses compact fixed-size shard summaries).
#[derive(Debug, Clone)]
pub struct GossipNet<T> {
    views: Vec<BTreeMap<u32, Versioned<T>>>,
    alive: Vec<bool>,
    fanout: usize,
    seed: u64,
    record_bytes: u64,
    rounds_run: u64,
    total_bytes: u64,
    regressions_rejected: u64,
}

impl<T: Clone> GossipNet<T> {
    /// An overlay of `peers` live peers. `fanout` targets are contacted per
    /// peer per round; `record_bytes` models the wire size of one payload.
    pub fn new(peers: usize, fanout: usize, seed: u64, record_bytes: u64) -> Self {
        assert!(fanout >= 1, "gossip needs fanout >= 1");
        GossipNet {
            views: vec![BTreeMap::new(); peers],
            alive: vec![true; peers],
            fanout,
            seed,
            record_bytes,
            rounds_run: 0,
            total_bytes: 0,
            regressions_rejected: 0,
        }
    }

    /// Mark a peer up or down. A down peer neither initiates nor answers
    /// exchanges; when it comes back its stale view catches up through
    /// anti-entropy.
    pub fn set_alive(&mut self, peer: usize, alive: bool) {
        self.alive[peer] = alive;
    }

    /// Whether `peer` is currently live.
    pub fn is_alive(&self, peer: usize) -> bool {
        self.alive[peer]
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

    /// Publish a new record version at its origin peer. Returns `false`
    /// (and changes nothing) unless `epoch` is strictly newer than the
    /// origin's current stamp — version stamps never regress.
    pub fn publish(&mut self, origin: u32, epoch: u64, payload: T) -> bool {
        let view = &mut self.views[origin as usize];
        if view.get(&origin).is_some_and(|v| v.epoch >= epoch) {
            self.regressions_rejected += 1;
            return false;
        }
        view.insert(
            origin,
            Versioned {
                origin,
                epoch,
                payload,
            },
        );
        true
    }

    /// The copy of `origin`'s record held by `peer`, if any.
    pub fn get(&self, peer: usize, origin: u32) -> Option<&Versioned<T>> {
        self.views[peer].get(&origin)
    }

    /// The digest (`origin → epoch`) of one peer's view.
    pub fn digest(&self, peer: usize) -> BTreeMap<u32, u64> {
        self.views[peer]
            .iter()
            .map(|(&o, v)| (o, v.epoch))
            .collect()
    }

    /// Whether every live peer holds an identical digest (same origins,
    /// same epochs). Vacuously true with fewer than two live peers.
    pub fn converged(&self) -> bool {
        let mut live = self.alive.iter().enumerate().filter(|(_, &a)| a);
        let Some((first, _)) = live.next() else {
            return true;
        };
        let reference = self.digest(first);
        live.all(|(p, _)| self.digest(p) == reference)
    }

    /// Deterministic gossip targets for `peer` this round: up to `fanout`
    /// distinct live peers other than itself.
    fn targets(&self, peer: usize, round: u64) -> Vec<usize> {
        let n = self.views.len();
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
        for peer in 0..self.views.len() {
            if !self.alive[peer] {
                continue;
            }
            for target in self.targets(peer, round) {
                acc.exchanges += 1;
                // push-pull: both digests cross the wire first…
                let digest_bytes = (self.views[peer].len() + self.views[target].len()) as u64
                    * DIGEST_ENTRY_BYTES
                    + 2 * MESSAGE_OVERHEAD_BYTES;
                acc.bytes += digest_bytes;
                // …then each side sends what the other is missing or holds
                // stale. Applied immediately (the round is sequential and
                // deterministic).
                let (updates, bytes) = self.exchange(peer, target);
                acc.updates += updates;
                acc.bytes += bytes;
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

    /// Symmetric record transfer between two peers; returns (updates, bytes).
    fn exchange(&mut self, a: usize, b: usize) -> (u64, u64) {
        let mut updates = 0u64;
        let mut bytes = 0u64;
        for (src, dst) in [(a, b), (b, a)] {
            let missing: Vec<Versioned<T>> = self.views[src]
                .values()
                .filter(|rec| {
                    self.views[dst]
                        .get(&rec.origin)
                        .is_none_or(|have| have.epoch < rec.epoch)
                })
                .cloned()
                .collect();
            for rec in missing {
                bytes += self.record_bytes + DIGEST_ENTRY_BYTES;
                // re-check against the destination (it may have just been
                // updated by the opposite direction of this same exchange)
                let dst_view = &mut self.views[dst];
                if dst_view
                    .get(&rec.origin)
                    .is_none_or(|have| have.epoch < rec.epoch)
                {
                    dst_view.insert(rec.origin, rec);
                    updates += 1;
                }
            }
        }
        (updates, bytes)
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

    fn seeded(peers: usize) -> GossipNet<u32> {
        let mut net = GossipNet::new(peers, 2, 0xABCD, 64);
        for p in 0..peers as u32 {
            assert!(net.publish(p, 1, p * 10));
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
            for origin in 0..12u32 {
                let rec = net.get(p, origin).expect("record disseminated");
                assert_eq!(rec.epoch, 1);
                assert_eq!(rec.payload, origin * 10);
            }
        }
    }

    #[test]
    fn epoch_regression_is_rejected() {
        let mut net: GossipNet<u32> = GossipNet::new(4, 1, 7, 16);
        assert!(net.publish(0, 5, 50));
        assert!(!net.publish(0, 5, 51), "equal epoch must not replace");
        assert!(!net.publish(0, 4, 40), "older epoch must not replace");
        assert_eq!(net.get(0, 0).unwrap().payload, 50);
        assert_eq!(net.regressions_rejected(), 2);
        assert!(net.publish(0, 6, 60));
        assert_eq!(net.get(0, 0).unwrap().epoch, 6);
    }

    #[test]
    fn newer_epoch_overtakes_older_copies_everywhere() {
        let mut net = seeded(6);
        net.run_to_convergence(64);
        assert!(net.publish(3, 2, 999));
        let c = net.run_to_convergence(64);
        assert!(c.converged);
        for p in 0..6 {
            assert_eq!(net.get(p, 3).unwrap().epoch, 2);
            assert_eq!(net.get(p, 3).unwrap().payload, 999);
        }
    }

    #[test]
    fn dead_peer_catches_up_after_revival() {
        let mut net = seeded(8);
        net.set_alive(5, false);
        let c = net.run_to_convergence(64);
        assert!(c.converged, "live peers converge around the dead one");
        // the dead peer saw nothing beyond its own record
        assert_eq!(net.digest(5).len(), 1);
        net.set_alive(5, true);
        let c = net.run_to_convergence(64);
        assert!(c.converged);
        assert_eq!(net.digest(5).len(), 8, "revived peer caught up");
    }

    #[test]
    fn rounds_are_deterministic() {
        let run = || {
            let mut net = seeded(10);
            let c = net.run_to_convergence(64);
            (c.rounds, c.bytes, net.digest(0))
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
}
