//! Per-shard monitor aggregators: the full pair tournament, intra-shard
//! only.
//!
//! The central monitor's latency/bandwidth daemons probe all
//! `V·(V−1)/2` node pairs ([`crate::daemons`]). The sharded topology
//! splits the cluster by switch ([`nlrm_topology::tier::SwitchIndex`]) and
//! runs the tournament *inside* each shard only — `Σ m_s·(m_s−1)/2`
//! pairs, a `~V/m` cut for `m`-node shards — publishing one epoch-stamped
//! [`MonitorRecord::ShardNl`] record per shard. Cross-shard pairs are
//! sampled and inferred separately by [`crate::estimate`].
//!
//! Probe and publish traffic is attributed per shard (the
//! `monitor_shard_*` counters) so the traffic accounting in
//! `BENCH_monitor.json` and the `health_*` gauges can tell shard-local
//! probing apart from gossip relays and central publishes.

use crate::codec::{encode, MonitorRecord};
use crate::estimate::{PairProbe, PAIR_PROBE_BYTES};
use crate::rounds::round_robin_rounds;
use crate::store::{paths, SharedStore};
use nlrm_sim_core::time::SimTime;
use nlrm_topology::tier::SwitchIndex;
use nlrm_topology::NodeId;

/// A compact per-shard aggregate, gossiped between shards so every shard
/// learns the cluster-wide picture without the full matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSummary {
    /// Shard (switch) id.
    pub shard: u32,
    /// Sweep epoch this summary describes.
    pub epoch: u64,
    /// Live members seen this sweep.
    pub live: u32,
    /// Mean intra-shard latency, seconds (0 for shards with < 2 live).
    pub mean_lat_s: f64,
    /// Mean intra-shard available bandwidth, bits/s.
    pub mean_avail_bps: f64,
    /// Probe traffic the sweep cost this shard, bytes.
    pub probe_bytes: u64,
}

impl ShardSummary {
    /// Serialized size of one summary on the gossip wire: shard + live
    /// (4 B each), epoch + probe_bytes (8 B each), two f64 means.
    pub const WIRE_BYTES: u64 = 40;
}

/// Per-shard traffic attribution for one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard (switch) id.
    pub shard: u32,
    /// Live members this sweep.
    pub live: u32,
    /// Intra-shard pairs measured.
    pub pairs: u64,
    /// Probe bytes spent inside the shard.
    pub probe_bytes: u64,
    /// Bytes published to the store by this shard.
    pub publish_bytes: u64,
}

/// Totals for one sharded sweep across all shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSweepReport {
    /// Epoch stamped on every record this sweep.
    pub epoch: u64,
    /// Total intra-shard pairs measured.
    pub pairs: u64,
    /// Total probe bytes.
    pub probe_bytes: u64,
    /// Total store-publish bytes.
    pub publish_bytes: u64,
    /// Tournament rounds needed: the largest shard's `live − 1` (shards
    /// run their tournaments concurrently).
    pub tournament_rounds: u64,
    /// Per-shard attribution, ascending shard id, only shards with ≥ 1
    /// live member.
    pub per_shard: Vec<ShardStats>,
    /// Gossipable per-shard aggregates (same shards as `per_shard`).
    pub summaries: Vec<ShardSummary>,
}

/// Runs the intra-shard pair tournaments and publishes per-shard NL
/// records. One sweeper instance drives every shard in lockstep — in the
/// real system each shard's aggregator runs on a member node; under
/// virtual time the lockstep schedule is equivalent and deterministic.
#[derive(Debug, Clone)]
pub struct ShardSweeper {
    members: Vec<Vec<NodeId>>,
    /// Store path of each shard's NL record.
    paths: Vec<String>,
    epoch: u64,
}

impl ShardSweeper {
    /// A sweeper over the shards of `index`.
    pub fn new(index: &SwitchIndex) -> ShardSweeper {
        let members = (0..index.num_switches())
            .map(|s| index.members(nlrm_topology::SwitchId(s as u32)).to_vec())
            .collect();
        let paths = (0..index.num_switches())
            .map(|s| paths::shard_nl(s as u32))
            .collect();
        ShardSweeper {
            members,
            paths,
            epoch: 0,
        }
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.members.len()
    }

    /// Epoch the next sweep will stamp.
    pub fn next_epoch(&self) -> u64 {
        self.epoch + 1
    }

    /// Run one sweep: probe every live intra-shard pair, publish one
    /// `ShardNl` record per non-empty shard, and return the traffic
    /// report. `alive` filters members; `probe` measures one pair.
    pub fn sweep(
        &mut self,
        now: SimTime,
        store: &SharedStore,
        alive: &mut impl FnMut(NodeId) -> bool,
        probe: &mut impl FnMut(NodeId, NodeId) -> PairProbe,
    ) -> ShardSweepReport {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut report = ShardSweepReport {
            epoch,
            pairs: 0,
            probe_bytes: 0,
            publish_bytes: 0,
            tournament_rounds: 0,
            per_shard: Vec::new(),
            summaries: Vec::new(),
        };
        for (shard, members) in self.members.iter().enumerate() {
            let live: Vec<NodeId> = members.iter().copied().filter(|&n| alive(n)).collect();
            if live.is_empty() {
                continue;
            }
            let m = live.len();
            let pairs = (m * (m - 1) / 2) as u64;
            report.tournament_rounds = report.tournament_rounds.max(m.saturating_sub(1) as u64);
            // the same disjoint-pair tournament schedule the central
            // daemons use, so each round's probes could run concurrently
            let tri_len = m * m.saturating_sub(1) / 2;
            let mut lat_s = vec![0.0; tri_len];
            let mut avail_bps = vec![0.0; tri_len];
            let mut peak_bps = vec![0.0; tri_len];
            let tri = |i: usize, j: usize| i * (2 * m - i - 1) / 2 + j - i - 1;
            let mut lat_sum = 0.0;
            let mut avail_sum = 0.0;
            for round in round_robin_rounds(m) {
                for (i, j) in round {
                    let p = probe(live[i], live[j]);
                    let k = tri(i.min(j), i.max(j));
                    lat_s[k] = p.latency_s;
                    avail_bps[k] = p.avail_bps;
                    peak_bps[k] = p.peak_bps;
                    lat_sum += p.latency_s;
                    avail_sum += p.avail_bps;
                }
            }
            let probe_bytes = pairs * PAIR_PROBE_BYTES;
            let record = encode(&MonitorRecord::ShardNl {
                shard: shard as u32,
                epoch,
                taken_at: now,
                members: live.clone(),
                lat_s,
                avail_bps,
                peak_bps,
                probe_bytes,
            });
            let publish_bytes = record.len() as u64;
            store.put(&self.paths[shard], now, record);
            report.pairs += pairs;
            report.probe_bytes += probe_bytes;
            report.publish_bytes += publish_bytes;
            report.per_shard.push(ShardStats {
                shard: shard as u32,
                live: m as u32,
                pairs,
                probe_bytes,
                publish_bytes,
            });
            report.summaries.push(ShardSummary {
                shard: shard as u32,
                epoch,
                live: m as u32,
                mean_lat_s: if pairs > 0 {
                    lat_sum / pairs as f64
                } else {
                    0.0
                },
                mean_avail_bps: if pairs > 0 {
                    avail_sum / pairs as f64
                } else {
                    0.0
                },
                probe_bytes,
            });
        }
        if nlrm_obs::ctx::is_active() {
            nlrm_obs::ctx::add("monitor_pair_measurements_total", report.pairs);
            nlrm_obs::ctx::add("monitor_probe_bytes_total", report.probe_bytes);
            for s in &report.per_shard {
                nlrm_obs::ctx::add(
                    &format!("monitor_shard_probe_bytes_total_{}", s.shard),
                    s.probe_bytes,
                );
                nlrm_obs::ctx::add(
                    &format!("monitor_shard_publish_bytes_total_{}", s.shard),
                    s.publish_bytes,
                );
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode;

    fn probe_fn() -> impl FnMut(NodeId, NodeId) -> PairProbe {
        |u: NodeId, v: NodeId| PairProbe {
            latency_s: 1e-5 * (u.0 + v.0) as f64,
            avail_bps: 1e9 - 1e3 * (u.0 * v.0) as f64,
            peak_bps: 1e9,
        }
    }

    #[test]
    fn sweep_measures_only_intra_shard_pairs() {
        let idx = SwitchIndex::uniform(12, 4);
        let mut sweeper = ShardSweeper::new(&idx);
        let store = SharedStore::new();
        let mut probed = Vec::new();
        let mut probe = |u: NodeId, v: NodeId| {
            probed.push((u, v));
            PairProbe {
                latency_s: 1e-4,
                avail_bps: 9e8,
                peak_bps: 1e9,
            }
        };
        let report = sweeper.sweep(SimTime::from_secs(60), &store, &mut |_| true, &mut probe);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.pairs, 3 * 6, "3 shards × C(4,2) pairs");
        assert_eq!(report.tournament_rounds, 3);
        for (u, v) in &probed {
            assert!(idx.same_switch(*u, *v), "{u:?}–{v:?} crosses shards");
        }
        assert_eq!(report.probe_bytes, 18 * PAIR_PROBE_BYTES);
        assert_eq!(store.list_prefix("shard/").len(), 3);
    }

    #[test]
    fn published_records_decode_with_sweep_epoch() {
        let idx = SwitchIndex::uniform(6, 3);
        let mut sweeper = ShardSweeper::new(&idx);
        let store = SharedStore::new();
        sweeper.sweep(
            SimTime::from_secs(60),
            &store,
            &mut |_| true,
            &mut probe_fn(),
        );
        sweeper.sweep(
            SimTime::from_secs(120),
            &store,
            &mut |_| true,
            &mut probe_fn(),
        );
        let rec = store.get(&paths::shard_nl(1)).unwrap();
        let MonitorRecord::ShardNl {
            shard,
            epoch,
            members,
            lat_s,
            ..
        } = decode(&rec.data).unwrap()
        else {
            panic!("wrong record type");
        };
        assert_eq!(shard, 1);
        assert_eq!(epoch, 2, "second sweep overwrites with epoch 2");
        assert_eq!(members, vec![NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(lat_s.len(), 3);
        // pair (0,1) of members = nodes 3,4
        assert_eq!(lat_s[0], 1e-5 * 7.0);
    }

    #[test]
    fn dead_members_are_excluded() {
        let idx = SwitchIndex::uniform(8, 4);
        let mut sweeper = ShardSweeper::new(&idx);
        let store = SharedStore::new();
        let mut alive = |n: NodeId| n.0 != 1 && n.0 != 5;
        let report = sweeper.sweep(SimTime::from_secs(60), &store, &mut alive, &mut probe_fn());
        assert_eq!(report.pairs, 2 * 3, "each shard has 3 live → C(3,2)");
        assert_eq!(report.per_shard[0].live, 3);
        for s in &report.summaries {
            assert_eq!(s.live, 3);
        }
    }

    #[test]
    fn per_shard_attribution_sums_to_totals() {
        let idx = SwitchIndex::uniform(20, 6);
        let mut sweeper = ShardSweeper::new(&idx);
        let store = SharedStore::new();
        let report = sweeper.sweep(
            SimTime::from_secs(60),
            &store,
            &mut |_| true,
            &mut probe_fn(),
        );
        assert_eq!(
            report.per_shard.iter().map(|s| s.probe_bytes).sum::<u64>(),
            report.probe_bytes
        );
        assert_eq!(
            report
                .per_shard
                .iter()
                .map(|s| s.publish_bytes)
                .sum::<u64>(),
            report.publish_bytes
        );
        assert_eq!(
            report.per_shard.iter().map(|s| s.pairs).sum::<u64>(),
            report.pairs
        );
    }

    #[test]
    fn empty_shards_publish_nothing() {
        let idx = SwitchIndex::from_assignment(
            vec![
                nlrm_topology::SwitchId(1),
                nlrm_topology::SwitchId(1),
                nlrm_topology::SwitchId(2),
                nlrm_topology::SwitchId(2),
            ],
            3,
        );
        let mut sweeper = ShardSweeper::new(&idx);
        let store = SharedStore::new();
        let report = sweeper.sweep(
            SimTime::from_secs(60),
            &store,
            &mut |_| true,
            &mut probe_fn(),
        );
        assert!(
            store.get(&paths::shard_nl(0)).is_none(),
            "router shard empty"
        );
        assert_eq!(report.per_shard.len(), 2);
    }
}
