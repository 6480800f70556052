//! Property-based tests for the monitoring layer: the store codec, typed
//! publish with encode-on-read, the tournament scheduler, the symmetric
//! matrices, gossip anti-entropy, and the landmark estimator's error
//! bounds.

use nlrm_cluster::NodeSpec;
use nlrm_monitor::codec::{decode, encode, encoded_len, MonitorRecord};
use nlrm_monitor::rounds::round_robin_rounds;
use nlrm_monitor::runtime::{DaemonKind, FaultTarget, MonitorFaultPlan};
use nlrm_monitor::sample::{LatencyStat, NodeSample};
use nlrm_monitor::store::paths;
use nlrm_monitor::{GossipNet, MonitorRuntime, NlEstimator, PairProbe, SharedStore, SymMatrix};
use nlrm_sim_core::fault::FaultAction;
use nlrm_sim_core::time::Duration;
use nlrm_sim_core::time::SimTime;
use nlrm_sim_core::window::WindowedValue;
use nlrm_topology::NodeId;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn arb_windowed() -> impl Strategy<Value = WindowedValue> {
    (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6).prop_map(|(instant, m1, m5, m15)| {
        WindowedValue {
            instant,
            m1,
            m5,
            m15,
        }
    })
}

fn arb_sample() -> impl Strategy<Value = NodeSample> {
    (
        0u32..1000,
        0u64..1_000_000,
        "[a-z]{1,16}",
        (1u32..256, 0.1f64..10.0, 1.0f64..1024.0),
        arb_windowed(),
        arb_windowed(),
        arb_windowed(),
        arb_windowed(),
        0u32..100,
    )
        .prop_map(
            |(node, t, hostname, (cores, freq, mem), cpu_load, cpu_util, mem_used, flow, users)| {
                NodeSample {
                    node: NodeId(node),
                    taken_at: SimTime::from_micros(t),
                    spec: Arc::new(NodeSpec {
                        hostname,
                        cores,
                        freq_ghz: freq,
                        total_mem_gb: mem,
                    }),
                    cpu_load,
                    cpu_util,
                    mem_used_frac: mem_used,
                    flow_rate_mbps: flow,
                    users,
                }
            },
        )
}

fn arb_record() -> impl Strategy<Value = MonitorRecord> {
    prop_oneof![
        proptest::collection::vec(0u32..512, 0..64)
            .prop_map(|v| MonitorRecord::Livehosts(v.into_iter().map(NodeId).collect())),
        arb_sample().prop_map(MonitorRecord::Sample),
        (
            0u32..64,
            proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 0..64)
        )
            .prop_map(|(node, stats)| MonitorRecord::LatencyRow {
                node: NodeId(node),
                stats: stats
                    .into_iter()
                    .map(|(instant, m1, m5)| LatencyStat { instant, m1, m5 })
                    .collect(),
            }),
        (0u32..64, proptest::collection::vec(0.0f64..1e10, 0..64)).prop_map(|(node, bw)| {
            MonitorRecord::BandwidthRow {
                node: NodeId(node),
                peak_bps: bw.iter().map(|b| b * 1.5).collect(),
                avail_bps: bw,
            }
        }),
        ("[a-z]{1,12}", 0u32..100, 0u64..1_000_000).prop_map(|(role, inc, at)| {
            MonitorRecord::Heartbeat {
                role,
                incarnation: inc,
                at: SimTime::from_micros(at),
            }
        }),
    ]
}

proptest! {
    /// Every record round-trips through the codec bit-exactly.
    #[test]
    fn codec_roundtrip(record in arb_record()) {
        let bytes = encode(&record);
        let back = decode(&bytes).expect("decode");
        prop_assert_eq!(back, record);
    }

    /// Truncating an encoded record at any point yields an error, never a
    /// panic or a silently wrong record.
    #[test]
    fn codec_truncation_is_detected(record in arb_record(), cut_frac in 0.0f64..1.0) {
        let bytes = encode(&record);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }

    /// A typed publish reads back as exactly `encode(record)`, on the first
    /// `get` and every later one, whether the path's previous record was
    /// read or replaced unread, and a typed read returns the record itself;
    /// the publish counters add up `encoded_len`.
    #[test]
    fn store_publish_reads_back_the_encoding(
        writes in proptest::collection::vec((arb_record(), 0usize..3, 0u8..2), 1..12),
    ) {
        let obs = nlrm_obs::Obs::new();
        let _g = nlrm_obs::install(&obs);
        let store = SharedStore::new();
        let mut latest: HashMap<String, MonitorRecord> = HashMap::new();
        let mut bytes = 0u64;
        for (i, (record, slot, read)) in writes.iter().enumerate() {
            let path = format!("nodestate/{slot}");
            let len = store.publish(&path, SimTime::from_secs(i as u64), record.clone());
            prop_assert_eq!(len, encoded_len(record) as u64);
            bytes += len;
            if *read == 1 {
                let first = store.get(&path).expect("published").data;
                prop_assert_eq!(&first[..], &encode(record)[..]);
                let again = store.get(&path).expect("published").data;
                prop_assert_eq!(&again[..], &first[..]);
            }
            latest.insert(path, record.clone());
        }
        for (path, record) in &latest {
            let typed = store.record(path).expect("published").1.expect("typed");
            prop_assert_eq!(&typed, record);
            prop_assert_eq!(&store.get(path).expect("published").data[..], &encode(record)[..]);
            // once encoded, a typed read decodes the stored bytes
            let typed = store.record(path).expect("published").1.expect("decodes");
            prop_assert_eq!(&typed, record);
        }
        prop_assert_eq!(obs.metrics.counter_value("store_publish_total"), writes.len() as u64);
        prop_assert_eq!(obs.metrics.counter_value("store_publish_bytes_total"), bytes);
    }

    /// A muted daemon keeps sampling but withholds its writes: the record
    /// already at its path keeps its bytes and write time.
    #[test]
    fn muted_writer_leaves_the_previous_record(record in arb_record()) {
        let mut cluster = nlrm_cluster::iitk::small_cluster(3, 7);
        let mut rt = MonitorRuntime::new(&cluster);
        let mut plan = MonitorFaultPlan::new();
        plan.schedule(
            SimTime::from_secs(1),
            FaultTarget::Daemon(DaemonKind::Livehosts),
            FaultAction::Delay(Duration::from_secs(600)),
        );
        rt.set_fault_plan(plan);
        rt.run_until(&mut cluster, SimTime::from_secs(5));
        let at = SimTime::from_secs(5);
        rt.store().publish(paths::LIVEHOSTS, at, record.clone());
        // three muted livehosts ticks, too few for supervision to call
        // the record stale and relaunch the daemon
        rt.run_until(&mut cluster, SimTime::from_secs(30));
        let kept = rt.store().get(paths::LIVEHOSTS).expect("still there");
        prop_assert_eq!(kept.written_at, at);
        prop_assert_eq!(&kept.data[..], &encode(&record)[..]);
    }

    /// Random byte soup never panics the decoder.
    #[test]
    fn codec_rejects_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes); // must not panic; result may be Ok by chance
    }

    /// Tournament schedule: disjoint pairs per round, every pair exactly once.
    #[test]
    fn tournament_invariants(n in 0usize..40) {
        let rounds = round_robin_rounds(n);
        let mut all = HashSet::new();
        for round in &rounds {
            let mut in_round = HashSet::new();
            for &(a, b) in round {
                prop_assert!(a < b && b < n);
                prop_assert!(in_round.insert(a) && in_round.insert(b));
                prop_assert!(all.insert((a, b)));
            }
        }
        prop_assert_eq!(all.len(), n.saturating_sub(1) * n / 2);
    }

    /// Gossip anti-entropy converges within a bounded round budget for
    /// random overlay sizes, fanouts, seeds, and fault plans: every live
    /// peer ends up holding every live origin's record at its published
    /// epoch, even after killing peers mid-run and reviving them.
    #[test]
    fn gossip_converges_within_bounded_rounds(
        peers in 2usize..32,
        fanout in 1usize..4,
        seed in any::<u64>(),
        dead in proptest::collection::vec(0usize..32, 0..6),
        epochs in proptest::collection::vec(1u64..100, 32),
    ) {
        let mut net = GossipNet::new(peers, fanout, seed);
        let dead: HashSet<usize> = dead.into_iter().map(|d| d % peers).collect();
        // keep at least two peers live so convergence is non-vacuous
        let live: Vec<usize> = (0..peers).filter(|p| !dead.contains(p) || peers - dead.len() < 2).collect();
        for p in 0..peers {
            if !live.contains(&p) {
                net.set_alive(p, false);
            }
        }
        for &p in &live {
            prop_assert!(net.publish(p as u32, epochs[p]));
        }
        let c = net.run_to_convergence(64);
        prop_assert!(c.converged, "no convergence in 64 rounds ({} live peers)", live.len());
        // every live origin at its published epoch, every dead one unknown
        let want: Vec<u64> = (0..peers)
            .map(|o| if live.contains(&o) { epochs[o] } else { 0 })
            .collect();
        for &p in &live {
            prop_assert_eq!(net.epochs(p), &want[..], "peer {}", p);
        }
        // revive the dead: anti-entropy catches them up too
        for p in 0..peers {
            net.set_alive(p, true);
        }
        let c = net.run_to_convergence(64);
        prop_assert!(c.converged, "revived peers failed to catch up");
    }

    /// Version stamps never regress: under an arbitrary interleaving of
    /// publishes (with arbitrary, possibly stale epochs) and gossip rounds,
    /// the epoch each peer holds for each origin is monotonically
    /// non-decreasing over time.
    #[test]
    fn gossip_version_stamps_never_regress(
        peers in 2usize..16,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0usize..16, 1u64..20, 0u8..2), 1..60),
    ) {
        let mut net = GossipNet::new(peers, 2, seed);
        let mut seen: HashMap<(usize, usize), u64> = HashMap::new();
        let check = |net: &GossipNet, seen: &mut HashMap<(usize, usize), u64>| {
            for p in 0..peers {
                for (origin, &epoch) in net.epochs(p).iter().enumerate() {
                    let prev = seen.entry((p, origin)).or_insert(epoch);
                    assert!(epoch >= *prev, "peer {p} origin {origin} regressed {prev} -> {epoch}");
                    *prev = epoch;
                }
            }
        };
        let mut newest = vec![0u64; peers];
        for (origin, epoch, do_round) in ops {
            let origin = origin % peers;
            prop_assert_eq!(net.publish(origin as u32, epoch), epoch > newest[origin]);
            newest[origin] = newest[origin].max(epoch);
            if do_round == 1 {
                net.round();
            }
            check(&net, &mut seen);
        }
        // a publish only lands when it strictly advances the origin's epoch
        for (p, &epoch) in newest.iter().enumerate() {
            prop_assert_eq!(net.epochs(p)[p], epoch);
        }
    }

    /// On an additive tree metric (cross-shard cost = sum of the two
    /// shards' uplink contributions) the landmark estimator's point is the
    /// exact value, for any shard count, uplink profile, and coverage
    /// pattern, in both latency and bandwidth complement; a pair with an
    /// uncovered side has no point.
    #[test]
    fn estimate_points_are_exact_on_tree_models(
        s in 2usize..48,
        lat_seed in proptest::collection::vec(1u32..10_000, 48),
        cbw_seed in proptest::collection::vec(0u32..10_000, 48),
        holes in proptest::collection::vec(0usize..48, 0..8),
    ) {
        let lat: Vec<f64> = lat_seed[..s].iter().map(|&x| x as f64 * 1e-7).collect();
        let cbw: Vec<f64> = cbw_seed[..s].iter().map(|&x| x as f64 * 1e4).collect();
        let peak = 1e9f64;
        let mut reps: Vec<Vec<NodeId>> = (0..s).map(|i| vec![NodeId(i as u32 * 100)]).collect();
        for h in holes {
            reps[h % s] = vec![];
        }
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = |u: NodeId, v: NodeId| {
            let (a, b) = (shard_of(u), shard_of(v));
            let c = cbw[a] + cbw[b];
            PairProbe {
                latency_s: lat[a] + lat[b],
                avail_bps: (peak - c).max(0.0),
                peak_bps: peak,
            }
        };
        let est = NlEstimator::new(s).estimate(&reps, &mut probe);
        let close = |got: f64, exact: f64| (got - exact).abs() <= 1e-9 * (1.0 + exact.abs());
        for a in 0..s as u32 {
            for b in (a + 1)..s as u32 {
                let covered = !reps[a as usize].is_empty() && !reps[b as usize].is_empty();
                let Some(p) = est.pair(a, b) else {
                    prop_assert!(!covered, "covered pair ({a},{b}) had no point");
                    continue;
                };
                prop_assert!(covered);
                let exact = lat[a as usize] + lat[b as usize];
                prop_assert!(close(p.latency_s, exact), "lat({a},{b}) {} != {exact}", p.latency_s);
                let exact = cbw[a as usize] + cbw[b as usize];
                let got = p.peak_bps - p.avail_bps;
                prop_assert!(close(got, exact), "cbw({a},{b}) {got} != {exact}");
            }
        }
    }

    /// SymMatrix stays symmetric under arbitrary write sequences.
    #[test]
    fn symmatrix_stays_symmetric(
        n in 1usize..16,
        writes in proptest::collection::vec((0usize..16, 0usize..16, -1e6f64..1e6), 0..100),
    ) {
        let mut m = SymMatrix::new(n, 0.0);
        for (u, v, val) in writes {
            let (u, v) = (NodeId((u % n) as u32), NodeId((v % n) as u32));
            m.set(u, v, val);
        }
        for i in 0..n {
            for j in 0..n {
                let (u, v) = (NodeId(i as u32), NodeId(j as u32));
                prop_assert_eq!(m.get(u, v), m.get(v, u));
            }
        }
        prop_assert_eq!(m.pairs().count(), n * (n - 1) / 2);
    }
}
