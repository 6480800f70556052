//! The Central Monitor: master/slave supervision of the daemons (§4).
//!
//! "Central Monitor launches, supervises and removes … daemons. If any
//! daemon crashes, it is relaunched. We keep one master and one slave
//! instance to avoid single point of failure. If the master process dies,
//! the slave will detect that the process is dead, become new master and
//! launch a new slave on another node. If slave dies, master launches a new
//! slave. If both stop, all other daemons still continue to perform their
//! job but won't be restarted on failure."

use crate::codec::{decode, MonitorRecord};
use crate::daemons::{
    BandwidthD, DaemonConfig, DaemonKind, Health, LatencyD, LivehostsD, NodeStateD,
};
use crate::runtime::MonitorTopo;
use crate::store::{paths, SharedStore};
use nlrm_cluster::ClusterSim;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::collections::BTreeMap;

/// Every daemon the monitoring topology runs, owned together so the
/// central monitor can supervise them as one roster. Livehosts and one
/// state sampler per node run under every topology; the all-pairs latency
/// and bandwidth probers exist only under [`MonitorTopo::Central`].
#[derive(Debug, Clone)]
pub struct DaemonSet {
    /// The ping-sweep daemon.
    pub livehosts: LivehostsD,
    /// One state sampler per node.
    pub nodestate: Vec<NodeStateD>,
    /// The latency prober (central topology only).
    pub latency: Option<LatencyD>,
    /// The bandwidth prober (central topology only).
    pub bandwidth: Option<BandwidthD>,
    /// How often the state samplers tick.
    nodestate_period: Duration,
}

impl DaemonSet {
    /// Fresh daemons for an `n`-node cluster monitored with `topo`.
    pub fn new(n: usize, topo: &MonitorTopo, nodestate_period: Duration) -> Self {
        let central = matches!(topo, MonitorTopo::Central);
        DaemonSet {
            livehosts: LivehostsD::new(),
            nodestate: (0..n)
                .map(|i| NodeStateD::new(NodeId(i as u32), nodestate_period))
                .collect(),
            latency: central.then(|| LatencyD::new(n)),
            bandwidth: central.then(|| BandwidthD::new(n)),
            nodestate_period,
        }
    }

    /// Every daemon this set runs, with its health, in supervision order:
    /// livehosts, the pair probers, then the state samplers by node id.
    pub fn roster(&self) -> impl Iterator<Item = (DaemonKind, &Health)> {
        let probers = [
            self.latency
                .as_ref()
                .map(|d| (DaemonKind::Latency, &d.health)),
            self.bandwidth
                .as_ref()
                .map(|d| (DaemonKind::Bandwidth, &d.health)),
        ];
        let samplers = self
            .nodestate
            .iter()
            .map(|d| (DaemonKind::NodeState(d.node()), &d.health));
        std::iter::once((DaemonKind::Livehosts, &self.livehosts.health))
            .chain(probers.into_iter().flatten())
            .chain(samplers)
    }

    /// When the identified daemon last wrote to `store` (`None`: never),
    /// and how often it is due to write under `cfg`.
    pub fn freshness(
        &self,
        kind: DaemonKind,
        store: &SharedStore,
        cfg: &DaemonConfig,
    ) -> (Option<SimTime>, Duration) {
        match kind {
            DaemonKind::Livehosts => (store.written_at(paths::LIVEHOSTS), cfg.livehosts_period),
            DaemonKind::NodeState(node) => {
                let path = self.nodestate[node.index()].store_path();
                (store.written_at(path), cfg.nodestate_period)
            }
            DaemonKind::Latency => (
                store.newest_under(paths::LATENCY_PREFIX),
                cfg.latency_period,
            ),
            DaemonKind::Bandwidth => (
                store.newest_under(paths::BANDWIDTH_PREFIX),
                cfg.bandwidth_period,
            ),
        }
    }

    /// Count of currently dead daemons.
    pub fn dead_count(&self) -> usize {
        self.roster().filter(|(_, h)| !h.is_alive()).count()
    }

    /// The identified daemon's health; `None` when this set does not run it.
    pub fn health(&self, kind: DaemonKind) -> Option<&Health> {
        self.roster().find(|&(k, _)| k == kind).map(|(_, h)| h)
    }

    /// Mutable [`DaemonSet::health`]: failure injection kills, hangs and
    /// mutes a daemon here.
    pub fn health_mut(&mut self, kind: DaemonKind) -> Option<&mut Health> {
        match kind {
            DaemonKind::Livehosts => Some(&mut self.livehosts.health),
            DaemonKind::NodeState(node) => {
                self.nodestate.get_mut(node.index()).map(|d| &mut d.health)
            }
            DaemonKind::Latency => self.latency.as_mut().map(|d| &mut d.health),
            DaemonKind::Bandwidth => self.bandwidth.as_mut().map(|d| &mut d.health),
        }
    }

    /// Relaunch the identified daemon: a fresh instance, its state lost. A
    /// daemon this set does not run stays absent.
    pub fn relaunch(&mut self, kind: DaemonKind) {
        let n = self.nodestate.len();
        match kind {
            DaemonKind::Livehosts => self.livehosts = LivehostsD::new(),
            DaemonKind::NodeState(node) => {
                self.nodestate[node.index()] = NodeStateD::new(node, self.nodestate_period)
            }
            DaemonKind::Latency => self.latency = self.latency.take().map(|_| LatencyD::new(n)),
            DaemonKind::Bandwidth => {
                self.bandwidth = self.bandwidth.take().map(|_| BandwidthD::new(n))
            }
        }
    }
}

/// One central-monitor instance (master or slave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    /// Node the instance runs on.
    pub host: NodeId,
    /// Whether the process is running.
    pub alive: bool,
    /// Incarnation number, bumped every (re)spawn.
    pub incarnation: u32,
}

/// Crash-loop backoff state for one supervised daemon.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    /// Relaunches issued without an observed healthy publication since.
    strikes: u32,
    /// No further relaunch before this time.
    next_allowed: SimTime,
}

/// The redundant central monitor.
#[derive(Debug, Clone)]
pub struct CentralMonitor {
    master: Instance,
    slave: Instance,
    /// A heartbeat older than this is treated as a dead master.
    pub heartbeat_timeout: Duration,
    /// Total daemon relaunches performed.
    pub relaunch_count: usize,
    /// Total master failovers performed.
    pub failover_count: usize,
    next_incarnation: u32,
    /// Daemon periods, used to judge record staleness during supervision.
    config: DaemonConfig,
    /// Per-daemon relaunch backoff; entries are dropped once the daemon is
    /// observed healthy again.
    backoff: BTreeMap<DaemonKind, Backoff>,
}

impl CentralMonitor {
    /// A daemon whose newest store record is older than
    /// `period × STALE_FACTOR` is treated as hung (alive but wedged) and
    /// restarted, mirroring the missed-heartbeat rule for the master.
    pub const STALE_FACTOR: f64 = 3.5;

    /// Relaunch delays stop doubling after this many strikes
    /// (`central_period × 2^MAX_BACKOFF_EXP` is the cap).
    const MAX_BACKOFF_EXP: u32 = 5;

    /// A master on `master_host` and slave on `slave_host`.
    pub fn new(master_host: NodeId, slave_host: NodeId, config: &DaemonConfig) -> Self {
        assert_ne!(master_host, slave_host, "master and slave must differ");
        CentralMonitor {
            master: Instance {
                host: master_host,
                alive: true,
                incarnation: 0,
            },
            slave: Instance {
                host: slave_host,
                alive: true,
                incarnation: 1,
            },
            // allow missing ~3 heartbeats before declaring death
            heartbeat_timeout: config.central_period.mul_f64(3.5),
            relaunch_count: 0,
            failover_count: 0,
            next_incarnation: 2,
            config: *config,
            backoff: BTreeMap::new(),
        }
    }

    /// The current master instance.
    pub fn master(&self) -> Instance {
        self.master
    }

    /// The current slave instance.
    pub fn slave(&self) -> Instance {
        self.slave
    }

    /// Failure injection: kill the master process.
    pub fn kill_master(&mut self) {
        self.master.alive = false;
    }

    /// Failure injection: kill the slave process.
    pub fn kill_slave(&mut self) {
        self.slave.alive = false;
    }

    /// True when neither instance is running (no supervision, daemons
    /// continue but will not be relaunched).
    pub fn is_headless(&self) -> bool {
        !self.master.alive && !self.slave.alive
    }

    /// Launch a fresh slave on the first live node other than the master's
    /// (none when no such node is up).
    fn spawn_slave(&mut self, now: SimTime, cluster: &ClusterSim) {
        let master = self.master.host;
        let mut hosts = cluster.topology().node_ids();
        let Some(host) = hosts.find(|&n| n != master && cluster.is_up(n)) else {
            return;
        };
        self.slave = Instance {
            host,
            alive: true,
            incarnation: self.next_incarnation,
        };
        self.next_incarnation += 1;
        nlrm_obs::ctx::emit(
            nlrm_obs::Severity::Info,
            now,
            nlrm_obs::EventKind::SlaveSpawned { host },
        );
    }

    /// One supervision tick.
    pub fn tick(&mut self, cluster: &ClusterSim, store: &SharedStore, daemons: &mut DaemonSet) {
        let now = cluster.now();
        // instances die with their hosts
        self.master.alive &= cluster.is_up(self.master.host);
        self.slave.alive &= cluster.is_up(self.slave.host);

        if self.master.alive {
            // master duties: heartbeat, supervise daemons, keep a slave alive
            let hb = MonitorRecord::Heartbeat {
                role: "master".into(),
                incarnation: self.master.incarnation,
                at: now,
            };
            let len = store.publish(paths::MASTER_HEARTBEAT, now, hb);
            nlrm_obs::ctx::add("monitor_heartbeat_bytes_total", len);
            self.supervise(now, cluster, store, daemons);
            if !self.slave.alive {
                self.spawn_slave(now, cluster);
            }
        } else if self.slave.alive {
            // slave duties: watch the master heartbeat; promote on staleness
            let master_stale = match store.get(paths::MASTER_HEARTBEAT) {
                None => true,
                Some(rec) => {
                    nlrm_obs::ctx::add("monitor_heartbeat_bytes_total", rec.data.len() as u64);
                    match decode(&rec.data) {
                        Ok(MonitorRecord::Heartbeat { at, .. }) => {
                            now.since(at) > self.heartbeat_timeout
                        }
                        _ => true,
                    }
                }
            };
            if master_stale {
                // promote self to master, then spawn a fresh slave
                self.failover_count += 1;
                let dead_master = self.master.host;
                self.master = self.slave;
                self.slave.alive = false;
                nlrm_obs::ctx::emit(
                    nlrm_obs::Severity::Warn,
                    now,
                    nlrm_obs::EventKind::Failover {
                        from: dead_master,
                        to: self.master.host,
                    },
                );
                nlrm_obs::ctx::inc("monitor_failover_total");
                self.spawn_slave(now, cluster);
            }
        }
        // both dead: nothing happens — daemons run unsupervised (paper §4)
    }

    /// One supervision sweep over every daemon (master duty).
    ///
    /// A daemon is restarted when it is dead, or when it is nominally alive
    /// but its newest store record has gone stale (hung process, wedged
    /// write path). Restarts are rate-limited by an exponential backoff so a
    /// crash-looping daemon cannot be relaunched every heartbeat; the
    /// backoff entry is cleared as soon as the daemon is seen publishing
    /// again. A daemon that has never published is given the benefit of the
    /// doubt (slow starter) unless it is outright dead, and samplers on
    /// down nodes are expected to be silent.
    fn supervise(
        &mut self,
        now: SimTime,
        cluster: &ClusterSim,
        store: &SharedStore,
        daemons: &mut DaemonSet,
    ) {
        let watched: Vec<(DaemonKind, bool, Option<SimTime>, Duration)> = daemons
            .roster()
            // a down node's sampler is expected to be silent
            .filter(|(kind, _)| !matches!(kind, DaemonKind::NodeState(n) if !cluster.is_up(*n)))
            .map(|(kind, health)| {
                let (written, period) = daemons.freshness(kind, store, &self.config);
                (kind, health.is_alive(), written, period)
            })
            .collect();
        for (kind, alive, written, period) in watched {
            let stale_bound = period.mul_f64(Self::STALE_FACTOR);
            let hung = alive && matches!(written, Some(t) if now.since(t) > stale_bound);
            if alive && !hung {
                self.backoff.remove(&kind);
                continue;
            }
            let entry = self.backoff.entry(kind).or_insert(Backoff {
                strikes: 0,
                next_allowed: SimTime::ZERO,
            });
            if now < entry.next_allowed {
                nlrm_obs::ctx::emit(
                    nlrm_obs::Severity::Debug,
                    now,
                    nlrm_obs::EventKind::RelaunchSuppressed {
                        daemon: kind.to_string(),
                        until: entry.next_allowed,
                    },
                );
                nlrm_obs::ctx::inc("monitor_relaunch_suppressed_total");
                continue;
            }
            daemons.relaunch(kind);
            self.relaunch_count += 1;
            let exp = entry.strikes.min(Self::MAX_BACKOFF_EXP);
            let delay = self.config.central_period.mul_f64(f64::from(1u32 << exp));
            // the fresh process needs a full staleness window to prove
            // itself before it can be judged (and restarted) again
            entry.next_allowed = now + delay.max(stale_bound);
            entry.strikes += 1;
            nlrm_obs::ctx::emit(
                nlrm_obs::Severity::Warn,
                now,
                nlrm_obs::EventKind::DaemonRelaunched {
                    daemon: kind.to_string(),
                    strikes: entry.strikes,
                },
            );
            nlrm_obs::ctx::inc("monitor_relaunch_total");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster;

    fn period() -> Duration {
        DaemonConfig::default().nodestate_period
    }

    fn setup() -> (ClusterSim, SharedStore, DaemonSet, CentralMonitor) {
        let cluster = small_cluster(6, 3);
        let store = SharedStore::new();
        let daemons = DaemonSet::new(6, &MonitorTopo::Central, period());
        let cm = CentralMonitor::new(NodeId(0), NodeId(1), &DaemonConfig::default());
        (cluster, store, daemons, cm)
    }

    fn health(daemons: &mut DaemonSet, kind: DaemonKind) -> &mut Health {
        daemons.health_mut(kind).expect("daemon runs")
    }

    fn advance_and_tick(
        cluster: &mut ClusterSim,
        store: &SharedStore,
        daemons: &mut DaemonSet,
        cm: &mut CentralMonitor,
        ticks: usize,
    ) {
        for _ in 0..ticks {
            cluster.advance(Duration::from_secs(10));
            cm.tick(cluster, store, daemons);
        }
    }

    #[test]
    fn master_relaunches_dead_daemons() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        health(&mut daemons, DaemonKind::Latency).kill();
        health(&mut daemons, DaemonKind::NodeState(NodeId(2))).kill();
        assert_eq!(daemons.dead_count(), 2);
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 1);
        assert_eq!(daemons.dead_count(), 0);
        assert_eq!(cm.relaunch_count, 2);
    }

    #[test]
    fn slave_promotes_after_master_death() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        // establish a heartbeat first
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 1);
        cm.kill_master();
        // within timeout: no failover yet
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 2);
        assert_eq!(cm.failover_count, 0);
        // past timeout (3.5 × 10 s): slave takes over
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 3);
        assert_eq!(cm.failover_count, 1);
        assert!(cm.master().alive);
        assert_eq!(cm.master().host, NodeId(1));
        // and a fresh slave was spawned elsewhere
        assert!(cm.slave().alive);
        assert_ne!(cm.slave().host, NodeId(1));
    }

    #[test]
    fn new_master_supervises_daemons() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 1);
        cm.kill_master();
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 6);
        health(&mut daemons, DaemonKind::Bandwidth).kill();
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 1);
        assert!(daemons.health(DaemonKind::Bandwidth).unwrap().is_alive());
    }

    #[test]
    fn master_respawns_dead_slave() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        let before = cm.slave().incarnation;
        cm.kill_slave();
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 1);
        assert!(cm.slave().alive);
        assert!(cm.slave().incarnation > before);
    }

    #[test]
    fn headless_monitor_stops_relaunching() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        cm.kill_master();
        cm.kill_slave();
        assert!(cm.is_headless());
        health(&mut daemons, DaemonKind::Latency).kill();
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 10);
        // nobody relaunched it
        assert!(!daemons.health(DaemonKind::Latency).unwrap().is_alive());
        assert_eq!(cm.relaunch_count, 0);
    }

    #[test]
    fn hung_daemon_is_detected_and_restarted() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        // establish a fresh livehosts record: healthy, no relaunch
        cluster.advance(Duration::from_secs(10));
        daemons.livehosts.tick(&cluster, &store);
        cm.tick(&cluster, &store, &mut daemons);
        assert_eq!(cm.relaunch_count, 0);
        // the daemon wedges; its record ages past period × STALE_FACTOR
        let until = cluster.now() + Duration::from_hours(1);
        health(&mut daemons, DaemonKind::Livehosts).hang_until(until);
        for _ in 0..6 {
            cluster.advance(Duration::from_secs(10));
            daemons.livehosts.tick(&cluster, &store); // no-op while hung
            cm.tick(&cluster, &store, &mut daemons);
        }
        assert!(cm.relaunch_count >= 1, "hung daemon never restarted");
        // the relaunch cleared the hang: next tick publishes again
        cluster.advance(Duration::from_secs(10));
        daemons.livehosts.tick(&cluster, &store);
        assert_eq!(
            store.get(paths::LIVEHOSTS).unwrap().written_at,
            cluster.now()
        );
    }

    #[test]
    fn relaunch_backoff_escalates_for_crash_looping_daemon() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        // publish once so staleness is measurable
        cluster.advance(Duration::from_secs(10));
        daemons.livehosts.tick(&cluster, &store);
        // from here the daemon dies again immediately after every relaunch
        let mut relaunch_ticks = Vec::new();
        for i in 0..40 {
            health(&mut daemons, DaemonKind::Livehosts).kill();
            cluster.advance(Duration::from_secs(10));
            let before = cm.relaunch_count;
            cm.tick(&cluster, &store, &mut daemons);
            if cm.relaunch_count > before {
                relaunch_ticks.push(i as i64);
            }
        }
        assert!(relaunch_ticks.len() >= 3, "backoff starved relaunches");
        assert!(
            relaunch_ticks.len() < 20,
            "no backoff: relaunched on most ticks ({relaunch_ticks:?})"
        );
        let gaps: Vec<i64> = relaunch_ticks.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.last().unwrap() > gaps.first().unwrap(),
            "relaunch gaps should grow: {gaps:?}"
        );
    }

    #[test]
    fn healthy_publication_resets_backoff() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        cluster.advance(Duration::from_secs(10));
        daemons.livehosts.tick(&cluster, &store);
        // two crash/relaunch rounds build up strikes
        for _ in 0..10 {
            health(&mut daemons, DaemonKind::Livehosts).kill();
            cluster.advance(Duration::from_secs(10));
            cm.tick(&cluster, &store, &mut daemons);
        }
        let after_loop = cm.relaunch_count;
        assert!(after_loop >= 2);
        // daemon recovers and publishes: backoff entry cleared
        daemons.relaunch(DaemonKind::Livehosts);
        cluster.advance(Duration::from_secs(10));
        daemons.livehosts.tick(&cluster, &store);
        cm.tick(&cluster, &store, &mut daemons);
        // next crash is relaunched on the very next heartbeat again
        health(&mut daemons, DaemonKind::Livehosts).kill();
        cluster.advance(Duration::from_secs(10));
        cm.tick(&cluster, &store, &mut daemons);
        assert_eq!(cm.relaunch_count, after_loop + 1);
    }

    #[test]
    fn instance_dies_with_its_host() {
        let (mut cluster, store, mut daemons, mut cm) = setup();
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 1);
        cluster.set_node_up(NodeId(0), false);
        // master host down → death detected, slave eventually promotes
        advance_and_tick(&mut cluster, &store, &mut daemons, &mut cm, 6);
        assert_eq!(cm.failover_count, 1);
        assert_ne!(cm.master().host, NodeId(0));
    }

    #[test]
    fn relaunch_clears_hang_and_mute() {
        let (mut cluster, store, mut daemons, _) = setup();
        cluster.advance(Duration::from_secs(5));
        let sampler = DaemonKind::NodeState(NodeId(0));
        let until = cluster.now() + Duration::from_secs(3600);
        health(&mut daemons, sampler).hang_until(until);
        health(&mut daemons, sampler).mute_until(until);
        daemons.relaunch(sampler);
        daemons.nodestate[0].tick(&cluster, &store);
        assert!(!store.is_empty(), "relaunched process starts fresh");
    }

    #[test]
    fn topology_sets_the_roster() {
        let central = DaemonSet::new(4, &MonitorTopo::Central, period());
        let kinds: Vec<DaemonKind> = central.roster().map(|(kind, _)| kind).collect();
        assert_eq!(
            kinds[..3],
            [
                DaemonKind::Livehosts,
                DaemonKind::Latency,
                DaemonKind::Bandwidth
            ]
        );
        assert_eq!(
            kinds[3..],
            (0..4)
                .map(|i| DaemonKind::NodeState(NodeId(i)))
                .collect::<Vec<_>>()
        );
        let cluster = small_cluster(4, 3);
        let idx = cluster.topology().switch_index();
        let sharded = MonitorTopo::Sharded(crate::runtime::ShardConfig::new(idx));
        let mut daemons = DaemonSet::new(4, &sharded, period());
        assert!(daemons.latency.is_none() && daemons.bandwidth.is_none());
        assert_eq!(daemons.roster().count(), 5);
        assert!(daemons.health_mut(DaemonKind::Latency).is_none());
        daemons.relaunch(DaemonKind::Bandwidth);
        assert!(
            daemons.bandwidth.is_none(),
            "relaunch cannot conjure a prober"
        );
    }
}
