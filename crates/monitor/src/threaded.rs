//! The monitoring stack on real OS threads.
//!
//! The paper's daemons are independent processes on cluster nodes. The
//! virtual-time [`MonitorRuntime`](crate::runtime::MonitorRuntime) is what
//! experiments use, but this module demonstrates (and tests) the actual
//! daemon topology: each daemon is a thread, all publish concurrently into
//! the same [`SharedStore`], and shutdown is coordinated over channels.
//!
//! The simulated cluster is wrapped in a [`LiveCluster`] that maps wall time
//! onto virtual time with a configurable speedup, so a 5-minute bandwidth
//! period can elapse in milliseconds of real time.

use crate::daemons::{BandwidthD, DaemonConfig, LatencyD, LivehostsD, NodeStateD};
use crate::store::SharedStore;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use nlrm_cluster::ClusterSim;
use nlrm_sim_core::time::{Duration as SimDuration, SimTime};
use nlrm_topology::NodeId;
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A cluster simulation shared across threads, advanced lazily so that
/// virtual time tracks wall time at `speedup` virtual seconds per wall
/// second.
pub struct LiveCluster {
    inner: Mutex<ClusterSim>,
    started: Instant,
    speedup: f64,
}

impl LiveCluster {
    /// Wrap `cluster`; virtual time will advance `speedup`× wall time.
    pub fn new(cluster: ClusterSim, speedup: f64) -> Arc<Self> {
        assert!(speedup > 0.0);
        Arc::new(LiveCluster {
            inner: Mutex::new(cluster),
            started: Instant::now(),
            speedup,
        })
    }

    /// Run `f` against the cluster after syncing virtual time to wall time.
    pub fn with_sync<R>(&self, f: impl FnOnce(&mut ClusterSim) -> R) -> R {
        let mut c = self.inner.lock();
        let target = SimTime::from_secs_f64(self.started.elapsed().as_secs_f64() * self.speedup);
        if target > c.now() {
            c.advance_to(target);
        }
        f(&mut c)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.lock().now()
    }
}

/// Handle to a running threaded monitor. Dropping without stopping detaches
/// the threads; call [`stop`](ThreadedMonitor::stop) for a clean shutdown.
pub struct ThreadedMonitor {
    store: SharedStore,
    shutdown: Sender<()>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadedMonitor {
    /// Start all daemons against `cluster`. Wall-clock periods are the
    /// virtual periods in `config` divided by the cluster's speedup.
    pub fn start(cluster: Arc<LiveCluster>, config: DaemonConfig) -> Self {
        let store = SharedStore::new();
        let (tx, rx) = bounded::<()>(0);
        let n = cluster.with_sync(|c| c.num_nodes());
        let speedup = cluster.speedup;
        let wall = |d: SimDuration| Duration::from_secs_f64(d.as_secs_f64() / speedup);

        let mut handles = Vec::new();

        // LivehostsD
        handles.push(spawn_loop(rx.clone(), wall(config.livehosts_period), {
            let cluster = cluster.clone();
            let store = store.clone();
            let mut d = LivehostsD::new();
            move || cluster.with_sync(|c| d.tick(c, &store))
        }));

        // One NodeStateD per node, each its own thread (as in the paper).
        for i in 0..n {
            handles.push(spawn_loop(rx.clone(), wall(config.nodestate_period), {
                let cluster = cluster.clone();
                let store = store.clone();
                let mut d = NodeStateD::new(NodeId(i as u32));
                move || cluster.with_sync(|c| d.tick(c, &store))
            }));
        }

        // LatencyD
        handles.push(spawn_loop(rx.clone(), wall(config.latency_period), {
            let cluster = cluster.clone();
            let store = store.clone();
            let mut d = LatencyD::new(n);
            move || cluster.with_sync(|c| d.tick(c, &store))
        }));

        // BandwidthD
        handles.push(spawn_loop(rx, wall(config.bandwidth_period), {
            let cluster = cluster.clone();
            let store = store.clone();
            let mut d = BandwidthD::new(n);
            move || cluster.with_sync(|c| d.tick(c, &store))
        }));

        ThreadedMonitor {
            store,
            shutdown: tx,
            handles,
        }
    }

    /// The store the daemons publish into.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Stop all daemon threads and wait for them to exit.
    pub fn stop(self) {
        drop(self.shutdown); // closes the channel; loops observe disconnect
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Spawn a thread running `tick` every `period` until the shutdown channel
/// disconnects.
fn spawn_loop(
    shutdown: Receiver<()>,
    period: Duration,
    mut tick: impl FnMut() + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        match shutdown.recv_timeout(period) {
            Err(RecvTimeoutError::Timeout) => tick(),
            // disconnect (or an explicit signal): exit
            _ => return,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ClusterSnapshot;
    use nlrm_cluster::iitk::small_cluster;

    fn fast_config() -> DaemonConfig {
        DaemonConfig::default()
    }

    #[test]
    fn threaded_daemons_populate_store() {
        // 1000× speedup: 5-minute bandwidth period every 300 ms of wall time
        let cluster = LiveCluster::new(small_cluster(4, 23), 1000.0);
        let mon = ThreadedMonitor::start(cluster.clone(), fast_config());
        std::thread::sleep(Duration::from_millis(700));
        let now = cluster.now();
        let snap = ClusterSnapshot::assemble(mon.store(), 4, now).unwrap();
        assert_eq!(snap.usable_nodes().len(), 4);
        for (u, v) in snap.node_pairs() {
            assert!(snap.bandwidth_bps(u, v) > 0.0);
        }
        mon.stop();
    }

    #[test]
    fn stop_terminates_threads() {
        let cluster = LiveCluster::new(small_cluster(3, 23), 1000.0);
        let mon = ThreadedMonitor::start(cluster, fast_config());
        std::thread::sleep(Duration::from_millis(50));
        mon.stop(); // must not hang
    }

    #[test]
    fn virtual_time_tracks_wall_time() {
        let cluster = LiveCluster::new(small_cluster(2, 23), 1000.0);
        std::thread::sleep(Duration::from_millis(100));
        let t = cluster.with_sync(|c| c.now());
        // ~100 virtual seconds elapsed (generous tolerance for CI jitter)
        assert!(t >= SimTime::from_secs(50), "virtual time {t}");
    }
}
