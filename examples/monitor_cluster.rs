//! The Resource Monitor in action: daemons, failover, and staleness.
//!
//! Walks through the paper's §4 scenarios on a simulated cluster:
//! a daemon crash (relaunched by the central monitor), a master failure
//! (slave promotes itself), and a node failure (disappears from
//! livehosts).
//!
//! Run with: `cargo run --release --example monitor_cluster`

use nlrm::monitor::runtime::DaemonKind;
use nlrm::prelude::*;
use nlrm::topology::NodeId;

fn main() {
    let mut cluster = small_cluster(8, 11);
    let mut monitor = MonitorRuntime::new(&cluster);

    // --- warm-up: all daemons publish ---
    monitor.run_until(&mut cluster, SimTime::from_secs(360));
    let snap = monitor.snapshot(cluster.now()).unwrap();
    println!(
        "after warm-up: {} usable nodes, {} dead daemons",
        snap.usable_nodes().len(),
        monitor.dead_daemons()
    );

    // --- scenario 1: the bandwidth daemon crashes ---
    monitor.kill_daemon(DaemonKind::Bandwidth);
    monitor.kill_daemon(DaemonKind::NodeState(NodeId(3)));
    println!(
        "killed BandwidthD and NodeStateD(3): {} dead",
        monitor.dead_daemons()
    );
    let target = cluster.now() + Duration::from_secs(60);
    monitor.run_until(&mut cluster, target);
    println!(
        "one supervision sweep later: {} dead, {} relaunches so far",
        monitor.dead_daemons(),
        monitor.central().relaunch_count
    );

    // --- scenario 2: the central monitor's master dies ---
    let old_master = monitor.central().master().host;
    monitor.central_mut().kill_master();
    let target = cluster.now() + Duration::from_secs(120);
    monitor.run_until(&mut cluster, target);
    println!(
        "master on {} killed; new master on {} (failovers: {})",
        old_master,
        monitor.central().master().host,
        monitor.central().failover_count
    );

    // --- scenario 3: a node fails ---
    let t_fail = cluster.now() + Duration::from_secs(30);
    cluster.schedule_failure(t_fail, NodeId(5));
    monitor.run_until(&mut cluster, t_fail + Duration::from_secs(60));
    let snap = monitor.snapshot(cluster.now()).unwrap();
    println!(
        "node 5 failed: livehosts now has {} nodes ({:?})",
        snap.usable_nodes().len(),
        snap.usable_nodes().iter().map(|n| n.0).collect::<Vec<_>>()
    );
}
