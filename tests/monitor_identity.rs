//! Golden digests of everything the monitor publishes.
//!
//! Each run drives a `MonitorRuntime` for `SWEEPS` steps of 300 s of
//! virtual time. After every step it folds an FNV-1a digest over every
//! store record (path, write time, payload bytes) in path order, and over
//! the snapshot the allocator would read. The expected values were
//! captured before the monitor's hot path was made allocation-free, so any
//! change to a published byte, a write time, the probe order or the RNG
//! draw order fails here.

use nlrm::cluster::iitk::campus;
use nlrm::monitor::{MonitorTopo, ShardConfig};
use nlrm::obs::DigestFold;
use nlrm::prelude::*;
use nlrm::sim::window::WindowedValue;
use nlrm::topology::NodeId;

/// Steps per run.
const SWEEPS: u64 = 8;

/// Virtual time per step: one bandwidth sweep and five latency sweeps.
const STEP_S: u64 = 300;

fn fold_store(rt: &MonitorRuntime, fold: &mut DigestFold) {
    let store = rt.store();
    for path in store.list_prefix("") {
        let rec = store.get(&path).expect("listed path has a record");
        fold.bytes(path.as_bytes())
            .u64(rec.written_at.as_micros())
            .u64(rec.data.len() as u64)
            .bytes(&rec.data);
    }
}

fn fold_windowed(fold: &mut DigestFold, w: &WindowedValue) {
    fold.f64(w.instant).f64(w.m1).f64(w.m5).f64(w.m15);
}

fn fold_age(fold: &mut DigestFold, age: Option<Duration>) {
    fold.u64(age.map_or(u64::MAX, |d| d.as_micros()));
}

fn fold_snapshot(snap: &ClusterSnapshot, fold: &mut DigestFold) {
    fold.u64(snap.taken_at.as_micros())
        .u64(snap.nodes.len() as u64);
    for info in &snap.nodes {
        let s = &info.sample;
        fold.u64(info.node.index() as u64)
            .u64(info.live as u64)
            .u64(s.node.index() as u64)
            .u64(s.taken_at.as_micros())
            .bytes(s.spec.hostname.as_bytes())
            .u64(s.spec.cores as u64)
            .f64(s.spec.freq_ghz)
            .f64(s.spec.total_mem_gb)
            .u64(s.users as u64);
        fold_windowed(fold, &s.cpu_load);
        fold_windowed(fold, &s.cpu_util);
        fold_windowed(fold, &s.mem_used_frac);
        fold_windowed(fold, &s.flow_rate_mbps);
    }
    for (u, v, st) in snap.latency.pairs() {
        fold.u64(u.index() as u64)
            .u64(v.index() as u64)
            .f64(st.instant)
            .f64(st.m1)
            .f64(st.m5);
    }
    for (_, _, b) in snap.bandwidth_bps.pairs() {
        fold.f64(b);
    }
    for (_, _, b) in snap.peak_bandwidth_bps.pairs() {
        fold.f64(b);
    }
    for &age in &snap.latency_row_age {
        fold_age(fold, age);
    }
    for &age in &snap.bandwidth_row_age {
        fold_age(fold, age);
    }
}

/// Run `SWEEPS` steps and return `(store digest, snapshot digest)` over
/// all of them, plus the per-step pairs for a readable failure message.
fn digest_run(cluster: &mut ClusterSim, rt: &mut MonitorRuntime) -> ((u64, u64), Vec<(u64, u64)>) {
    let mut store_all = DigestFold::new();
    let mut snap_all = DigestFold::new();
    let mut per_step = Vec::new();
    for k in 1..=SWEEPS {
        rt.run_until(cluster, SimTime::from_secs(k * STEP_S));
        let mut store_fold = DigestFold::new();
        fold_store(rt, &mut store_fold);
        let mut snap_fold = DigestFold::new();
        let snap = rt.snapshot(cluster.now()).expect("monitor has run");
        fold_snapshot(&snap, &mut snap_fold);
        store_all.u64(store_fold.value());
        snap_all.u64(snap_fold.value());
        per_step.push((store_fold.value(), snap_fold.value()));
    }
    ((store_all.value(), snap_all.value()), per_step)
}

fn assert_golden(name: &str, got: ((u64, u64), Vec<(u64, u64)>), expected: (u64, u64)) {
    let (total, per_step) = got;
    assert_eq!(
        total, expected,
        "{name}: store/snapshot digests moved; per-step digests {:#x?}",
        per_step
    );
}

fn central(seed: u64) -> ((u64, u64), Vec<(u64, u64)>) {
    let mut cluster = iitk_cluster(seed);
    let mut rt = MonitorRuntime::new(&cluster);
    digest_run(&mut cluster, &mut rt)
}

#[test]
fn central_seed_1_publishes_golden_bytes() {
    assert_golden(
        "central seed 1",
        central(1),
        (2089812290516268579, 16407098714247361888),
    );
}

#[test]
fn central_seed_4_publishes_golden_bytes() {
    assert_golden(
        "central seed 4",
        central(4),
        (5153688130920377550, 868172335480354163),
    );
}

/// LatencyD killed, a NodeStateD hung, BandwidthD muted and the master
/// killed: supervision relaunches, the slave fails over, and every record
/// written around those events stays byte-identical.
#[test]
fn faulted_central_run_publishes_golden_bytes() {
    let mut cluster = iitk_cluster(2);
    let mut rt = MonitorRuntime::new(&cluster);
    let mut plan = MonitorFaultPlan::new();
    plan.schedule(
        SimTime::from_secs(400),
        FaultTarget::Daemon(DaemonKind::Latency),
        FaultAction::Kill,
    );
    plan.schedule(
        SimTime::from_secs(700),
        FaultTarget::Daemon(DaemonKind::NodeState(NodeId(7))),
        FaultAction::Hang(Duration::from_secs(240)),
    );
    plan.schedule(
        SimTime::from_secs(900),
        FaultTarget::Daemon(DaemonKind::Bandwidth),
        FaultAction::Delay(Duration::from_secs(700)),
    );
    plan.schedule(
        SimTime::from_secs(1300),
        FaultTarget::Master,
        FaultAction::Kill,
    );
    rt.set_fault_plan(plan);
    let got = digest_run(&mut cluster, &mut rt);
    assert_eq!(rt.pending_faults(), 0);
    assert_eq!(
        rt.central().failover_count,
        1,
        "master death not failed over"
    );
    assert!(
        rt.central().relaunch_count >= 2,
        "supervision never relaunched"
    );
    assert_golden(
        "faulted central seed 2",
        got,
        (13811737977892166643, 14530110681992312393),
    );
}

#[test]
fn sharded_campus_run_publishes_golden_bytes() {
    let mut cluster = campus(3, 8, 5);
    let idx = cluster.topology().switch_index();
    let mut rt = MonitorRuntime::with_topo(
        &cluster,
        Default::default(),
        MonitorTopo::Sharded(ShardConfig::new(idx)),
    );
    let got = digest_run(&mut cluster, &mut rt);
    assert!(rt.gossip().expect("sharded").total_bytes() > 0);
    assert_golden(
        "sharded campus seed 5",
        got,
        (12699262109010740358, 5468166940139674434),
    );
}
