//! Integration test: the observability stack captures the PR-1 fault
//! scenario (daemon kills plus master death) end to end — relaunch,
//! failover, and stale-exclusion events land in the journal with correct
//! virtual timestamps, and every granted allocation carries an explain
//! trace consistent with `select_best`'s ranking.

use nlrm::bench::scenario::{self, ScenarioSpec, QUICK_CHECKPOINTS};
use nlrm::obs::Severity;
use nlrm_sim_core::time::SimTime;

#[test]
fn faulted_run_journals_supervision_and_explains_every_grant() {
    let mut spec = ScenarioSpec::new("obs-report", 2025, QUICK_CHECKPOINTS);
    spec.faulted = true;
    spec.submit_huge = true;
    let r = scenario::run(&spec.standard_arrivals(16));
    let journal = &r.obs.journal;
    let metrics = &r.obs.metrics;

    // --- supervision events with correct virtual timestamps ---
    let relaunches = journal.events_of("daemon_relaunched");
    assert_eq!(
        relaunches.len(),
        2,
        "bandwidth kill at t=400 and node-state kill at t=450 each relaunch once"
    );
    // the supervisor reacts within its staleness window, never before the kill
    assert!(relaunches[0].at >= SimTime::from_secs(400));
    assert!(relaunches[0].at <= SimTime::from_secs(500));
    assert!(relaunches[1].at >= SimTime::from_secs(450));
    assert!(relaunches[1].at <= SimTime::from_secs(550));
    assert_eq!(r.relaunches, 2, "journal agrees with the central monitor");
    assert_eq!(metrics.counter_value("monitor_relaunch_total"), 2);

    let failovers = journal.events_of("failover");
    assert_eq!(failovers.len(), 1, "master kill at t=700 fails over once");
    assert!(failovers[0].at >= SimTime::from_secs(700));
    assert!(failovers[0].at <= SimTime::from_secs(800));
    assert_eq!(failovers[0].severity, Severity::Warn);
    assert_eq!(r.failovers, 1);
    assert_eq!(metrics.counter_value("monitor_failover_total"), 1);

    // --- stale samples are excluded, and the journal says when ---
    let stale = journal.events_of("stale_node_excluded");
    assert!(
        !stale.is_empty(),
        "node-state daemons on n5/n6 die headless at t=950; their samples must go stale"
    );
    for e in &stale {
        // staleness bound is 60 s past the t=950 kill
        assert!(e.at >= SimTime::from_secs(1010));
        match &e.kind {
            nlrm::obs::EventKind::StaleNodeExcluded { node, age } => {
                assert!(node.0 == 5 || node.0 == 6, "unexpected stale node {node}");
                assert!(age.as_secs_f64() > 60.0);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }
    assert!(metrics.counter_value("loads_stale_node_excluded_total") >= 2);

    // --- every grant is explained, consistently with the placement ---
    assert_eq!(r.decisions.len(), QUICK_CHECKPOINTS.len());
    assert_eq!(
        journal.count_of("alloc_granted"),
        r.decisions.len(),
        "one granted event per decision"
    );
    for d in &r.decisions {
        let winner = d.explain.winner().expect("non-empty explain trace");
        assert_eq!(
            winner.nodes, d.nodes,
            "explain trace winner must match the broker's actual placement"
        );
        assert!((winner.total - d.cost).abs() < 1e-9);
        // ranking is ascending by total cost, as select_best ordered it
        for pair in d.explain.top.windows(2) {
            assert!(pair[0].total <= pair[1].total + 1e-12);
            assert!(pair[0].rank < pair[1].rank);
        }
        assert!(d.explain.margin >= 0.0);
        assert!(d.explain.considered >= d.explain.top.len());
        assert!(!d.explain.verdict.is_empty());
        // stale nodes never appear in an explained group
        for g in &d.explain.top {
            for n in &g.nodes {
                assert!(n.0 != 5 && n.0 != 6, "stale node {n} in candidate group");
            }
        }
    }

    // --- the oversized job defers on every pass and is journaled ---
    assert_eq!(r.deferred.len(), QUICK_CHECKPOINTS.len());
    assert!(r.deferred.iter().all(|(job, _)| job == "huge-64"));
    assert_eq!(journal.count_of("alloc_deferred"), r.deferred.len());

    // --- queue gauges reflect the final pass ---
    assert_eq!(metrics.gauge_value("broker_queue_depth"), 1.0);
    assert_eq!(metrics.gauge_value("broker_running_jobs"), 1.0);
}
