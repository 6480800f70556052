//! Integration test: the continuous-telemetry loop distinguishes a
//! degraded cluster from a healthy one. The faulted broker scenario must
//! produce a staleness-surge anomaly (dead node-state daemons aging past
//! the bound) and a starvation anomaly (the 64-proc job that can never
//! fit), while the identical fault-free run stays anomaly-silent — the
//! detectors have to be detectors, not noise generators.

use nlrm::bench::scenario::{self, ScenarioRun, ScenarioSpec, QUICK_CHECKPOINTS};
use nlrm::obs::AnomalyKind;
use nlrm_sim_core::time::SimTime;

/// One telemetry arm; the faulted one also submits the 64-proc starver.
fn telemetry_run(faulted: bool) -> ScenarioRun {
    let mut spec = ScenarioSpec::new("obs-report", 2025, QUICK_CHECKPOINTS);
    spec.faulted = faulted;
    spec.submit_huge = faulted;
    spec.telemetry = true;
    scenario::run(&spec.standard_arrivals(16))
}

#[test]
fn faulted_run_raises_anomalies_and_clean_run_stays_silent() {
    let faulted = telemetry_run(true);
    let clean = telemetry_run(false);

    // --- the telemetry loop actually ran on both arms ---
    assert!(
        faulted.obs.telemetry.ticks() > 10,
        "30 s cadence over 1300 s"
    );
    assert!(clean.obs.telemetry.ticks() > 10);

    // --- faulted arm: staleness surge after the headless kills ---
    let anomalies = faulted.obs.telemetry.anomalies();
    let surge = anomalies
        .iter()
        .find(|a| a.kind == AnomalyKind::StalenessSurge)
        .expect("n5/n6 samples age past the bound after t=950");
    // kills land at t=950, staleness bound is 60 s, and the broker only
    // derives (publishing the stale fraction) at the t=1100 checkpoint
    assert!(surge.at >= SimTime::from_secs(1010));
    assert!(surge.value > surge.threshold);

    // --- faulted arm: the oversized job starves ---
    assert!(
        anomalies.iter().any(|a| a.kind == AnomalyKind::Starvation),
        "huge-64 waits past the starvation bound with the queue non-empty"
    );

    // --- anomalies reach the journal as typed events, with counters ---
    let events = faulted.obs.journal.events_of("anomaly_detected");
    assert_eq!(events.len(), anomalies.len());
    assert_eq!(
        faulted.obs.metrics.counter_value("anomaly_total"),
        anomalies.len() as u64
    );
    assert!(
        faulted
            .obs
            .metrics
            .counter_value("anomaly_total_staleness_surge")
            >= 1
    );

    // --- health snapshot reflects the degradation ---
    let health = faulted.obs.telemetry.latest_health().expect("ticked");
    assert!(
        health.stale_fraction >= 0.25 - 1e-9,
        "2 of 8 nodes stale: {}",
        health.stale_fraction
    );
    assert!(health.queue_depth >= 1, "huge-64 still queued");
    assert!(health.oldest_wait_secs > 600.0);

    // --- clean arm: zero anomalies, zero breach events ---
    let clean_anoms = clean.obs.telemetry.anomalies();
    assert!(
        clean_anoms.is_empty(),
        "clean run must stay silent, got {clean_anoms:?}"
    );
    assert_eq!(clean.obs.journal.count_of("anomaly_detected"), 0);
    let clean_health = clean.obs.telemetry.latest_health().expect("ticked");
    assert_eq!(clean_health.stale_fraction, 0.0);

    // --- the sampler captured series on both arms ---
    for r in [&faulted, &clean] {
        let tel = r.obs.telemetry.to_json();
        nlrm::obs::json::validate(&tel).expect("telemetry JSON is valid");
        assert!(tel.contains("health_utilization"), "gauge series tracked");
    }
}
