//! The traced multi-job faulted-broker scenario behind `trace_report`.
//!
//! Same fault storyline as [`crate::obs_scenario`] (daemon kills, a
//! master failover, a headless supervision plane), but every granted
//! job actually *executes* on the master cluster through the traced MPI
//! executor. Each job's trace therefore covers its whole lifecycle:
//!
//! - the root `job` span opened by the broker at submission,
//! - a `queue_wait` span from submission to grant (jobs are submitted
//!   *before* the cluster advances to the next scheduling pass, so the
//!   wait is a real, nonzero critical-path segment),
//! - `scoring` / `placement` instants from the allocator,
//! - the per-step / per-rank / per-collective execution subtree from
//!   [`nlrm_mpi::execute_traced`],
//! - the root closed by
//!   [`Broker::complete_at`](nlrm_core::broker::Broker::complete_at) when
//!   the job finishes.
//!
//! The result carries the observer (spans + journal + metrics) and a
//! per-job record, enough to build critical paths and a Chrome trace
//! for every job.

use crate::scenario::{self, ScenarioSpec};
use nlrm_apps::MiniMd;
use nlrm_core::broker::{BrokerEvent, JobId};
use nlrm_mpi::{execute_traced, Communicator, JobTiming, TraceCtx};
use nlrm_obs::{Obs, TraceId};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::collections::BTreeMap;

/// One job's full traced lifecycle.
#[derive(Debug, Clone)]
pub struct TracedJob {
    /// Job display name.
    pub name: String,
    /// The trace every span and journal line of this job carries.
    pub trace: TraceId,
    /// Virtual time the broker accepted the submission.
    pub submitted_at: SimTime,
    /// Virtual time the broker granted the allocation.
    pub granted_at: SimTime,
    /// Virtual time the job finished executing.
    pub completed_at: SimTime,
    /// The nodes it ran on.
    pub nodes: Vec<NodeId>,
    /// Executor timing breakdown.
    pub timing: JobTiming,
}

impl TracedJob {
    /// Time spent queued: grant minus submission.
    pub fn queue_wait(&self) -> Duration {
        self.granted_at - self.submitted_at
    }

    /// Whole-lifecycle duration: completion minus submission. Equals the
    /// root `job` span's duration, and therefore the critical-path total.
    pub fn lifecycle(&self) -> Duration {
        self.completed_at - self.submitted_at
    }
}

/// Everything the traced scenario produced.
#[derive(Debug, Clone)]
pub struct TraceScenarioResult {
    /// Spans + journal + metrics captured during the run.
    pub obs: Obs,
    /// Executed jobs in completion order.
    pub jobs: Vec<TracedJob>,
    /// `(job, reason)` per deferral, in occurrence order.
    pub deferred: Vec<(String, String)>,
}

/// Timesteps each 16-rank MiniMd runs for. Small enough that a job
/// finishes well before the next checkpoint, large enough that the
/// execution subtree dominates its critical path.
const JOB_STEPS: usize = 10;

/// Run the faulted broker storyline with traced job execution.
///
/// At each checkpoint a fresh 16-process job — submitted back when the
/// *previous* checkpoint's work ended, so it has queued across the gap —
/// is granted, executed to completion via [`execute_traced`], and
/// completed through the broker. An oversized 64-process job submitted
/// up front stays queued forever, producing `defer` spans every pass.
pub fn run_traced_broker_scenario(seed: u64, checkpoints: &[u64]) -> TraceScenarioResult {
    assert!(!checkpoints.is_empty(), "need at least one checkpoint");
    let mut spec = ScenarioSpec::new("trace-report", seed, checkpoints);
    spec.faulted = true;
    spec.submit_huge = true;
    spec.journal_capacity = 64 * 1024;
    let mut scen = scenario::setup(&spec);
    let huge = *scen
        .names
        .keys()
        .next()
        .expect("setup submits the oversized starver");

    let mut jobs = Vec::new();
    let mut deferred = Vec::new();
    let mut submit_times: BTreeMap<JobId, SimTime> = BTreeMap::new();
    for (i, &cp) in checkpoints.iter().enumerate() {
        // Submit now, schedule at the checkpoint: the job queues across
        // the gap and its trace gets a real queue_wait segment.
        let submitted_at = scen.env.cluster.now();
        let id = scen.submit(&format!("md16-{i}"), 16);
        submit_times.insert(id, submitted_at);

        let target = SimTime::from_secs(cp);
        scen.env.advance(target - scen.env.cluster.now());
        let snap = scen.env.snapshot();
        for event in scen.broker.tick(&snap) {
            match event {
                BrokerEvent::Started(lease) => {
                    let granted_at = snap.taken_at;
                    let comm = Communicator::new(lease.allocation.rank_map.clone());
                    let workload = MiniMd::new(16).with_steps(JOB_STEPS);
                    let tc = TraceCtx {
                        trace: lease.trace,
                        parent: lease.root_span,
                    };
                    let timing = execute_traced(&mut scen.env.cluster, &comm, &workload, Some(&tc));
                    let completed_at = scen.env.cluster.now();
                    jobs.push(TracedJob {
                        name: lease.name.clone(),
                        trace: lease.trace,
                        submitted_at: submit_times.get(&lease.id).copied().unwrap_or(granted_at),
                        granted_at,
                        completed_at,
                        nodes: lease.allocation.node_list(),
                        timing,
                    });
                    scen.broker.complete_at(lease.id, completed_at);
                }
                BrokerEvent::Deferred { id, reason } => {
                    deferred.push((scen.job_name(id), reason));
                }
            }
        }
    }

    // The oversized job will never fit; withdraw it so its trace closes
    // (its root span covers the whole queued lifetime, annotated
    // `cancelled`).
    let now = scen.env.cluster.now();
    scen.broker.cancel_at(huge, now);

    let fin = scen.finish();
    TraceScenarioResult {
        obs: fin.obs,
        jobs,
        deferred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs_scenario::QUICK_CHECKPOINTS;

    #[test]
    fn traced_scenario_produces_complete_traces() {
        let r = run_traced_broker_scenario(7, QUICK_CHECKPOINTS);
        assert_eq!(r.jobs.len(), QUICK_CHECKPOINTS.len());
        assert!(!r.deferred.is_empty(), "oversized job never deferred");
        assert_eq!(r.obs.spans.open_count(), 0, "all spans must be closed");
        for job in &r.jobs {
            assert!(
                job.queue_wait() > Duration::ZERO,
                "{} never queued",
                job.name
            );
            let root = r
                .obs
                .spans
                .root_of(job.trace)
                .unwrap_or_else(|| panic!("{} has no root span", job.name));
            assert_eq!(root.kind, "job");
            assert_eq!(root.duration(), job.lifecycle());
            let path = r
                .obs
                .spans
                .critical_path(job.trace)
                .unwrap_or_else(|| panic!("{} has no critical path", job.name));
            assert_eq!(path.total(), job.lifecycle());
        }
    }
}
