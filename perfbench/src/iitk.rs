//! `iitk-paper`: the paper's §5 protocol as a closed loop.
//!
//! One job at a time on the 60-node IIT-K cluster under the central
//! monitor: advance 300 s of virtual time, assemble a snapshot, allocate
//! with `NetworkLoadAwarePolicy`, and execute the job on a clone of the
//! cluster (so every job meets the master timeline, as in the paper).
//! Jobs alternate miniMD (s = 24, 100 steps) and miniFE (nx = 96, 200 CG
//! iterations) and cycle 8/16/32/64 processes.
//!
//! The traced run splits the decision into `Loads::derive` →
//! `generate_all_candidates` → `select_best` and checks that the split
//! picks the group `Policy::allocate` picks.

use crate::trace::Tracer;
use crate::{check_allocation, obs_counter, Scenario, Tally};
use nlrm_apps::{MiniFe, MiniMd};
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_cluster::ClusterSim;
use nlrm_core::candidate::generate_all_candidates;
use nlrm_core::select::select_best;
use nlrm_core::{Allocation, AllocationRequest, Loads, NetworkLoadAwarePolicy, Policy};
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime};
use nlrm_mpi::{execute, Communicator, JobTiming};
use nlrm_sim_core::time::Duration;

/// Steps (jobs) every run makes.
pub const PREFIX_STEPS: u64 = 48;
/// Set-up repetitions per untraced run.
pub const SETUPS: usize = 30;

const PROCS: [u32; 4] = [8, 16, 32, 64];
/// Jobs in one cycle: both applications at every size.
pub const CYCLE_STEPS: u64 = 2 * PROCS.len() as u64;
/// Virtual seconds between job launches.
const GAP_S: u64 = 300;
/// Monitor warm-up, virtual seconds: one full bandwidth sweep plus a minute.
const WARMUP_S: u64 = 360;

/// Live state of the workload.
pub struct Iitk {
    cluster: ClusterSim,
    monitor: MonitorRuntime,
    policy: NetworkLoadAwarePolicy,
    job: u64,
    // prefix accumulators
    cost_sum: f64,
    runtime_sum: f64,
    steps_sum: f64,
    comm_sum: f64,
    jobs_in_prefix: u64,
    pairs_at_prefix: u64,
    probe_bytes_at_prefix: u64,
    derives_at_prefix: u64,
    prefix_steps: u64,
}

/// The request and application of job `j`.
fn job(j: u64) -> (AllocationRequest, Box<dyn nlrm_mpi::Workload>) {
    let procs = PROCS[(j / 2) as usize % PROCS.len()];
    if j.is_multiple_of(2) {
        (
            AllocationRequest::minimd(procs),
            Box::new(MiniMd::new(24).with_steps(100)),
        )
    } else {
        (AllocationRequest::minife(procs), Box::new(MiniFe::new(96)))
    }
}

impl Iitk {
    /// The decision as the traced run sees it: the stage split under child
    /// spans, then `Policy::allocate` for the winner check.
    fn traced_decision(
        &mut self,
        tr: &mut Tracer,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
        tally: &mut Tally,
    ) -> Option<Allocation> {
        tr.enter("decision");
        tr.enter("loads.derive");
        let loads = Loads::derive(snap, &req.compute_weights, &req.network_weights, req.ppn);
        tr.exit();
        let split = loads.ok().and_then(|loads| {
            tr.enter("candidate.generate");
            let cands = generate_all_candidates(&loads, req.procs, req.alpha, req.beta);
            tr.exit();
            if cands.is_empty() {
                return None;
            }
            tr.enter("select.select_best");
            let sel = select_best(&loads, &cands, req.alpha, req.beta);
            tr.exit();
            Some(cands[sel.best].assignment())
        });
        tr.exit();
        tr.enter("policy.allocate");
        let alloc = self.policy.allocate(snap, req).ok();
        tr.exit();
        if split != alloc.as_ref().map(|a| a.nodes.clone()) {
            tally.violation(format!(
                "job {}: stage split picked {split:?}, Policy::allocate {:?}",
                self.job,
                alloc.as_ref().map(|a| &a.nodes)
            ));
        }
        alloc
    }
}

impl Scenario for Iitk {
    fn setup(seed: u64) -> Iitk {
        let mut cluster = iitk_cluster(seed);
        let mut monitor = MonitorRuntime::new(&cluster);
        let target = cluster.now() + Duration::from_secs(WARMUP_S);
        monitor.run_until(&mut cluster, target);
        Iitk {
            cluster,
            monitor,
            policy: NetworkLoadAwarePolicy::new(),
            job: 0,
            cost_sum: 0.0,
            runtime_sum: 0.0,
            steps_sum: 0.0,
            comm_sum: 0.0,
            jobs_in_prefix: 0,
            pairs_at_prefix: 0,
            probe_bytes_at_prefix: 0,
            derives_at_prefix: 0,
            prefix_steps: 0,
        }
    }

    fn step(&mut self, tr: &mut Tracer, tally: &mut Tally, in_prefix: bool) {
        let (req, app) = job(self.job);
        tr.enter("monitor.run_until");
        let target = self.cluster.now() + Duration::from_secs(GAP_S);
        self.monitor.run_until(&mut self.cluster, target);
        tr.exit();
        tr.enter("snapshot.assemble");
        let snap = self.monitor.snapshot(self.cluster.now());
        tr.exit();
        let snap = match snap {
            Ok(s) => s,
            Err(e) => {
                tally.attempted += 1;
                tally.failed += 1;
                tally.violation(format!("job {}: no snapshot: {e}", self.job));
                self.job += 1;
                return;
            }
        };

        tally.attempted += 1;
        let alloc = if tr.is_on() {
            self.traced_decision(tr, &snap, &req, tally)
        } else {
            let t0 = std::time::Instant::now();
            let alloc = self.policy.allocate(&snap, &req);
            tally.decision_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            alloc.ok()
        };
        let Some(alloc) = alloc else {
            tally.failed += 1;
            tally.violation(format!("job {}: allocation failed", self.job));
            self.job += 1;
            return;
        };
        check_allocation(&alloc, &req, &snap, tally);

        tr.enter("cluster.clone");
        let mut clone = self.cluster.clone();
        tr.exit();
        tr.enter("mpi.execute");
        let comm = Communicator::new(alloc.rank_map.clone());
        let timing: JobTiming = execute(&mut clone, &comm, app.as_ref());
        drop(clone);
        tr.exit();
        if timing.total_s.is_nan() || timing.total_s <= 0.0 {
            tally.violation(format!("job {}: ran for {} s", self.job, timing.total_s));
        }
        tally.jobs += 1;
        if in_prefix {
            self.cost_sum += crate::relative_cost(&alloc.diagnostics);
            self.runtime_sum += timing.total_s;
            self.steps_sum += timing.steps as f64;
            self.comm_sum += timing.comm_fraction();
            self.jobs_in_prefix += 1;
        }
        self.job += 1;
    }

    fn end_prefix(&mut self, steps: u64) {
        self.prefix_steps = steps;
        self.pairs_at_prefix = obs_counter("monitor_pair_measurements_total");
        self.probe_bytes_at_prefix = obs_counter("monitor_probe_bytes_total");
        self.derives_at_prefix = obs_counter("loads_derive_total");
    }

    fn finish(&mut self, _tally: &mut Tally) {}

    fn prefix_metrics(&self) -> Vec<(&'static str, f64)> {
        let jobs = self.jobs_in_prefix.max(1) as f64;
        let steps = self.prefix_steps.max(1) as f64;
        vec![
            ("winner_cost_mean", self.cost_sum / jobs),
            ("mpi.job_runtime_mean_s", self.runtime_sum / jobs),
            ("mpi.steps", self.steps_sum / jobs),
            ("mpi.comm_fraction", self.comm_sum / jobs),
            (
                "monitor.pair_measurements",
                self.pairs_at_prefix as f64 / steps,
            ),
            (
                "monitor.probe_bytes",
                self.probe_bytes_at_prefix as f64 / steps,
            ),
            (
                "loads.derive_calls_per_tick",
                self.derives_at_prefix as f64 / steps,
            ),
        ]
    }
}
