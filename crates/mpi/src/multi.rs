//! Concurrent execution of several MPI jobs on one cluster.
//!
//! The paper's evaluation runs one job at a time, but its deployment story
//! (a broker for a shared cluster) implies *concurrent* jobs that steal CPU
//! from and congest links against each other. This module executes a set of
//! jobs event-interleaved in virtual time:
//!
//! * every job's runnable processes stay registered on its nodes for its
//!   whole lifetime (CPU interference),
//! * a job's per-step mean link utilization stays registered while the step
//!   runs (network interference),
//! * each step's duration is computed against the cluster residuals at the
//!   step's start — including everything the *other* jobs currently hold.
//!
//! Approximation (documented): rates are frozen per step; a job starting
//! mid-step of another affects that other job only from its next step on.

use crate::comm::Communicator;
use crate::exec::{rate_step, JobTiming};
use crate::pattern::Workload;
use nlrm_cluster::ClusterSim;
use nlrm_sim_core::event::EventQueue;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::LinkId;

/// One job in a concurrent set.
pub struct ConcurrentJob<'a> {
    /// Rank placement.
    pub comm: Communicator,
    /// The application.
    pub workload: &'a dyn Workload,
    /// Start offset relative to the call, in virtual seconds.
    pub start_offset_s: f64,
}

struct JobState {
    comm: Communicator,
    step: usize,
    timing: JobTiming,
    /// Link utils registered for the current in-flight step.
    live_utils: Vec<(LinkId, f64)>,
    started: bool,
    load_acc: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Start(usize),
    StepDone(usize),
}

/// Execute `jobs` concurrently; returns one [`JobTiming`] per job, in input
/// order. The cluster clock ends at the last completion.
pub fn execute_concurrent(cluster: &mut ClusterSim, jobs: &[ConcurrentJob]) -> Vec<JobTiming> {
    let t0 = cluster.now();
    let mut queue: EventQueue<Event> = EventQueue::new();
    // the event queue starts at 0 relative time; align by offsetting with t0
    let mut states: Vec<JobState> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            queue.push(
                t0 + Duration::from_secs_f64(j.start_offset_s),
                Event::Start(i),
            );
            JobState {
                comm: j.comm.clone(),
                step: 0,
                timing: JobTiming::default(),
                live_utils: Vec::new(),
                started: false,
                load_acc: 0.0,
            }
        })
        .collect();

    while let Some((t, event)) = queue.pop() {
        cluster.advance_to(t);
        match event {
            Event::Start(i) => {
                states[i].started = true;
                for (node, procs) in states[i].comm.placement() {
                    cluster.add_job_load(node, procs as f64);
                }
                schedule_next(cluster, &mut queue, &mut states, i, t, jobs);
            }
            Event::StepDone(i) => {
                // release this step's link utils
                for &(l, u) in &states[i].live_utils {
                    cluster.add_job_util(l, -u);
                }
                states[i].live_utils.clear();
                states[i].step += 1;
                states[i].timing.steps += 1;
                schedule_next(cluster, &mut queue, &mut states, i, t, jobs);
            }
        }
    }

    states
        .into_iter()
        .map(|mut s| {
            s.timing.mean_load_per_core = if s.timing.steps > 0 {
                s.load_acc / s.timing.steps as f64
            } else {
                0.0
            };
            s.timing
        })
        .collect()
}

fn schedule_next(
    cluster: &mut ClusterSim,
    queue: &mut EventQueue<Event>,
    states: &mut [JobState],
    i: usize,
    now: SimTime,
    jobs: &[ConcurrentJob],
) {
    if states[i].step >= jobs[i].workload.steps() {
        // job finished: release its CPU load
        for (node, procs) in states[i].comm.placement() {
            cluster.add_job_load(node, -(procs as f64));
        }
        return;
    }
    // every step registers utilization, so no step can reuse a rating
    let phase = jobs[i].workload.phase(states[i].step, &states[i].comm);
    let rate = rate_step(cluster, &states[i].comm, &phase);
    for &(l, u) in &rate.link_util {
        cluster.add_job_util(l, u);
    }
    let step_s = rate.compute_s + rate.comm_s;
    let state = &mut states[i];
    state.load_acc += rate.load_per_core;
    state.timing.compute_s += rate.compute_s;
    state.timing.comm_s += rate.comm_s;
    state.timing.total_s += step_s;
    state.live_utils = rate.link_util;
    queue.push(
        now + Duration::from_secs_f64(step_s.max(1e-9)),
        Event::StepDone(i),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::pattern::{Collective, Message, Phase};
    use nlrm_cluster::iitk::small_cluster_with_profile;
    use nlrm_cluster::ClusterProfile;
    use nlrm_topology::NodeId;

    struct Toy {
        steps: usize,
        gcycles: f64,
        msg_bytes: f64,
    }

    impl Workload for Toy {
        fn name(&self) -> String {
            "toy".into()
        }
        fn steps(&self) -> usize {
            self.steps
        }
        fn phase(&self, _step: usize, comm: &Communicator) -> Phase {
            let p = comm.size();
            let messages = if self.msg_bytes > 0.0 {
                (0..p)
                    .map(|i| Message {
                        src: i,
                        dst: (i + 1) % p,
                        bytes: self.msg_bytes,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            Phase {
                compute_gcycles: vec![self.gcycles; p],
                messages,
                collectives: vec![Collective::Barrier],
            }
        }
    }

    fn quiet(n: usize) -> ClusterSim {
        let mut c = small_cluster_with_profile(n, ClusterProfile::quiet(), 5);
        c.advance(Duration::from_secs(30));
        c
    }

    fn comm_on(nodes: &[u32], ppn: u32) -> Communicator {
        let mut map = Vec::new();
        for &n in nodes {
            for _ in 0..ppn {
                map.push(NodeId(n));
            }
        }
        Communicator::new(map)
    }

    #[test]
    fn single_job_matches_solo_executor() {
        let toy = Toy {
            steps: 5,
            gcycles: 1.0,
            msg_bytes: 1e5,
        };
        let comm = comm_on(&[0, 1], 4);
        let solo = execute(&mut quiet(4), &comm, &toy);
        let multi = execute_concurrent(
            &mut quiet(4),
            &[ConcurrentJob {
                comm,
                workload: &toy,
                start_offset_s: 0.0,
            }],
        );
        assert_eq!(multi.len(), 1);
        assert!(
            (multi[0].total_s - solo.total_s).abs() / solo.total_s < 0.05,
            "solo {} vs multi {}",
            solo.total_s,
            multi[0].total_s
        );
        assert_eq!(multi[0].steps, 5);
    }

    #[test]
    fn disjoint_jobs_barely_interfere() {
        let toy = Toy {
            steps: 5,
            gcycles: 1.0,
            msg_bytes: 1e5,
        };
        let solo = execute(&mut quiet(8), &comm_on(&[0, 1], 4), &toy);
        let multi = execute_concurrent(
            &mut quiet(8),
            &[
                ConcurrentJob {
                    comm: comm_on(&[0, 1], 4),
                    workload: &toy,
                    start_offset_s: 0.0,
                },
                ConcurrentJob {
                    comm: comm_on(&[4, 5], 4),
                    workload: &toy,
                    start_offset_s: 0.0,
                },
            ],
        );
        for t in &multi {
            assert!(
                (t.total_s - solo.total_s).abs() / solo.total_s < 0.15,
                "disjoint job perturbed: solo {} vs {}",
                solo.total_s,
                t.total_s
            );
        }
    }

    #[test]
    fn colocated_jobs_slow_each_other_down() {
        // two 6-ppn jobs on the same 8-core nodes: 12 runnable processes on
        // 8 cores → each job's compute stretches by ~12/8 = 1.5×
        let toy = Toy {
            steps: 5,
            gcycles: 2.0,
            msg_bytes: 0.0,
        };
        let solo = execute(&mut quiet(2), &comm_on(&[0, 1], 6), &toy);
        let multi = execute_concurrent(
            &mut quiet(2),
            &[
                ConcurrentJob {
                    comm: comm_on(&[0, 1], 6),
                    workload: &toy,
                    start_offset_s: 0.0,
                },
                ConcurrentJob {
                    comm: comm_on(&[0, 1], 6),
                    workload: &toy,
                    start_offset_s: 0.0,
                },
            ],
        );
        for t in &multi {
            assert!(
                t.compute_s > solo.compute_s * 1.3,
                "colocated job should slow: solo {} vs {}",
                solo.compute_s,
                t.compute_s
            );
        }
        // and exact saturation (4+4 on 8 cores) must NOT slow compute
        let fit = Toy {
            steps: 3,
            gcycles: 1.0,
            msg_bytes: 0.0,
        };
        let solo_fit = execute(&mut quiet(2), &comm_on(&[0, 1], 4), &fit);
        let multi_fit = execute_concurrent(
            &mut quiet(2),
            &[
                ConcurrentJob {
                    comm: comm_on(&[0, 1], 4),
                    workload: &fit,
                    start_offset_s: 0.0,
                },
                ConcurrentJob {
                    comm: comm_on(&[0, 1], 4),
                    workload: &fit,
                    start_offset_s: 0.0,
                },
            ],
        );
        for t in &multi_fit {
            assert!(
                t.compute_s < solo_fit.compute_s * 1.15,
                "exactly-saturating jobs should not contend: solo {} vs {}",
                solo_fit.compute_s,
                t.compute_s
            );
        }
    }

    #[test]
    fn network_sharing_slows_comm() {
        // same nodes' links: both jobs hammer node0<->node1
        let heavy = Toy {
            steps: 4,
            gcycles: 0.01,
            msg_bytes: 5e6,
        };
        let solo = execute(&mut quiet(4), &comm_on(&[0, 1], 1), &heavy);
        let multi = execute_concurrent(
            &mut quiet(4),
            &[
                ConcurrentJob {
                    comm: comm_on(&[0, 1], 1),
                    workload: &heavy,
                    start_offset_s: 0.0,
                },
                ConcurrentJob {
                    comm: comm_on(&[0, 1], 1),
                    workload: &heavy,
                    start_offset_s: 0.0,
                },
            ],
        );
        // the second-planned steps see the first job's utils; over the run
        // at least one job must pay noticeably more than solo
        let worst = multi.iter().map(|t| t.comm_s).fold(0.0f64, f64::max);
        assert!(
            worst > solo.comm_s * 1.3,
            "link sharing should slow comm: solo {} vs worst {}",
            solo.comm_s,
            worst
        );
    }

    #[test]
    fn start_offsets_are_respected() {
        let toy = Toy {
            steps: 3,
            gcycles: 1.0,
            msg_bytes: 0.0,
        };
        let mut cluster = quiet(4);
        let t0 = cluster.now();
        let timings = execute_concurrent(
            &mut cluster,
            &[
                ConcurrentJob {
                    comm: comm_on(&[0], 2),
                    workload: &toy,
                    start_offset_s: 0.0,
                },
                ConcurrentJob {
                    comm: comm_on(&[2], 2),
                    workload: &toy,
                    start_offset_s: 100.0,
                },
            ],
        );
        // cluster clock must cover offset + second job's duration
        let elapsed = (cluster.now() - t0).as_secs_f64();
        assert!(
            elapsed >= 100.0 + timings[1].total_s * 0.9,
            "elapsed {elapsed}"
        );
    }

    #[test]
    fn all_job_load_is_released() {
        let toy = Toy {
            steps: 2,
            gcycles: 0.5,
            msg_bytes: 1e5,
        };
        let mut cluster = quiet(4);
        let before: f64 = (0..4).map(|i| cluster.node_state(NodeId(i)).cpu_load).sum();
        execute_concurrent(
            &mut cluster,
            &[
                ConcurrentJob {
                    comm: comm_on(&[0, 1], 4),
                    workload: &toy,
                    start_offset_s: 0.0,
                },
                ConcurrentJob {
                    comm: comm_on(&[1, 2], 4),
                    workload: &toy,
                    start_offset_s: 5.0,
                },
            ],
        );
        let after: f64 = (0..4).map(|i| cluster.node_state(NodeId(i)).cpu_load).sum();
        // only background drift should remain (quiet profile: small)
        assert!(
            (after - before).abs() < 1.0,
            "leaked load: {before} -> {after}"
        );
    }

    #[test]
    fn empty_job_list_is_a_noop() {
        let mut cluster = quiet(2);
        let t0 = cluster.now();
        let timings = execute_concurrent(&mut cluster, &[]);
        assert!(timings.is_empty());
        assert_eq!(cluster.now(), t0);
    }
}
