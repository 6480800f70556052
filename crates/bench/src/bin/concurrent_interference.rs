//! Extension experiment: concurrent-job interference.
//!
//! Two users submit identical miniMD jobs at the same time. Three worlds:
//!
//! * **sequential** — jobs run one after another (the paper's protocol),
//! * **concurrent, reservation-aware** — the broker places them on
//!   *disjoint* good nodes (its reservation accounting at work),
//! * **concurrent, naive** — both users independently pick the same "best"
//!   nodes (what happens without a broker: everyone's monitoring points to
//!   the same quiet corner of the cluster).
//!
//! Output: `results/concurrent_interference.csv`.

use nlrm_apps::MiniMd;
use nlrm_bench::report::{self, fmt_secs, write_result, Table};
use nlrm_bench::runner::Experiment;
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::broker::{Broker, BrokerConfig, BrokerEvent};
use nlrm_core::{AllocationRequest, NetworkLoadAwarePolicy, Policy};
use nlrm_mpi::multi::{execute_concurrent, ConcurrentJob};
use nlrm_mpi::{execute, Communicator};
use nlrm_obs::Progress;
use nlrm_sim_core::time::Duration;

fn main() {
    let progress = Progress::start("concurrent_interference");
    let quick = report::quick();
    let seed = report::seed(2029);
    let reps = if quick { 2 } else { 5 };
    let steps = if quick { 30 } else { 100 };

    progress.block(format!(
        "== Concurrent-job interference (reps {reps}, seed {seed}) ==\n"
    ));
    let mut env = Experiment::new(iitk_cluster(seed));
    env.advance(Duration::from_secs(600));
    let workload = MiniMd::new(16).with_steps(steps);
    let req = AllocationRequest::minimd(32);

    let mut sums = [0.0f64; 3]; // sequential, broker, naive
    let mut csv = String::from("setting,rep,job,time_s\n");
    for rep in 0..reps {
        env.advance(Duration::from_secs(300));
        let snap = env.snapshot();

        // --- sequential baseline: two NLA runs one after another ---
        let alloc = NetworkLoadAwarePolicy::new().allocate(&snap, &req).unwrap();
        let comm = Communicator::new(alloc.rank_map.clone());
        let mut c = env.cluster.clone();
        let t1 = execute(&mut c, &comm, &workload);
        let t2 = execute(&mut c, &comm, &workload);
        sums[0] += t1.total_s + t2.total_s;
        csv.push_str(&format!("sequential,{rep},0,{:.4}\n", t1.total_s));
        csv.push_str(&format!("sequential,{rep},1,{:.4}\n", t2.total_s));

        // --- broker: reservation-aware disjoint placement ---
        let mut broker = Broker::new(BrokerConfig {
            max_load_per_core: None,
            ..BrokerConfig::default()
        });
        broker.submit("a", req.clone()).unwrap();
        broker.submit("b", req.clone()).unwrap();
        let leases: Vec<_> = broker
            .tick(&snap)
            .into_iter()
            .filter_map(|e| match e {
                BrokerEvent::Started(l) => Some(l),
                BrokerEvent::Deferred { .. } => None,
            })
            .collect();
        assert_eq!(leases.len(), 2, "60-node cluster fits two 8-node jobs");
        let jobs: Vec<ConcurrentJob> = leases
            .iter()
            .map(|l| ConcurrentJob {
                comm: Communicator::new(l.allocation.rank_map.clone()),
                workload: &workload,
                start_offset_s: 0.0,
            })
            .collect();
        let timings = execute_concurrent(&mut env.cluster.clone(), &jobs);
        for (j, t) in timings.iter().enumerate() {
            sums[1] += t.total_s;
            csv.push_str(&format!("broker,{rep},{j},{:.4}\n", t.total_s));
        }

        // --- naive: both users pick the same "best" nodes ---
        let jobs: Vec<ConcurrentJob> = (0..2)
            .map(|_| ConcurrentJob {
                comm: Communicator::new(alloc.rank_map.clone()),
                workload: &workload,
                start_offset_s: 0.0,
            })
            .collect();
        let timings = execute_concurrent(&mut env.cluster.clone(), &jobs);
        for (j, t) in timings.iter().enumerate() {
            sums[2] += t.total_s;
            csv.push_str(&format!("naive,{rep},{j},{:.4}\n", t.total_s));
        }
    }

    let denom = (reps * 2) as f64;
    let mut table = Table::new(&["setting", "mean job time (s)", "vs sequential"]);
    for (i, name) in [
        "sequential (one at a time)",
        "concurrent, broker-disjoint",
        "concurrent, naive overlap",
    ]
    .iter()
    .enumerate()
    {
        table.row(&[
            name.to_string(),
            fmt_secs(sums[i] / denom),
            format!("{:+.0}%", (sums[i] / sums[0] - 1.0) * 100.0),
        ]);
    }
    progress.block(table.to_markdown());
    progress.block("(broker-disjoint should sit near sequential; naive overlap pays for\n sharing cores and links between both jobs)");
    write_result("concurrent_interference.csv", &csv).expect("write result");
}
