//! Reproduces **Table 4 and Figure 7** of the paper: the resource-allocation
//! analysis for one miniMD run (32 processes, 4 per node, s = 16).
//!
//! Table 4 reports, for the 8-node group each policy chose: the average CPU
//! load, the average complement-of-available-bandwidth, and the average
//! latency over all P2P links inside the group — at allocation time.
//!
//! Figure 7 shows the cluster state behind those numbers: the P2P bandwidth
//! heatmap, which nodes each policy selected, and each node's CPU load.
//!
//! Outputs: `results/table4_group_state.md`, `results/fig7_analysis.txt`.

use nlrm_apps::MiniMd;
use nlrm_bench::heatmap;
use nlrm_bench::plot::heatmap_svg;
use nlrm_bench::report::{self, write_result, Table};
use nlrm_bench::runner::{paper_policies, Experiment};
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::AllocationRequest;
use nlrm_monitor::SymMatrix;
use nlrm_obs::Progress;
use nlrm_sim_core::time::Duration;
use nlrm_topology::NodeId;

fn main() {
    let progress = Progress::start("table4_fig7");
    let seed = report::seed(2022);
    progress.block(format!(
        "== Table 4 / Fig. 7: allocation analysis, miniMD 32 procs, s=16 (seed {seed}) ==\n"
    ));

    let mut env = Experiment::new(iitk_cluster(seed));
    env.advance(Duration::from_secs(900));
    let snap = env.snapshot();
    let req = AllocationRequest::minimd(32);
    let workload = MiniMd::new(16);

    let mut table4 = Table::new(&[
        "Algorithm",
        "Avg. CPU load",
        "Avg. complement BW (Mbit/s)",
        "Avg. latency (us)",
        "Execution time (s)",
    ]);
    let mut fig7 = String::new();

    // Fig. 7 top: the bandwidth heatmap at allocation time (complement, so
    // darker = less available, matching the paper's shading).
    let n = env.cluster.num_nodes();
    let mut complement = SymMatrix::new(n, 0.0f64);
    for (u, v) in snap.node_pairs() {
        let peak = snap.peak_bandwidth_bps(u, v);
        if peak.is_finite() {
            complement.set(u, v, (peak - snap.bandwidth_bps(u, v)).max(0.0) / 1e6);
        }
    }
    let labels: Vec<String> = (0..n)
        .map(|i| env.cluster.spec(NodeId(i as u32)).hostname.clone())
        .collect();
    fig7.push_str(
        "P2P complement-of-available-bandwidth at allocation time (darker = less available):\n",
    );
    fig7.push_str(&heatmap::render(&complement, &labels));
    fig7.push('\n');

    let mut results = Vec::new();
    for mut policy in paper_policies(seed) {
        let r = env
            .run_policy(policy.as_mut(), &snap, &req, &workload)
            .expect("allocation failed");
        let group = r.allocation.node_list();

        // Table 4 columns, computed exactly as the paper describes (§5.3)
        let avg_load: f64 = group
            .iter()
            .map(|&u| snap.info(u).unwrap().sample.cpu_load.m1)
            .sum::<f64>()
            / group.len() as f64;
        let mut cbw = 0.0;
        let mut lat = 0.0;
        let mut pairs = 0usize;
        for (i, &u) in group.iter().enumerate() {
            for &v in &group[i + 1..] {
                let peak = snap.peak_bandwidth_bps(u, v);
                cbw += (peak - snap.bandwidth_bps(u, v)).max(0.0) / 1e6;
                lat += snap.latency(u, v).instant * 1e6;
                pairs += 1;
            }
        }
        let (cbw, lat) = (cbw / pairs as f64, lat / pairs as f64);
        table4.row(&[
            r.policy.clone(),
            format!("{avg_load:.3}"),
            format!("{cbw:.0}"),
            format!("{lat:.0}"),
            format!("{:.2}", r.timing.total_s),
        ]);

        // Fig. 7 middle: the selection strip; bottom: per-node CPU load
        fig7.push_str(&format!(
            "{:<22} {}\n",
            r.policy,
            heatmap::selection_strip(n, &group)
        ));
        results.push(r);
    }
    fig7.push_str(&format!(
        "{:<22} {}\n",
        "switch boundaries",
        (0..n)
            .map(|i| if i % 15 == 0 && i > 0 { '|' } else { ' ' })
            .collect::<String>()
    ));
    fig7.push_str("\nper-node CPU load (1-min mean) at allocation time:\n");
    for i in 0..n {
        let node = NodeId(i as u32);
        if let Some(info) = snap.info(node) {
            fig7.push_str(&format!(
                "{:>8}: {:>6.2} {}\n",
                info.sample.spec.hostname,
                info.sample.cpu_load.m1,
                "#".repeat((info.sample.cpu_load.m1.min(30.0) * 2.0) as usize)
            ));
        }
    }

    progress.block("-- Table 4: state of each policy's allocated group --");
    progress.block(table4.to_markdown());
    progress.block("(paper: NLA group had the lowest complement BW and latency, and\n low CPU load — slightly above load-aware's — yet ran fastest)\n");
    progress.block(&fig7);
    write_result("table4_group_state.md", &table4.to_markdown()).expect("write result");
    write_result("fig7_analysis.txt", &fig7).expect("write result");
    write_result(
        "fig7_heatmap.svg",
        &heatmap_svg(
            &complement,
            &labels,
            "Fig. 7: complement of available P2P bandwidth at allocation time",
        ),
    )
    .expect("write result");

    // headline sanity line like the paper's §5.3 narrative
    let by_policy = |name: &str| {
        results
            .iter()
            .find(|r| r.policy == name)
            .map(|r| r.timing.total_s)
            .unwrap_or(f64::NAN)
    };
    progress.block(format!(
        "execution times: NLA {:.2} s | load-aware {:.2} s | sequential {:.2} s | random {:.2} s",
        by_policy("network-load-aware"),
        by_policy("load-aware"),
        by_policy("sequential"),
        by_policy("random"),
    ));
}
