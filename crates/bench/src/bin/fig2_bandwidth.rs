//! Reproduces **Figure 2** of the paper: P2P bandwidth variation.
//!
//! * Fig. 2(a) — 30×30 heatmap of measured P2P bandwidth (averaged over 10
//!   probe sweeps): light/dark patches following topology with
//!   background-traffic fluctuation on top.
//! * Fig. 2(b) — bandwidth of three randomly-chosen node pairs over 48 h
//!   (5-minute probes): fluctuation around a topology-determined base.
//!
//! Output: `results/fig2a_heatmap.txt` (ASCII), `fig2a_bandwidth.csv`
//! (matrix), `fig2b_pairs.csv` (time series).

use nlrm_bench::heatmap;
use nlrm_bench::plot::{heatmap_svg, LinePlot};
use nlrm_bench::report::{self, write_result};
use nlrm_cluster::iitk::iitk30;
use nlrm_monitor::SymMatrix;
use nlrm_obs::Progress;
use nlrm_sim_core::series::TimeSeries;
use nlrm_sim_core::time::Duration;
use nlrm_topology::NodeId;

fn main() {
    let progress = Progress::start("fig2_bandwidth");
    let seed = report::seed(2020);
    let hours = if report::quick() { 6 } else { 48 };
    progress.block(format!(
        "== Fig. 2: P2P bandwidth variation (seed {seed}) ==\n"
    ));

    let mut cluster = iitk30(seed);
    cluster.advance(Duration::from_mins(30)); // settle

    // --- Fig. 2(a): 10-sweep average of the full matrix ---
    let n = cluster.num_nodes();
    let mut sum = SymMatrix::new(n, 0.0f64);
    for _ in 0..10 {
        cluster.advance(Duration::from_mins(5));
        for i in 0..n {
            for j in (i + 1)..n {
                let (u, v) = (NodeId(i as u32), NodeId(j as u32));
                let bw = cluster.measure_bandwidth_bps(u, v);
                sum.set(u, v, sum.get(u, v) + bw / 10.0);
            }
        }
    }
    // The paper's heatmap colors by bandwidth; ours shades by *complement*
    // (darker = less available), matching Fig. 7's convention.
    let mut complement = SymMatrix::new(n, 0.0f64);
    for (u, v, bw) in sum.pairs() {
        let peak = cluster.peak_bandwidth_bps(u, v);
        complement.set(u, v, (peak - bw).max(0.0) / 1e6); // Mbit/s
    }
    let labels: Vec<String> = (0..n)
        .map(|i| cluster.spec(NodeId(i as u32)).hostname.clone())
        .collect();
    let art = heatmap::render(&complement, &labels);
    progress.block("-- Fig. 2(a): complement of available bandwidth (Mbit/s), 10-sweep average --");
    progress.block(&art);
    write_result("fig2a_heatmap.txt", &art).expect("write result");
    write_result(
        "fig2a_heatmap.svg",
        &heatmap_svg(
            &complement,
            &labels,
            "Fig. 2(a): complement of available P2P bandwidth (Mbit/s)",
        ),
    )
    .expect("write result");

    let mut csv = String::from("u,v,avail_mbps,complement_mbps,same_switch\n");
    let mut same_sum = (0.0, 0usize);
    let mut cross_sum = (0.0, 0usize);
    for (u, v, bw) in sum.pairs() {
        let same = cluster.topology().switch_of(u) == cluster.topology().switch_of(v);
        csv.push_str(&format!(
            "{},{},{:.1},{:.1},{}\n",
            u.0,
            v.0,
            bw / 1e6,
            complement.get(u, v),
            same
        ));
        if same {
            same_sum = (same_sum.0 + bw / 1e6, same_sum.1 + 1);
        } else {
            cross_sum = (cross_sum.0 + bw / 1e6, cross_sum.1 + 1);
        }
    }
    write_result("fig2a_bandwidth.csv", &csv).expect("write result");
    progress.block(format!(
        "same-switch mean available: {:.0} Mbit/s over {} pairs; cross-switch: {:.0} Mbit/s over {} pairs",
        same_sum.0 / same_sum.1 as f64,
        same_sum.1,
        cross_sum.0 / cross_sum.1 as f64,
        cross_sum.1
    ));
    progress.block(
        "(paper: closer nodes have somewhat higher bandwidth, with strong per-pair variation)\n",
    );

    // --- Fig. 2(b): three pairs over 48 h at 5-minute probes ---
    // one same-switch pair, one adjacent-switch pair, one far pair
    let pairs = [
        (NodeId(1), NodeId(4)),
        (NodeId(2), NodeId(12)),
        (NodeId(5), NodeId(25)),
    ];
    let mut series: Vec<TimeSeries> = pairs
        .iter()
        .map(|&(u, v)| {
            TimeSeries::new(format!(
                "{}-{}",
                cluster.spec(u).hostname,
                cluster.spec(v).hostname
            ))
        })
        .collect();
    let probes = hours * 12;
    for _ in 0..probes {
        cluster.advance(Duration::from_mins(5));
        let t = cluster.now();
        for (s, &(u, v)) in series.iter_mut().zip(&pairs) {
            s.push(t, cluster.measure_bandwidth_bps(u, v) / 1e6);
        }
    }
    let refs: Vec<&TimeSeries> = series.iter().collect();
    write_result("fig2b_pairs.csv", &TimeSeries::to_csv(&refs)).expect("write result");
    let mut f2b = LinePlot::new("Fig. 2(b): P2P bandwidth over time", "hours", "Mbit/s");
    for s in &series {
        f2b.series(
            &s.name,
            s.points()
                .iter()
                .map(|&(t, v)| (t.as_secs_f64() / 3600.0, v))
                .collect(),
        );
    }
    write_result("fig2b_pairs.svg", &f2b.to_svg(760, 360)).expect("write result");
    for s in &series {
        let sm = s.summary().unwrap();
        progress.block(format!(
            "pair {:<18} mean {:>6.0} Mbit/s, min {:>6.0}, max {:>6.0}, CoV {:.2}",
            s.name,
            sm.mean,
            sm.min,
            sm.max,
            sm.cov()
        ));
    }
    progress
        .block("(paper: per-pair bandwidth fluctuates significantly around a topology base value)");
}
