//! Reproduces **Figure 1** of the paper: two days of resource-usage
//! variation on the shared cluster.
//!
//! * Fig. 1(a) — CPU load of two nodes (A, B) and the 20-node average.
//! * Fig. 1(b) — network I/O (NIC flow rate) of the same nodes + average.
//! * Fig. 1(c) — average CPU utilization and memory usage across nodes.
//!
//! Output: `results/fig1a_cpu_load.csv`, `fig1b_network_io.csv`,
//! `fig1c_util_mem.csv` (one row per 10-minute bucket over 48 h) plus a
//! stdout summary against the paper's reported bands.

use nlrm_bench::plot::LinePlot;
use nlrm_bench::report;
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_obs::Progress;
use nlrm_sim_core::series::TimeSeries;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;

fn main() {
    let progress = Progress::start("fig1_resource_variation");
    let seed = report::seed(2020);
    let hours = if report::quick() { 6 } else { 48 };
    progress.block(format!(
        "== Fig. 1: resource-usage variation over {hours} h (seed {seed}) ==\n"
    ));

    let mut cluster = iitk_cluster(seed);
    // Node A: a hot node; node B: a quiet one. Pick by observed mean load
    // over the first simulated hour so the roles match the paper's framing.
    let mut probe = cluster.clone();
    let mut means = [0.0f64; 20];
    for _ in 0..60 {
        probe.advance(Duration::from_secs(60));
        for (i, m) in means.iter_mut().enumerate() {
            *m += probe.node_state(NodeId(i as u32)).cpu_load;
        }
    }
    let node_a = NodeId(
        (0..20)
            .max_by(|&a, &b| means[a].total_cmp(&means[b]))
            .unwrap() as u32,
    );
    let node_b = NodeId(
        (0..20)
            .min_by(|&a, &b| means[a].total_cmp(&means[b]))
            .unwrap() as u32,
    );
    progress.block(format!(
        "node A = {} (busiest in first hour), node B = {} (quietest)\n",
        cluster.spec(node_a).hostname,
        cluster.spec(node_b).hostname
    ));

    let mut load_a = TimeSeries::new("load_node_A");
    let mut load_b = TimeSeries::new("load_node_B");
    let mut load_avg = TimeSeries::new("load_avg_20_nodes");
    let mut io_a = TimeSeries::new("netio_node_A_mbps");
    let mut io_b = TimeSeries::new("netio_node_B_mbps");
    let mut io_avg = TimeSeries::new("netio_avg_mbps");
    let mut util_avg = TimeSeries::new("cpu_util_avg");
    let mut mem_avg = TimeSeries::new("mem_used_avg");

    let sample_every = Duration::from_secs(60);
    let total = Duration::from_hours(hours);
    let samples = total.as_secs_f64() as u64 / 60;
    for _ in 0..samples {
        cluster.advance(sample_every);
        let t = cluster.now();
        let (mut lsum, mut iosum, mut usum, mut msum) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..20u32 {
            let s = cluster.node_state(NodeId(i));
            lsum += s.cpu_load;
            iosum += s.flow_rate_mbps;
            usum += s.cpu_util;
            msum += s.mem_used_frac;
        }
        let sa = cluster.node_state(node_a);
        let sb = cluster.node_state(node_b);
        load_a.push(t, sa.cpu_load);
        load_b.push(t, sb.cpu_load);
        load_avg.push(t, lsum / 20.0);
        io_a.push(t, sa.flow_rate_mbps);
        io_b.push(t, sb.flow_rate_mbps);
        io_avg.push(t, iosum / 20.0);
        util_avg.push(t, usum / 20.0);
        mem_avg.push(t, msum / 20.0);
    }

    // resample to 10-minute buckets for the CSVs
    let buckets = (hours * 6) as usize;
    let grid = |s: &TimeSeries| s.resample(SimTime::ZERO, Duration::from_mins(10), buckets);
    let w = |name: &str, series: &[&TimeSeries]| {
        report::write_result(name, &TimeSeries::to_csv(series)).expect("write result");
    };
    let (ra, rb, ravg) = (grid(&load_a), grid(&load_b), grid(&load_avg));
    w("fig1a_cpu_load.csv", &[&ra, &rb, &ravg]);
    let (ia, ib, iavg) = (grid(&io_a), grid(&io_b), grid(&io_avg));
    w("fig1b_network_io.csv", &[&ia, &ib, &iavg]);
    let (ua, ma) = (grid(&util_avg), grid(&mem_avg));
    w("fig1c_util_mem.csv", &[&ua, &ma]);

    // SVG figures
    let to_pts = |s: &TimeSeries| -> Vec<(f64, f64)> {
        s.points()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64() / 3600.0, v))
            .collect()
    };
    let mut f1a = LinePlot::new("Fig. 1(a): CPU load variation", "hours", "CPU load");
    f1a.series("node A", to_pts(&ra))
        .series("node B", to_pts(&rb))
        .series("20-node avg", to_pts(&ravg));
    report::write_result("fig1a_cpu_load.svg", &f1a.to_svg(760, 360)).expect("write result");
    let mut f1b = LinePlot::new("Fig. 1(b): network I/O variation", "hours", "Mbit/s");
    f1b.series("node A", to_pts(&ia))
        .series("node B", to_pts(&ib))
        .series("20-node avg", to_pts(&iavg));
    report::write_result("fig1b_network_io.svg", &f1b.to_svg(760, 360)).expect("write result");
    let mut f1c = LinePlot::new("Fig. 1(c): CPU utilization & memory", "hours", "fraction");
    f1c.series("cpu util (avg)", to_pts(&ua))
        .series("mem used (avg)", to_pts(&ma));
    report::write_result("fig1c_util_mem.svg", &f1c.to_svg(760, 360)).expect("write result");

    // paper-band check
    let us = util_avg.summary().unwrap();
    let ms = mem_avg.summary().unwrap();
    let ls = load_avg.summary().unwrap();
    progress.block(format!(
        "average CPU utilization: mean {:.1}% (paper: 20–35%), range [{:.1}%, {:.1}%]",
        us.mean * 100.0,
        us.min * 100.0,
        us.max * 100.0
    ));
    progress.block(format!(
        "average memory usage:    mean {:.1}% (paper: ~25%)",
        ms.mean * 100.0
    ));
    progress.block(format!(
        "average CPU load:        mean {:.2}, max {:.2} (paper: mostly low, occasional spikes)",
        ls.mean, ls.max
    ));
    let a_peak = load_a.summary().unwrap().max;
    let b_mean = load_b.summary().unwrap().mean;
    progress.block(format!(
        "node A peak load {:.1}; node B mean load {:.2} (paper: B typically quite low)",
        a_peak, b_mean
    ));
}
