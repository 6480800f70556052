//! Calibrated background-activity profiles.
//!
//! A profile describes the *population* a cluster's nodes and links are drawn
//! from. Per-node parameters are sampled from the profile so that the cluster
//! is heterogeneous in practice — some nodes chronically busy, many mostly
//! idle — which is what gives the allocator something to choose between
//! (cf. the light/dark patches of the paper's Figures 1–2 and 7).

use crate::node::NodeDynamicsParams;
use rand::Rng;

/// Population-level description of background activity on a shared cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterProfile {
    /// Range of per-node mean baseline CPU load (runnable processes).
    pub load_mean_range: (f64, f64),
    /// Fraction of nodes that are "hot" (students camp on them): their mean
    /// load is drawn from `hot_load_mean_range` instead.
    pub hot_node_fraction: f64,
    /// Mean-load range for hot nodes.
    pub hot_load_mean_range: (f64, f64),
    /// Load spike arrival rate range (events/s).
    pub spike_rate_range: (f64, f64),
    /// Mean spike amplitude range.
    pub spike_amp_range: (f64, f64),
    /// Baseline utilization band (applies to every node).
    pub util_base: (f64, f64),
    /// Memory usage band.
    pub mem_band: (f64, f64),
    /// Range of per-node mean user counts.
    pub users_mean_range: (f64, f64),
    /// Range of baseline NIC flow (Mbit/s).
    pub flow_base_range: (f64, f64),
    /// Flow burst arrival rate range (events/s).
    pub flow_burst_rate_range: (f64, f64),
    /// Mean flow-burst amplitude range (Mbit/s).
    pub flow_burst_amp_range: (f64, f64),
    /// Diurnal amplitude for node activity.
    pub diurnal_amplitude: f64,
    /// Peak activity hour (0–24).
    pub diurnal_peak_hour: f64,
    /// Mean background utilization of access links (fraction of capacity).
    pub access_util_mean: f64,
    /// Mean background utilization of trunk (switch↔switch) links.
    pub trunk_util_mean: f64,
    /// OU volatility of link utilization.
    pub link_util_sigma: f64,
    /// Rate (events/s) at which a heavy bulk flow appears on a trunk.
    pub heavy_flow_rate: f64,
    /// Mean utilization a heavy flow adds while active.
    pub heavy_flow_util: f64,
    /// Mean duration of a heavy flow (s).
    pub heavy_flow_duration: f64,
    /// Multiplicative measurement noise (std of a lognormal-ish factor).
    pub measurement_noise: f64,
}

impl ClusterProfile {
    /// The default calibration: a shared departmental lab cluster matching
    /// the activity ranges reported in the paper's Figures 1–2
    /// (CPU utilization averaging 20–35%, ~25% memory in use, CPU load
    /// mostly below 1 with occasional spikes, bursty NIC traffic, and trunk
    /// links that other users' jobs periodically saturate).
    pub fn shared_lab() -> Self {
        ClusterProfile {
            load_mean_range: (0.05, 0.6),
            hot_node_fraction: 0.3,
            hot_load_mean_range: (1.5, 6.0),
            spike_rate_range: (1.0 / 7200.0, 1.0 / 1200.0),
            spike_amp_range: (1.5, 6.0),
            util_base: (0.08, 0.22),
            mem_band: (0.15, 0.40),
            users_mean_range: (0.5, 3.0),
            flow_base_range: (1.0, 60.0),
            flow_burst_rate_range: (1.0 / 3600.0, 1.0 / 600.0),
            flow_burst_amp_range: (100.0, 600.0),
            diurnal_amplitude: 0.35,
            diurnal_peak_hour: 15.0,
            access_util_mean: 0.05,
            trunk_util_mean: 0.35,
            link_util_sigma: 0.15,
            heavy_flow_rate: 1.0 / 1200.0,
            heavy_flow_util: 0.55,
            heavy_flow_duration: 900.0,
            measurement_noise: 0.06,
        }
    }

    /// A nearly idle cluster: useful to verify that all policies converge
    /// when there is nothing to avoid.
    pub fn quiet() -> Self {
        ClusterProfile {
            load_mean_range: (0.0, 0.1),
            hot_node_fraction: 0.0,
            hot_load_mean_range: (0.0, 0.1),
            spike_rate_range: (0.0, 0.0),
            spike_amp_range: (0.0, 0.0),
            util_base: (0.01, 0.05),
            mem_band: (0.10, 0.15),
            users_mean_range: (0.0, 0.5),
            flow_base_range: (0.1, 1.0),
            flow_burst_rate_range: (0.0, 0.0),
            flow_burst_amp_range: (0.0, 0.0),
            diurnal_amplitude: 0.0,
            diurnal_peak_hour: 12.0,
            access_util_mean: 0.01,
            trunk_util_mean: 0.02,
            link_util_sigma: 0.01,
            heavy_flow_rate: 0.0,
            heavy_flow_util: 0.0,
            heavy_flow_duration: 1.0,
            measurement_noise: 0.01,
        }
    }

    /// A cluster under extreme pressure: nearly every core busy, trunks
    /// saturated. Exercises the paper's §6 "recommend waiting" advice.
    pub fn overloaded() -> Self {
        ClusterProfile {
            load_mean_range: (6.0, 14.0),
            hot_node_fraction: 0.6,
            hot_load_mean_range: (10.0, 24.0),
            spike_rate_range: (1.0 / 600.0, 1.0 / 120.0),
            spike_amp_range: (4.0, 12.0),
            util_base: (0.6, 0.9),
            mem_band: (0.55, 0.9),
            users_mean_range: (3.0, 5.0),
            flow_base_range: (100.0, 400.0),
            flow_burst_rate_range: (1.0 / 300.0, 1.0 / 60.0),
            flow_burst_amp_range: (200.0, 800.0),
            diurnal_amplitude: 0.1,
            diurnal_peak_hour: 15.0,
            access_util_mean: 0.4,
            trunk_util_mean: 0.7,
            link_util_sigma: 0.15,
            heavy_flow_rate: 1.0 / 300.0,
            heavy_flow_util: 0.6,
            heavy_flow_duration: 1200.0,
            measurement_noise: 0.08,
        }
    }

    /// Sample the dynamics parameters for one node.
    pub fn sample_node_params(&self, rng: &mut impl Rng) -> NodeDynamicsParams {
        let hot = rng.gen::<f64>() < self.hot_node_fraction;
        let (lo, hi) = if hot {
            self.hot_load_mean_range
        } else {
            self.load_mean_range
        };
        let load_mean = sample_range(rng, (lo, hi));
        NodeDynamicsParams {
            load_mean,
            load_sigma: (load_mean * 0.6).max(0.02),
            load_rate: 1.0 / 300.0,
            spike_rate: sample_range(rng, self.spike_rate_range),
            spike_amp: sample_range(rng, self.spike_amp_range),
            spike_decay: 1.0 / 600.0,
            util_base: self.util_base,
            mem_band: self.mem_band,
            users_mean: sample_range(rng, self.users_mean_range),
            flow_base_mbps: sample_range(rng, self.flow_base_range),
            flow_burst_rate: sample_range(rng, self.flow_burst_rate_range),
            flow_burst_amp: sample_range(rng, self.flow_burst_amp_range),
            flow_burst_decay: 1.0 / 120.0,
            diurnal_amplitude: self.diurnal_amplitude,
            diurnal_peak_hour: self.diurnal_peak_hour,
        }
    }
}

fn sample_range(rng: &mut impl Rng, (lo, hi): (f64, f64)) -> f64 {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_sim_core::rng::RngFactory;

    #[test]
    fn sampling_is_within_ranges() {
        let prof = ClusterProfile::shared_lab();
        let mut rng = RngFactory::new(9).named("profiles");
        for _ in 0..200 {
            let p = prof.sample_node_params(&mut rng);
            let in_cold = p.load_mean >= prof.load_mean_range.0 - 1e-12
                && p.load_mean <= prof.load_mean_range.1 + 1e-12;
            let in_hot = p.load_mean >= prof.hot_load_mean_range.0 - 1e-12
                && p.load_mean <= prof.hot_load_mean_range.1 + 1e-12;
            assert!(in_cold || in_hot, "load_mean {}", p.load_mean);
            assert!(p.spike_rate >= 0.0 && p.flow_base_mbps >= 0.0);
        }
    }

    #[test]
    fn hot_nodes_appear_at_roughly_declared_fraction() {
        let prof = ClusterProfile::shared_lab();
        let mut rng = RngFactory::new(10).named("profiles");
        let n = 2000;
        let hot = (0..n)
            .map(|_| prof.sample_node_params(&mut rng))
            .filter(|p| p.load_mean >= prof.hot_load_mean_range.0)
            .count();
        let frac = hot as f64 / n as f64;
        assert!(
            (frac - prof.hot_node_fraction).abs() < 0.05,
            "hot frac {frac}"
        );
    }

    #[test]
    fn quiet_profile_generates_near_zero_activity() {
        let prof = ClusterProfile::quiet();
        let mut rng = RngFactory::new(11).named("profiles");
        let p = prof.sample_node_params(&mut rng);
        assert!(p.load_mean < 0.1);
        assert_eq!(p.spike_rate, 0.0);
    }

    #[test]
    fn overloaded_profile_is_heavier_than_lab() {
        let lab = ClusterProfile::shared_lab();
        let over = ClusterProfile::overloaded();
        assert!(over.load_mean_range.0 > lab.load_mean_range.1);
        assert!(over.trunk_util_mean > lab.trunk_util_mean);
    }
}
