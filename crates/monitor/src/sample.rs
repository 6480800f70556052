//! Records published by the monitoring daemons.

use nlrm_cluster::NodeSpec;
use nlrm_sim_core::time::SimTime;
use nlrm_sim_core::window::WindowedValue;
use nlrm_topology::NodeId;
use std::sync::Arc;

/// One node's published state: what `NodeStateD` writes to the store.
///
/// Mirrors the paper's Table 1: static attributes (core count, frequency,
/// total memory) plus instantaneous and 1/5/15-minute running means of the
/// dynamic attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSample {
    /// Which node this record describes.
    pub node: NodeId,
    /// When the record was taken (virtual time).
    pub taken_at: SimTime,
    /// Static hardware attributes, queried once per `NodeStateD` instance.
    pub spec: Arc<NodeSpec>,
    /// CPU load (runnable processes): instant + running means.
    pub cpu_load: WindowedValue,
    /// CPU utilization fraction: instant + running means.
    pub cpu_util: WindowedValue,
    /// Used-memory fraction: instant + running means.
    pub mem_used_frac: WindowedValue,
    /// NIC data-flow rate in Mbit/s: instant + running means.
    pub flow_rate_mbps: WindowedValue,
    /// Logged-in users.
    pub users: u32,
}

impl NodeSample {
    /// Available memory in GB for a given window selector.
    pub fn available_mem_gb(&self, used_frac: f64) -> f64 {
        self.spec.total_mem_gb * (1.0 - used_frac.clamp(0.0, 1.0))
    }
}

/// A published latency statistic for one node pair. The paper maintains
/// "the average of last 1 and 5 minutes of P2P latency" alongside the
/// instantaneous measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStat {
    /// Latest measured one-way latency, seconds.
    pub instant: f64,
    /// 1-minute mean.
    pub m1: f64,
    /// 5-minute mean.
    pub m5: f64,
}

impl LatencyStat {
    /// A stat whose windows all equal `v` (first measurement).
    pub fn constant(v: f64) -> Self {
        LatencyStat {
            instant: v,
            m1: v,
            m5: v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_memory_complements_used() {
        let s = NodeSample {
            node: NodeId(0),
            taken_at: SimTime::ZERO,
            spec: Arc::new(NodeSpec {
                hostname: "x".into(),
                cores: 8,
                freq_ghz: 3.0,
                total_mem_gb: 16.0,
            }),
            cpu_load: WindowedValue::constant(0.0),
            cpu_util: WindowedValue::constant(0.0),
            mem_used_frac: WindowedValue::constant(0.25),
            flow_rate_mbps: WindowedValue::constant(0.0),
            users: 0,
        };
        assert!((s.available_mem_gb(0.25) - 12.0).abs() < 1e-12);
        // clamped
        assert_eq!(s.available_mem_gb(2.0), 0.0);
    }
}
