//! Weight vectors for the allocator's three weighted sums.

/// Tolerance for "weights sum to one" checks.
const SUM_TOL: f64 = 1e-9;

/// SAW weights over the node-attribute groups of Table 1 (Eq. 1).
///
/// Attributes with 1/5/15-minute windows form one group each; the group
/// weight is applied to the *mean of the three windows* so the total weight
/// assigned to, say, CPU load matches the paper's single number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeWeights {
    /// Average CPU load (minimize).
    pub cpu_load: f64,
    /// CPU utilization (minimize).
    pub cpu_util: f64,
    /// Node data-flow rate (minimize).
    pub flow_rate: f64,
    /// Memory pressure: used memory minimized / available maximized.
    pub memory: f64,
    /// Logical core count (maximize).
    pub core_count: f64,
    /// CPU clock frequency (maximize).
    pub cpu_freq: f64,
    /// Total physical memory (maximize).
    pub total_mem: f64,
    /// Logged-in user count (minimize).
    pub users: f64,
}

impl ComputeWeights {
    /// The weights the paper used in §5: 0.3 CPU load, 0.2 CPU utilization,
    /// 0.2 node bandwidth (flow rate), 0.1 used memory, 0.1 logical core
    /// count, 0.05 clock speed, 0.05 total physical memory. (User count was
    /// not weighted in the evaluation.)
    pub fn paper_default() -> Self {
        ComputeWeights {
            cpu_load: 0.3,
            cpu_util: 0.2,
            flow_rate: 0.2,
            memory: 0.1,
            core_count: 0.1,
            cpu_freq: 0.05,
            total_mem: 0.05,
            users: 0.0,
        }
    }

    /// A compute-intensive job profile: CPU load/utilization dominate.
    pub fn compute_intensive() -> Self {
        ComputeWeights {
            cpu_load: 0.4,
            cpu_util: 0.3,
            flow_rate: 0.05,
            memory: 0.05,
            core_count: 0.1,
            cpu_freq: 0.08,
            total_mem: 0.02,
            users: 0.0,
        }
    }

    /// A memory/network-intensive job profile (paper §3.2.1: "for memory and
    /// network-intensive jobs, higher weights are given to available memory
    /// and node data flow rate").
    pub fn network_intensive() -> Self {
        ComputeWeights {
            cpu_load: 0.15,
            cpu_util: 0.1,
            flow_rate: 0.35,
            memory: 0.25,
            core_count: 0.05,
            cpu_freq: 0.05,
            total_mem: 0.05,
            users: 0.0,
        }
    }

    /// All weights in declaration order.
    pub fn as_array(&self) -> [f64; 8] {
        [
            self.cpu_load,
            self.cpu_util,
            self.flow_rate,
            self.memory,
            self.core_count,
            self.cpu_freq,
            self.total_mem,
            self.users,
        ]
    }

    /// Check weights are non-negative and sum to 1.
    pub fn validate(&self) -> Result<(), String> {
        let arr = self.as_array();
        if arr.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(format!("compute weights must be non-negative: {arr:?}"));
        }
        let sum: f64 = arr.iter().sum();
        if (sum - 1.0).abs() > SUM_TOL {
            return Err(format!("compute weights must sum to 1, got {sum}"));
        }
        Ok(())
    }
}

impl Default for ComputeWeights {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Latency/bandwidth weights for the pairwise network load (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkWeights {
    /// Weight of P2P latency (`w_lt`); raise for chatty low-volume jobs.
    pub latency: f64,
    /// Weight of complement-of-available-bandwidth (`w_bw`); raise for bulky
    /// communication.
    pub bandwidth: f64,
}

impl NetworkWeights {
    /// The paper's §5 values: `w_lt = 0.25`, `w_bw = 0.75`.
    pub fn paper_default() -> Self {
        NetworkWeights {
            latency: 0.25,
            bandwidth: 0.75,
        }
    }

    /// Check weights are non-negative and sum to 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.latency < 0.0 || self.bandwidth < 0.0 {
            return Err("network weights must be non-negative".into());
        }
        let sum = self.latency + self.bandwidth;
        if (sum - 1.0).abs() > SUM_TOL {
            return Err(format!("network weights must sum to 1, got {sum}"));
        }
        Ok(())
    }
}

impl Default for NetworkWeights {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Validate an (α, β) compute/communication mix (Eq. 4): both non-negative,
/// summing to 1.
pub fn validate_alpha_beta(alpha: f64, beta: f64) -> Result<(), String> {
    if alpha < 0.0 || beta < 0.0 || !alpha.is_finite() || !beta.is_finite() {
        return Err(format!(
            "alpha/beta must be non-negative, got ({alpha}, {beta})"
        ));
    }
    if (alpha + beta - 1.0).abs() > SUM_TOL {
        return Err(format!("alpha + beta must equal 1, got {}", alpha + beta));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        ComputeWeights::paper_default().validate().unwrap();
        ComputeWeights::compute_intensive().validate().unwrap();
        ComputeWeights::network_intensive().validate().unwrap();
        NetworkWeights::paper_default().validate().unwrap();
        validate_alpha_beta(0.3, 0.7).unwrap();
    }

    #[test]
    fn paper_default_matches_section5() {
        let w = ComputeWeights::paper_default();
        assert_eq!(w.cpu_load, 0.3);
        assert_eq!(w.cpu_util, 0.2);
        assert_eq!(w.flow_rate, 0.2);
        assert_eq!(w.memory, 0.1);
        assert_eq!(w.core_count, 0.1);
        assert_eq!(w.cpu_freq, 0.05);
        assert_eq!(w.total_mem, 0.05);
    }

    #[test]
    fn invalid_weights_are_rejected() {
        let mut w = ComputeWeights::paper_default();
        w.cpu_load = -0.1;
        assert!(w.validate().is_err());
        let mut w = ComputeWeights::paper_default();
        w.cpu_load = 0.5; // breaks the sum
        assert!(w.validate().is_err());
        assert!(NetworkWeights {
            latency: 0.5,
            bandwidth: 0.6
        }
        .validate()
        .is_err());
        assert!(validate_alpha_beta(0.5, 0.6).is_err());
        assert!(validate_alpha_beta(-0.2, 1.2).is_err());
    }
}
