//! Tables 2–3 arithmetic: percentage gains and run stability.

use nlrm_sim_core::stats::{median, percent_gain, Summary};
use std::collections::BTreeMap;

/// Execution times collected per policy across matched configurations:
/// `times["random"][k]` and `times["network-load-aware"][k]` come from the
/// same (problem size, process count, repetition) cell.
#[derive(Debug, Clone, Default)]
pub struct PolicyTimes {
    times: BTreeMap<String, Vec<f64>>,
}

impl PolicyTimes {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one cell's execution time for `policy`.
    pub fn push(&mut self, policy: &str, time_s: f64) {
        self.times
            .entry(policy.to_string())
            .or_default()
            .push(time_s);
    }

    /// All recorded policies.
    pub fn policies(&self) -> Vec<String> {
        self.times.keys().cloned().collect()
    }

    /// Times for one policy.
    pub fn of(&self, policy: &str) -> &[f64] {
        self.times.get(policy).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Per-configuration percentage gains of `ours` over `baseline`
    /// (`(baseline − ours)/baseline·100`, positive = ours faster).
    pub fn gains_over(&self, baseline: &str, ours: &str) -> Vec<f64> {
        let b = self.of(baseline);
        let o = self.of(ours);
        assert_eq!(
            b.len(),
            o.len(),
            "mismatched cells between {baseline} and {ours}"
        );
        b.iter()
            .zip(o)
            .map(|(&bt, &ot)| percent_gain(bt, ot))
            .collect()
    }

    /// The paper's coefficient-of-variation stability metric for a policy.
    pub fn cov(&self, policy: &str) -> f64 {
        Summary::of(self.of(policy)).map(|s| s.cov()).unwrap_or(0.0)
    }
}

/// One row of Table 2/3: gains of the NLA policy over a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GainRow {
    /// Baseline policy name.
    pub baseline: String,
    /// Average gain, %.
    pub average: f64,
    /// Median gain, %.
    pub median: f64,
    /// Maximum gain, %.
    pub maximum: f64,
}

/// A full gains table (the paper's Tables 2 and 3).
#[derive(Debug, Clone, Default)]
pub struct GainTable {
    /// Rows, one per baseline.
    pub rows: Vec<GainRow>,
}

impl GainTable {
    /// Build the table: NLA (`ours`) versus every other recorded policy.
    pub fn build(times: &PolicyTimes, ours: &str) -> GainTable {
        let rows = times
            .policies()
            .into_iter()
            .filter(|p| p != ours)
            .map(|baseline| {
                let gains = times.gains_over(&baseline, ours);
                GainRow {
                    average: gains.iter().sum::<f64>() / gains.len() as f64,
                    median: median(&gains),
                    maximum: gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    baseline,
                }
            })
            .collect();
        GainTable { rows }
    }

    /// Render in the paper's format.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| Allocation Policy | Average Gain | Median Gain | Maximum Gain |\n|---|---|---|---|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {:.1}% | {:.1}% | {:.1}% |\n",
                r.baseline, r.average, r.median, r.maximum
            ));
        }
        out
    }
}

/// Per-policy summary statistics for a sweep (CoV column of §5, Fig. 5
/// companion numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyStats {
    /// Policy name.
    pub policy: String,
    /// Mean execution time over all cells.
    pub mean_time_s: f64,
    /// Coefficient of variation of execution times.
    pub cov: f64,
    /// Mean CPU load per logical core during execution (Fig. 5).
    pub mean_load_per_core: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PolicyTimes {
        let mut t = PolicyTimes::new();
        for (r, s, n) in [(10.0, 8.0, 5.0), (20.0, 18.0, 10.0), (30.0, 24.0, 15.0)] {
            t.push("random", r);
            t.push("sequential", s);
            t.push("network-load-aware", n);
        }
        t
    }

    #[test]
    fn gains_match_hand_computation() {
        let t = sample();
        let g = t.gains_over("random", "network-load-aware");
        assert_eq!(g, vec![50.0, 50.0, 50.0]);
        let g2 = t.gains_over("sequential", "network-load-aware");
        assert!((g2[0] - 37.5).abs() < 1e-12);
    }

    #[test]
    fn table_contains_all_baselines() {
        let t = sample();
        let table = GainTable::build(&t, "network-load-aware");
        assert_eq!(table.rows.len(), 2);
        let random_row = table.rows.iter().find(|r| r.baseline == "random").unwrap();
        assert!((random_row.average - 50.0).abs() < 1e-12);
        assert!((random_row.maximum - 50.0).abs() < 1e-12);
    }

    #[test]
    fn markdown_has_paper_columns() {
        let md = GainTable::build(&sample(), "network-load-aware").to_markdown();
        assert!(md.contains("Average Gain"));
        assert!(md.contains("| random | 50.0%"));
    }

    #[test]
    fn cov_zero_for_constant_times() {
        let mut t = PolicyTimes::new();
        t.push("x", 5.0);
        t.push("x", 5.0);
        assert_eq!(t.cov("x"), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_cells_panic() {
        let mut t = sample();
        t.push("random", 99.0);
        t.gains_over("random", "network-load-aware");
    }
}
