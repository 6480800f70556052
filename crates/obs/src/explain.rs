//! Allocation-decision explain traces.
//!
//! Algorithm 2 (`select_best`) scores every contiguous candidate group by
//! `alpha * CL_norm + beta * NL_norm` and takes the minimum. An
//! [`ExplainTrace`] captures enough of that ranking to answer "why these
//! nodes?" after the fact: the top-k groups with their normalized cost
//! components, the winner's margin over the runner-up, and a one-line
//! verdict naming the component that decided it. Traces travel on
//! `nlrm_core`'s `Diagnostics`, so every granted allocation carries one.

use crate::json;
use nlrm_topology::NodeId;

/// One ranked candidate group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupExplain {
    /// 1-based rank by total cost (1 = winner).
    pub rank: usize,
    /// The start node the candidate group grew from (Algorithm 1).
    pub start: NodeId,
    /// The group's nodes.
    pub nodes: Vec<NodeId>,
    /// Normalized compute-load component (`alpha * CL / sum CL`).
    pub compute_term: f64,
    /// Normalized network-load component (`beta * NL / sum NL`).
    pub network_term: f64,
    /// Eq. 4 total cost (`compute_term + network_term`).
    pub total: f64,
}

impl GroupExplain {
    fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| json::string(&n.to_string()))
            .collect();
        json::object(&[
            ("rank", self.rank.to_string()),
            ("start", json::string(&self.start.to_string())),
            ("nodes", json::array(&nodes)),
            ("compute_term", json::num(self.compute_term)),
            ("network_term", json::num(self.network_term)),
            ("total", json::num(self.total)),
        ])
    }
}

/// Why one candidate group won an allocation decision.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplainTrace {
    /// Compute-load weight used in the decision.
    pub alpha: f64,
    /// Network-load weight used in the decision.
    pub beta: f64,
    /// Number of candidate groups scored.
    pub considered: usize,
    /// Top-k groups, ascending by total cost (`top[0]` is the winner).
    pub top: Vec<GroupExplain>,
    /// Winner's cost advantage over the runner-up (0 when unique).
    pub margin: f64,
    /// One line naming what decided it.
    pub verdict: String,
}

impl ExplainTrace {
    /// The winning group, if the trace is non-empty.
    pub fn winner(&self) -> Option<&GroupExplain> {
        self.top.first()
    }

    /// Export as one JSON object.
    pub fn to_json(&self) -> String {
        let top: Vec<String> = self.top.iter().map(GroupExplain::to_json).collect();
        json::object(&[
            ("alpha", json::num(self.alpha)),
            ("beta", json::num(self.beta)),
            ("considered", self.considered.to_string()),
            ("margin", json::num(self.margin)),
            ("verdict", json::string(&self.verdict)),
            ("top", json::array(&top)),
        ])
    }

    /// Multi-line human rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "decision over {} groups (alpha={}, beta={}), margin={:.4}: {}\n",
            self.considered, self.alpha, self.beta, self.margin, self.verdict
        );
        for g in &self.top {
            let nodes: Vec<String> = g.nodes.iter().map(|n| n.to_string()).collect();
            out.push_str(&format!(
                "  #{} [{}] total={:.4} (compute={:.4} network={:.4})\n",
                g.rank,
                nodes.join(","),
                g.total,
                g.compute_term,
                g.network_term,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ExplainTrace {
        ExplainTrace {
            alpha: 0.3,
            beta: 0.7,
            considered: 5,
            top: vec![
                GroupExplain {
                    rank: 1,
                    start: NodeId(2),
                    nodes: vec![NodeId(2), NodeId(3)],
                    compute_term: 0.05,
                    network_term: 0.10,
                    total: 0.15,
                },
                GroupExplain {
                    rank: 2,
                    start: NodeId(0),
                    nodes: vec![NodeId(0), NodeId(1)],
                    compute_term: 0.04,
                    network_term: 0.20,
                    total: 0.24,
                },
            ],
            margin: 0.09,
            verdict: "lower network load decided it".into(),
        }
    }

    #[test]
    fn winner_is_first_of_top() {
        let t = trace();
        assert_eq!(t.winner().unwrap().nodes, vec![NodeId(2), NodeId(3)]);
        assert!(ExplainTrace::default().winner().is_none());
    }

    #[test]
    fn json_and_render_contain_the_ranking() {
        let t = trace();
        let js = t.to_json();
        assert!(js.contains("\"considered\":5"));
        assert!(js.contains("\"nodes\":[\"n2\",\"n3\"]"));
        assert!(js.contains("\"verdict\":\"lower network load decided it\""));
        let text = t.render();
        assert!(text.contains("#1 [n2,n3]"));
        assert!(text.contains("#2 [n0,n1]"));
    }
}
