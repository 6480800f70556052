//! `mega-alloc`: pruned allocation on 50k synthetic tiered nodes.
//!
//! The chain cannot start from a snapshot at this size — a
//! `ClusterSnapshot` holds three dense V×V matrices — so the workload
//! starts from `Loads`: 50k nodes in 48-node switches with seeded compute
//! loads and a `TieredNl` network load (exact intra-switch, aggregated
//! inter-switch), built the way `scale_sweep` builds them. The loop is a
//! closed stream of `allocate_pruned` decisions cycling 32–256 processes
//! and the three α/β mixes. Monitor, snapshot, broker and MPI do nothing.

use crate::trace::Tracer;
use crate::{frac, splitmix64, Scenario, Tally};
use nlrm_core::candidate::generate_all_candidates;
use nlrm_core::select::group_cost;
use nlrm_core::{allocate_pruned, Loads, TieredNl};
use nlrm_topology::NodeId;

/// Decisions every run makes: two cycles, so each procs class has six
/// samples and p95 is not the single slowest decision.
pub const PREFIX_STEPS: u64 = 2 * CYCLE_STEPS;
/// Set-up repetitions per untraced run.
pub const SETUPS: usize = 15;

const NODES: u32 = 50_000;
const PER_SWITCH: u32 = 48;
/// Nodes of the slice the pruned winner is checked against exhaustive
/// scoring on.
const SLICE_NODES: u32 = 960;
const PROCS: [u32; 4] = [32, 64, 128, 256];
const MIXES: [(f64, f64); 3] = [(0.3, 0.7), (0.4, 0.6), (0.7, 0.3)];
/// Decisions in one cycle: every (procs, mix) pair once.
pub const CYCLE_STEPS: u64 = (PROCS.len() * MIXES.len()) as u64;

/// `v` nodes in 48-node switches: varied compute loads, exact
/// intra-switch and aggregated inter-switch network loads, 4 process
/// slots per node.
pub fn synthetic_loads(v: u32, seed: u64) -> Loads {
    let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
    let switch_of: Vec<u32> = (0..v).map(|n| n / PER_SWITCH).collect();
    let switches = v.div_ceil(PER_SWITCH) as usize;
    let nl = TieredNl::from_fns(
        &nodes,
        &switch_of,
        switches,
        |a, b| {
            let h = splitmix64(seed ^ (a.index() as u64 * 1_000_003 + b.index() as u64));
            0.05 + 0.3 * frac(h)
        },
        |s, t| {
            let h = splitmix64(seed ^ (((s as u64) << 32) | t as u64));
            0.2 + 0.6 * frac(h)
        },
    );
    let cl: Vec<f64> = (0..v)
        .map(|n| 0.1 + 0.8 * frac(splitmix64(seed ^ (n as u64 + 17))))
        .collect();
    let pc = vec![4u32; v as usize];
    Loads::from_parts(nodes, cl, nl, pc)
}

/// Live state of the workload.
pub struct Mega {
    loads: Loads,
    seed: u64,
    decision: u64,
    // prefix accumulators
    cost_sum: f64,
    expanded: u64,
    pruned: u64,
    decisions_in_prefix: u64,
}

/// The request of decision `j`: (procs, α, β).
fn request(j: u64) -> (u32, f64, f64) {
    let n = PROCS[(j % PROCS.len() as u64) as usize];
    let (a, b) = MIXES[(j % MIXES.len() as u64) as usize];
    (n, a, b)
}

/// The winner covers exactly `n` processes on distinct usable nodes, none
/// beyond its capacity.
fn check_winner(loads: &Loads, nodes: &[NodeId], procs: &[u32], n: u32, tally: &mut Tally) {
    let total: u32 = procs.iter().sum();
    if total != n {
        tally.violation(format!(
            "winner carries {total} procs for a {n}-proc request"
        ));
    }
    let mut seen = nodes.to_vec();
    seen.sort();
    seen.dedup();
    if seen.len() != nodes.len() {
        tally.violation("winner repeats a node".to_string());
    }
    for (&node, &p) in nodes.iter().zip(procs) {
        if loads.index(node).is_none() {
            tally.violation(format!("winner uses unusable node {node}"));
        } else if p > loads.pc_of(node) {
            tally.violation(format!("node {node} over-reserved: {p}"));
        }
    }
}

impl Scenario for Mega {
    fn setup(seed: u64) -> Mega {
        Mega {
            loads: synthetic_loads(NODES, seed),
            seed,
            decision: 0,
            cost_sum: 0.0,
            expanded: 0,
            pruned: 0,
            decisions_in_prefix: 0,
        }
    }

    fn step(&mut self, tr: &mut Tracer, tally: &mut Tally, in_prefix: bool) {
        let (n, alpha, beta) = request(self.decision);
        self.decision += 1;
        tally.attempted += 1;
        let t0 = std::time::Instant::now();
        tr.enter("scalable.allocate_pruned");
        let sel = allocate_pruned(&self.loads, n, alpha, beta);
        tr.exit();
        tally.decision_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let Some(sel) = sel else {
            tally.failed += 1;
            tally.violation(format!("no placement for {n} procs"));
            return;
        };
        check_winner(&self.loads, &sel.winner.nodes, &sel.winner.procs, n, tally);
        tally.jobs += 1;
        if in_prefix {
            self.cost_sum += sel.cost;
            self.expanded += sel.expanded as u64;
            self.pruned += sel.pruned as u64;
            self.decisions_in_prefix += 1;
        }
    }

    fn end_prefix(&mut self, _steps: u64) {}

    fn finish(&mut self, tally: &mut Tally) {
        // once per run: pruned ≡ exhaustive scoring on a small seeded slice
        let slice = synthetic_loads(SLICE_NODES, self.seed);
        let j = self.seed % CYCLE_STEPS;
        let (n, alpha, beta) = request(j);
        let pruned = allocate_pruned(&slice, n, alpha, beta).map(|s| (s.cost, s.winner.start));
        let exhaustive = generate_all_candidates(&slice, n, alpha, beta)
            .iter()
            .map(|c| (group_cost(&slice, &c.nodes, alpha, beta), c.start))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if pruned.map(|p| (p.0.to_bits(), p.1)) != exhaustive.map(|e| (e.0.to_bits(), e.1)) {
            tally.violation(format!(
                "pruned winner {pruned:?} differs from exhaustive {exhaustive:?} \
                 ({n} procs, α={alpha}, β={beta})"
            ));
        }
    }

    fn prefix_metrics(&self) -> Vec<(&'static str, f64)> {
        let d = self.decisions_in_prefix.max(1) as f64;
        let starts = (self.expanded + self.pruned).max(1) as f64;
        vec![
            ("winner_cost_mean", self.cost_sum / d),
            ("scalable.expanded", self.expanded as f64 / d),
            ("scalable.prune_ratio", self.pruned as f64 / starts),
        ]
    }
}
