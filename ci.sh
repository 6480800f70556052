#!/usr/bin/env bash
# Local CI: everything must pass before a commit.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# the examples are the public API's end-to-end walkthroughs (monitor_cluster
# is the only one of daemon kills and failover); run them so they cannot
# rot while still compiling
for example in quickstart compare_policies urgent_job monitor_cluster; do
    cargo run --release -q --example "$example" > /dev/null
done
cargo test -q --workspace
# the benchmark package is its own workspace (path deps on crates/*), so
# the workspace build never compiles it; a nlrm-core API change must not
# break it unnoticed
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# perfbench is its own workspace, so the two lines above never lint it:
# an nlrm-core API change could leave it lint-dirty unseen
cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings
cargo fmt --check --manifest-path perfbench/Cargo.toml

# build artifacts must never be tracked (they were once; .gitignore plus
# this guard keeps them out)
if [ -n "$(git ls-files target/ results/)" ]; then
    echo "ci: build artifacts are tracked in git (target/ or results/):" >&2
    git ls-files target/ results/ | head >&2
    exit 1
fi

# observability smoke: the report must build, run bounded, and emit valid
# JSON with the expected top-level sections
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
NLRM_RESULTS_DIR="$OBS_DIR" NLRM_QUICK=1 NLRM_QUIET=1 \
    cargo run --release -q -p nlrm-bench --bin obs_report
python3 - "$OBS_DIR/obs_report.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
expected = {"params", "summary", "decisions", "events", "metrics"}
missing = expected - report.keys()
assert not missing, f"obs_report.json missing sections: {missing}"
assert report["summary"]["failovers"] >= 1, "no failover captured"
assert report["summary"]["relaunches"] >= 1, "no relaunch captured"
assert report["summary"]["stale_node_exclusions"] >= 1, "no stale exclusions"
assert all(d["winner_matches_placement"] for d in report["decisions"])
PY
test -s "$OBS_DIR/obs_timeline.txt"

# span-tracing smoke: both trace exports must parse as JSON, the Chrome
# file must be trace-event shaped, and at least one job's critical path
# must cross three span kinds (queue wait, execution, compute)
NLRM_RESULTS_DIR="$OBS_DIR" NLRM_QUICK=1 NLRM_QUIET=1 \
    cargo run --release -q -p nlrm-bench --bin trace_report
python3 - "$OBS_DIR/trace_report.json" "$OBS_DIR/trace_report.chrome.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2]) as f:
    chrome = json.load(f)
assert report["jobs"], "trace_report.json has no jobs"
assert report["summary"]["spans_open"] == 0, "dangling open spans"
kinds = max(len(j["critical_path"]["by_kind"]) for j in report["jobs"])
assert kinds >= 3, f"critical paths too shallow: {kinds} span kinds"
events = chrome["traceEvents"]
assert events, "chrome export has no events"
assert all(e["ph"] in ("X", "M") for e in events), "unexpected phase"
assert any(e.get("name") == "queue_wait" for e in events)
PY
test -s "$OBS_DIR/trace_summary.txt"

# broker smoke: the scheduling-cycle sweep must run its shrunken streams,
# emit well-formed JSON (validated twice: by the bin via json::validate
# and here by Python), drain every admitted job, actually shed under the
# overload arm, and keep queue-wait p99 under a fixed bound at smoke scale
NLRM_RESULTS_DIR="$OBS_DIR" NLRM_QUICK=1 NLRM_QUIET=1 \
    cargo run --release -q -p nlrm-bench --bin broker_sweep
python3 - "$OBS_DIR/BENCH_broker.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
arms = {a["arm"]: a for a in bench["arms"]}
assert "nla-batched" in arms and "overload-reject" in arms, arms.keys()
nla = arms["nla-batched"]
assert nla["started"] == nla["arrivals"], "batched arm left jobs stranded"
assert nla["sched_jobs_per_sec"] > 0
assert nla["utilization"] > 0.3, f"utilization {nla['utilization']}"
assert nla["wait_p99_s"] < 3600, f"queue-wait p99 {nla['wait_p99_s']}s over bound"
assert arms["overload-reject"]["rejected"] > 0, "overload arm shed nothing"
PY

# health smoke: the paired telemetry runs must detect the injected
# degradation (a staleness surge on the faulted arm), stay silent on the
# clean arm, and keep the telemetry loop's overhead within its 5% budget
NLRM_RESULTS_DIR="$OBS_DIR" NLRM_QUICK=1 NLRM_QUIET=1 \
    cargo run --release -q -p nlrm-bench --bin health_report
python3 - "$OBS_DIR/health_report.json" "$OBS_DIR/BENCH_health.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2]) as f:
    bench = json.load(f)
arms = {a["name"]: a for a in report["arms"]}
faulted, clean = arms["faulted"], arms["clean"]
kinds = [a["kind"] for a in faulted["anomalies"]]
assert "staleness_surge" in kinds, f"faulted arm missed the surge: {kinds}"
assert not clean["anomalies"], f"clean arm fired: {clean['anomalies']}"
assert faulted["telemetry_ticks"] > 10, "telemetry loop barely ran"
assert faulted["health"]["stale_fraction"] >= 0.25, "stale nodes not in health"
assert report["sampler"]["within_budget"], f"overhead {report['sampler']}"
assert bench["faulted_overhead_frac"] <= 0.05, bench["faulted_overhead_frac"]
assert bench["clean_overhead_frac"] <= 0.05, bench["clean_overhead_frac"]
PY
test -s "$OBS_DIR/health_report.md"

# monitor smoke: the central-vs-sharded pricing sweep must run its
# shrunken ladder and hold the decentralization gates — sharded traffic
# ≥10x below central at the largest smoke size, and the sharded
# estimate's allocation epsilon ≤5% on every equivalence scenario (both
# also asserted by the bin itself). Its real-chain rows must store the
# snapshot as blocks: Σ_s C(m_s, 2) exact pairs plus the estimate's S
# uplinks and C(L, 2) + (S−L)·L measured shard pairs (L landmarks),
# counted from the topology, never a V×V matrix. Their
# allocate_pruned decision streams must expand or prune every usable
# start (the bin asserts it per decision), stay within 2x of linear
# scaling from the smallest to the largest row (also asserted by the
# bin), and prune at least half the starts at 4,992 nodes. Each row's
# derive must take at most 4x its snapshot time. Which starts a decision
# expands is deterministic for the seed on any host and at any thread
# count, so each quick row's mean_expanded must equal the value pinned
# here: a change to the search's order or bounds that moves it must say
# so by updating these numbers. Gossip accounting is deterministic for
# the seed too, so each quick size row's sharded_gossip_bytes and
# sharded_rounds must equal the values pinned here: a change to gossip
# target selection, apply order or byte accounting must update them. Its
# steady-state row (the monitor alone, long enough to fill the 15-minute
# windows) must exist and report the resident set it leaves
NLRM_RESULTS_DIR="$OBS_DIR" NLRM_QUICK=1 NLRM_QUIET=1 \
    cargo run --release -q -p nlrm-bench --bin monitor_sweep
python3 - "$OBS_DIR/BENCH_monitor.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
assert bench["sizes"], "BENCH_monitor.json has no sizes"
assert all(s["sharded_bytes"] < s["central_bytes"] for s in bench["sizes"])
assert bench["traffic_ratio_at_max"] >= 10, bench["traffic_ratio_at_max"]
assert bench["epsilon"], "no equivalence scenarios measured"
assert bench["worst_eps"] <= 0.05, f"epsilon gate: {bench['worst_eps']}"
assert bench["gates"]["ratio_ge_10"] and bench["gates"]["eps_le_0_05"]
assert bench["chain"], "no real-chain row"
for c in bench["chain"]:
    assert c["pair_cells"] == c["expected_pair_cells"], c
    assert c["pair_cells"] < c["nodes"] * (c["nodes"] - 1) // 2, c
    assert c["allocs_per_sec"] > 0, c
    seen = c["mean_expanded"] + c["mean_pruned"]
    assert abs(seen - c["usable"]) <= 0.1 + 1e-9, f"{c['usable']} usable, {seen} starts"
    # derive sums the blocks, not the V² pairs: it stays within a small
    # multiple of the snapshot it reads (same process, so host speed
    # cancels out)
    assert c["derive_ms"] <= 4 * c["snapshot_ms"], \
        f"{c['nodes']} nodes: derive {c['derive_ms']} ms, snapshot {c['snapshot_ms']} ms"
assert bench["within_2x_of_linear"], f"linear_factor {bench['linear_factor']}"
pinned = {1008: 522.75, 4992: 641.8}
expanded = {c["nodes"]: c["mean_expanded"] for c in bench["chain"]}
assert expanded == pinned, f"search shape moved: mean_expanded {expanded}, pinned {pinned}"
gossip_pinned = {960: (66368, 50), 4800: (1877152, 51)}
gossip = {s["nodes"]: (s["sharded_gossip_bytes"], s["sharded_rounds"]) for s in bench["sizes"]}
assert gossip == gossip_pinned, f"gossip shape moved: {gossip}, pinned {gossip_pinned}"
# pruning must bite: at the largest quick row the bounds skip at least
# half of the usable starts
largest = max(bench["chain"], key=lambda c: c["nodes"])
assert largest["nodes"] == 4992, f"largest quick row {largest['nodes']}"
assert largest["mean_pruned"] >= 0.5 * largest["usable"], \
    f"{largest['nodes']} nodes: mean_pruned {largest['mean_pruned']}"
steady = bench["steady"]
assert steady["virtual_s"] >= 900, steady
assert steady["rss_mb"] > 0, f"steady-state row has no RSS: {steady}"
PY

# incident smoke: every seeded storyline must replay bit-identically
# from its flight record, RCA must rank the injected cause first on at
# least the floor (4 of 5), and the recorder's always-on overhead must
# stay within its 5% budget (the bin computes the same gate in "pass")
NLRM_RESULTS_DIR="$OBS_DIR" NLRM_QUICK=1 NLRM_QUIET=1 \
    cargo run --release -q -p nlrm-bench --bin incident_report
python3 - "$OBS_DIR/incident_report.json" "$OBS_DIR/BENCH_incident.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2]) as f:
    bench = json.load(f)
stories = report["storylines"]
assert len(stories) == 5, f"expected 5 storylines, got {len(stories)}"
bad = [s["name"] for s in stories if not s["replay"]["identical"]]
assert not bad, f"replays diverged: {bad}"
hits = sum(s["cause_hit"] for s in stories)
assert hits >= 4, f"RCA ranked the injected cause first on only {hits}/5"
assert bench["all_replays_identical"], bench
assert bench["max_overhead_frac"] <= 0.05, bench["max_overhead_frac"]
assert bench["pass"], f"incident gate failed: {bench}"
PY
test -s "$OBS_DIR/incident_report.md"

# rustdoc is part of every crate's API contract
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace

echo "ci: all green"
