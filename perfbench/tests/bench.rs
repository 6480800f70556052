//! The benchmark's own checks: virtual metrics repeat bit for bit for a
//! seed and move with it, and every emitted name is declared in
//! `BENCHMARK.json` with the unit the benchmark prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the mega-alloc case makes 50k-node decisions.

use perfbench::metrics::{self, Report, END_TO_END, PER_LAYER};
use perfbench::{run, Config, Workload};

/// A short run: the prefix only, one set-up.
fn short(w: Workload, seed: u64, traced: bool) -> Report {
    let prefix_steps = match w {
        Workload::IitkPaper => 8,
        Workload::CampusBroker => 20,
        Workload::MegaAlloc => 2,
    };
    let cfg = Config {
        seed,
        seconds: 0.0,
        prefix_steps,
        cycle_steps: 1,
        setups: 1,
    };
    let report = run(w, &cfg, traced);
    assert!(
        report.correct,
        "{} seed {seed}: {:?}",
        w.name(),
        report.violations
    );
    report
}

/// Metrics computed in simulated time or counted: the winner cost and
/// every per-layer metric except wall times and the trace's own coverage
/// and overhead.
fn virtual_metrics(r: &Report) -> Vec<(&'static str, u64)> {
    let is_virtual = |n: &str| {
        n == "winner_cost_mean"
            || (PER_LAYER.iter().any(|&(p, _)| p == n)
                && !n.ends_with("_ms")
                && !n.starts_with("trace."))
    };
    r.metrics
        .iter()
        .filter(|m| is_virtual(m.name))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

fn emitted(r: &Report) -> Vec<&'static str> {
    r.metrics.iter().map(|m| m.name).collect()
}

fn check_workload(w: Workload) {
    let a = short(w, 3, false);
    let b = short(w, 3, false);
    let c = short(w, 4, false);
    let ta = short(w, 3, true);
    let tb = short(w, 3, true);
    let tc = short(w, 4, true);

    let names = |cat: &[(&'static str, &str)]| cat.iter().map(|&(n, _)| n).collect::<Vec<_>>();
    assert_eq!(
        emitted(&a),
        names(END_TO_END),
        "untraced emits the end-to-end set"
    );
    assert_eq!(
        {
            let mut e = emitted(&ta);
            e.sort();
            e
        },
        {
            let mut e = names(PER_LAYER);
            e.sort();
            e
        },
        "traced emits the per-layer set"
    );

    assert_eq!(virtual_metrics(&a), virtual_metrics(&b), "{}", w.name());
    assert_eq!(virtual_metrics(&ta), virtual_metrics(&tb), "{}", w.name());
    assert_ne!(
        a.value("winner_cost_mean"),
        c.value("winner_cost_mean"),
        "{}: another seed must place differently",
        w.name()
    );
    assert_ne!(virtual_metrics(&ta), virtual_metrics(&tc), "{}", w.name());
}

#[test]
fn iitk_paper_virtual_metrics_follow_the_seed() {
    check_workload(Workload::IitkPaper);
}

#[test]
fn campus_broker_virtual_metrics_follow_the_seed() {
    check_workload(Workload::CampusBroker);
}

#[test]
fn mega_alloc_virtual_metrics_follow_the_seed() {
    check_workload(Workload::MegaAlloc);
}

/// `"name": "…"` / `"unit": "…"` pairs of one top-level array of
/// `BENCHMARK.json` (the file is flat enough to scan without a parser).
fn declared(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| {
        let at = obj.find(&format!("\"{f}\""))?;
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("every entry has a name"),
                field(obj, "unit"),
            )
        })
        .collect()
}

#[test]
fn every_name_is_well_formed_and_declared() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let well_formed = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    };
    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let decl = declared(&json, key);
        let cat: Vec<(String, Option<String>)> = catalog
            .iter()
            .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(decl, cat, "{key} in BENCHMARK.json matches the catalog");
        for (name, _) in &decl {
            assert!(well_formed(name), "bad metric name {name:?}");
            assert!(metrics::unit_of(name).is_some());
        }
    }
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    assert!(ours.iter().all(|n| well_formed(n)));
}
