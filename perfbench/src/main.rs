//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <iitk-paper|campus-broker|mega-alloc> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance and one line per metric (name, value, unit, sample
//! count), then, as the last line, the JSON result object. A traced run
//! also writes its spans to `perfbench/out/` as a Chrome trace. Exits 1
//! when an output check fails, 2 on bad arguments.

use perfbench::metrics::{self, Report};
use perfbench::{run, Config, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout's commit, read from `.git` without leaving the checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn print_report(args: &Args, report: &Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# provenance: workload={} seed={} seconds={} trace={} nproc={} worker_threads={} \
         NLRM_THREADS={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        nlrm_core::par::worker_threads(),
        std::env::var("NLRM_THREADS").unwrap_or_else(|_| "unset".to_string()),
        git_commit(),
    );
    println!(
        "# loop: {} steps in {:.3} s; attempted {}, failed {}",
        report.steps, report.wall_s, report.attempted, report.failed
    );
    for n in &report.notes {
        println!("# {n}");
    }
    for m in &report.metrics {
        let detail = m
            .detail
            .as_ref()
            .map_or(String::new(), |d| format!(", {d}"));
        println!(
            "# metric {} = {} {} (n={}{detail})",
            m.name,
            m.value,
            metrics::unit_of(m.name).expect("catalogued"),
            m.samples
        );
    }
    for v in &report.violations {
        println!("# VIOLATION: {v}");
    }
    println!("{}", report.to_json());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <iitk-paper|campus-broker|mega-alloc> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = Config::new(args.workload, args.seed, args.seconds);
    let report = run(args.workload, &cfg, args.trace);
    if let Some(chrome) = &report.chrome_trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, chrome)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    print_report(&args, &report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
