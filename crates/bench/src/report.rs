//! Report output: Markdown tables and CSV files under `results/`, the
//! committed `BENCH_*.json` trajectory, and the `NLRM_QUICK` switch.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Whether `NLRM_QUICK` asks for the shrunken smoke-run grid.
pub fn quick() -> bool {
    quick_from(std::env::var("NLRM_QUICK").ok().as_deref())
}

/// The `NLRM_QUICK` parse: any value but empty or `0` means quick.
fn quick_from(value: Option<&str>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// The run's seed: `NLRM_SEED` when it parses as a `u64`, else `default`.
pub fn seed(default: u64) -> u64 {
    seed_from(std::env::var("NLRM_SEED").ok().as_deref(), default)
}

/// The `NLRM_SEED` parse: unset, empty or non-numeric means `default`.
fn seed_from(value: Option<&str>, default: u64) -> u64 {
    value.and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// This process's peak resident set (`VmHWM`), MB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// This process's current resident set (`VmRSS`), MB; 0 where `/proc`
/// has no such line.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workspace root (the bench crate lives at `<ws>/crates/bench`).
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
}

/// Resolve (and create) the results directory. Defaults to
/// `<workspace>/results/`; the `NLRM_RESULTS_DIR` environment variable
/// overrides the location (CI points it at a temp dir).
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var("NLRM_RESULTS_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => workspace_root().join("results"),
    };
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Where the BENCH file `name` goes. `BENCH_*.json` at the repository
/// root are the committed perf trajectory, so only full runs write
/// there; quick (CI smoke) runs land in [`results_dir`] instead.
pub fn bench_path(name: &str, quick: bool) -> PathBuf {
    if quick {
        results_dir().join(name)
    } else {
        workspace_root().join(name)
    }
}

/// Write `contents` to `results/<name>` and echo the path (suppressed
/// under `NLRM_QUIET`).
pub fn write_result(name: &str, contents: &str) -> io::Result<PathBuf> {
    write_echoed(results_dir().join(name), contents)
}

/// Write the BENCH file `name` to [`bench_path`] and echo the path
/// (suppressed under `NLRM_QUIET`). `json` that is not one well-formed
/// JSON value, or whose timing spreads do not hold (a `{P}min_ms` member
/// without a `{P}max_ms` sibling, or a `{P}…_ms` sibling outside them),
/// is refused with [`io::ErrorKind::InvalidData`]
/// and nothing is written.
pub fn write_bench(name: &str, quick: bool, json: &str) -> io::Result<PathBuf> {
    nlrm_obs::json::validate(json)
        .and_then(|()| check_spreads(json))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {e}")))?;
    write_echoed(bench_path(name, quick), json)
}

/// In every object of the well-formed `json`, a `{P}min_ms` member needs
/// a `{P}max_ms` sibling, and every numeric or null `{P}…_ms` sibling
/// (its p50, p99, …) must lie between them: a repeated timing carries
/// its spread, and the spread brackets what it summarizes.
fn check_spreads(json: &str) -> Result<(), String> {
    // numeric members of each open object, innermost last
    let mut open: Vec<Vec<(String, f64)>> = Vec::new();
    let mut key: Option<String> = None;
    let b = json.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                let text = &json[start..i];
                let rest = json[i + 1..].trim_start();
                key = rest.starts_with(':').then(|| text.to_string());
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i + 1 < b.len()
                    && matches!(b[i + 1], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                let value: f64 = json[start..=i].parse().map_err(|e| format!("{e}"))?;
                if let (Some(k), Some(members)) = (key.take(), open.last_mut()) {
                    members.push((k, value));
                }
            }
            b'{' => {
                open.push(Vec::new());
                key = None;
            }
            b'}' => {
                spreads_hold(&open.pop().unwrap_or_default())?;
                key = None;
            }
            // a null member stands for a non-finite number
            b'n' => {
                if let (Some(k), Some(members)) = (key.take(), open.last_mut()) {
                    members.push((k, f64::NAN));
                }
            }
            b'[' | b']' | b',' => key = None,
            _ => {}
        }
        i += 1;
    }
    Ok(())
}

/// [`check_spreads`] on one object's numeric members.
fn spreads_hold(members: &[(String, f64)]) -> Result<(), String> {
    let get = |name: &str| members.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
    for (k, min) in members {
        let Some(stem) = k.strip_suffix("min_ms") else {
            continue;
        };
        let max = get(&format!("{stem}max_ms")).ok_or(format!("{k} without {stem}max_ms"))?;
        for (other, v) in members {
            if other.starts_with(stem) && other.ends_with("_ms") && !(min <= v && *v <= max) {
                return Err(format!("{other} = {v} outside [{min}, {max}]"));
            }
        }
    }
    Ok(())
}

fn write_echoed(path: PathBuf, contents: &str) -> io::Result<PathBuf> {
    fs::write(&path, contents)?;
    if !nlrm_obs::progress::quiet() {
        println!("wrote {}", path.display());
    }
    Ok(path)
}

/// A simple column-aligned text/markdown table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render as GitHub-flavored Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The `p`-quantile (`p` in `[0, 1]`) of ascending `sorted` as the element
/// at rank `round((len − 1)·p)`, never interpolated; 0 for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Format seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 10.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_row_panics() {
        Table::new(&["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn results_dir_exists() {
        // Default and override cases share one invariant: the directory is
        // created. (The env var itself is not mutated here — parallel tests
        // share the process environment.)
        let d = results_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn write_result_roundtrips() {
        let path = write_result("report_test_scratch.txt", "ok\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "ok\n");
        let _ = fs::remove_file(path);
    }

    #[test]
    fn nearest_rank_picks_an_element_and_never_interpolates() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&xs, 0.5), 4.0); // rank 1.5 rounds up
        assert_eq!(nearest_rank(&xs, 0.99), 8.0);
        assert_eq!(nearest_rank(&xs, 1.0), 8.0);
        assert_eq!(nearest_rank(&[3.0], 0.5), 3.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn quick_is_any_value_but_empty_or_zero() {
        assert!(!quick_from(None));
        assert!(!quick_from(Some("")));
        assert!(!quick_from(Some("0")));
        assert!(quick_from(Some("1")));
        assert!(quick_from(Some("yes")));
    }

    #[test]
    fn seed_falls_back_unless_numeric() {
        assert_eq!(seed_from(None, 2020), 2020);
        assert_eq!(seed_from(Some(""), 2020), 2020);
        assert_eq!(seed_from(Some("7"), 2020), 7);
        assert_eq!(seed_from(Some("x"), 2020), 2020);
    }

    #[test]
    fn bench_path_splits_quick_from_full_runs() {
        assert_eq!(
            bench_path("BENCH_x.json", true),
            results_dir().join("BENCH_x.json")
        );
        assert_eq!(
            bench_path("BENCH_x.json", false),
            workspace_root().join("BENCH_x.json")
        );
        // a quick write lands in the results dir; invalid JSON writes nothing
        let name = "BENCH_report_test_scratch.json";
        let path = write_bench(name, true, r#"{"ok": [1, 2.5]}"#).unwrap();
        assert_eq!(path, results_dir().join(name));
        assert_eq!(fs::read_to_string(&path).unwrap(), r#"{"ok": [1, 2.5]}"#);
        fs::remove_file(&path).unwrap();
        let err = write_bench(name, true, r#"{"ok": }"#).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!path.exists());
        // a spread that does not bracket its p50 writes nothing either
        let err = write_bench(name, true, r#"{"x_min_ms": 2, "x_ms": 1, "x_max_ms": 3}"#);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(!path.exists());
    }

    #[test]
    fn spreads_must_bracket_their_siblings() {
        let ok = r#"{"rows": [{"d_min_ms": 1, "d_ms": 2, "d_p99_ms": 3e0, "d_max_ms": 3,
            "other_ms": 99, "name": "d_x_ms", "nested": {"e_min_ms": -1, "e_max_ms": 0}}]}"#;
        assert_eq!(check_spreads(ok), Ok(()));
        for bad in [
            r#"{"d_min_ms": 1, "d_ms": 2}"#,
            r#"{"d_min_ms": 1, "d_ms": 4, "d_max_ms": 3}"#,
            r#"{"d_min_ms": 2, "d_ms": 1, "d_max_ms": 3}"#,
            r#"{"d_min_ms": 1, "d_max_ms": 3, "d_p99_ms": null}"#,
            r#"{"min_ms": 1, "p50_ms": 0.5, "max_ms": 2}"#,
        ] {
            assert!(check_spreads(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn fmt_secs_precision() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(1.234), "1.23");
    }
}
