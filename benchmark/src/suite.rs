//! All four workloads as one stamped result document, and the
//! comparison of two such documents.

use std::path::Path;
use std::process::Command;

use crate::config::parallelism;
use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};

fn stamp(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Run one workload in a child process of its own (so `peak_rss_mb` is
/// that workload's alone) and return its result line and detail line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("DETAIL "))
        .map_or(Ok(Json::Null), Json::parse)?;
    Ok((result, detail))
}

/// Print one run's metrics, one `workload metric value unit` line each.
fn print_metrics(workload: &str, result: &Json) {
    for (metric, v) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{workload:<16} {metric:<44} {value:>16.4} {unit}");
    }
}

/// Run every workload and write one result document to `out`.
/// Returns whether every output was correct.
pub fn run_all(
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: &Path,
) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        eprintln!("== {name}");
        let (result, detail) = child(name, seed, seconds, false, quick)?;
        let correct = result
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        all_correct &= correct;
        let mut entry = vec![
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                result.get("attempted").cloned().unwrap_or(Json::Null),
            ),
            (
                "failed",
                result.get("failed").cloned().unwrap_or(Json::Null),
            ),
            (
                "end_to_end",
                result.get("metrics").cloned().unwrap_or(Json::Null),
            ),
            ("detail", detail),
        ];
        print_metrics(name, &result);
        if trace {
            let (traced, _) = child(name, seed, seconds, true, quick)?;
            all_correct &= traced
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            print_metrics(name, &traced);
            entry.push((
                "per_layer",
                traced.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push((name.to_string(), Json::obj(entry)));
    }
    let doc = Json::obj(vec![
        ("commit", Json::Str(stamp("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(stamp("rustc", &["-V"]))),
        ("nproc", Json::Num(parallelism() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(out, doc.render() + "\n").map_err(|e| e.to_string())?;
    eprintln!("result written to {}", out.display());
    Ok(all_correct)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric of one workload in one result document: its value and,
/// for the timing metrics, the spread across the run's windows.
fn reading(doc: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let w = doc.get("workloads")?.get(workload)?;
    let value = w.get("end_to_end")?.get(metric)?.get("value")?.as_f64()?;
    let spread = w
        .get("detail")
        .and_then(|d| d.get("spread"))
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("iqr_share"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    Some((value, spread))
}

/// `regressed` when the new median is worse by more than the bound;
/// `unresolved` when it is not, but either run's own spread is wider
/// than the bound, so "no change" cannot be told from the data; else
/// `ok`.
pub fn verdict(worsening: f64, spread: f64, bound: f64) -> &'static str {
    if worsening > bound {
        "regressed"
    } else if spread > bound {
        "unresolved"
    } else {
        "ok"
    }
}

/// Print every end-to-end metric × workload of two result documents.
/// Returns `false` when anything regressed.
pub fn compare(old: &Path, new: &Path) -> Result<bool, String> {
    let (old_doc, new_doc) = (load(old)?, load(new)?);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "worse by", "bound"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        for m in END_TO_END {
            let (Some((a, sa)), Some((b, sb))) = (
                reading(&old_doc, workload, m.name),
                reading(&new_doc, workload, m.name),
            ) else {
                println!("{workload:<16} {:<20} missing in one of the files", m.name);
                clean = false;
                continue;
            };
            let worse = m.better.worsening(a, b);
            let v = verdict(worse, sa.max(sb), m.bound);
            clean &= v != "regressed";
            println!(
                "{workload:<16} {:<20} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%  {v}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.12, 0.01, 0.10), "regressed");
        assert_eq!(verdict(0.04, 0.15, 0.10), "unresolved");
        assert_eq!(verdict(0.04, 0.02, 0.10), "ok");
        assert_eq!(verdict(-0.30, 0.02, 0.10), "ok");
    }

    #[test]
    fn readings_come_from_the_result_document() {
        let doc = Json::parse(
            r#"{"workloads":{"serve_hot":{"end_to_end":{"p50_us":{"value":12.5,"unit":"us"}},
                "detail":{"spread":{"p50_us":{"iqr_share":0.03}}}}}}"#,
        )
        .unwrap();
        assert_eq!(reading(&doc, "serve_hot", "p50_us"), Some((12.5, 0.03)));
        assert_eq!(reading(&doc, "serve_hot", "p95_us"), None);
    }
}
