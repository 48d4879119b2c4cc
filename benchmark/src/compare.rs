//! `--compare a.json b.json`: hold the results in `b` against those in
//! `a`, one row per (end-to-end metric, workload), under the bounds of
//! `BENCHMARK.json`. Medians are compared; where either side's runs
//! spread wider than the bound the row is `unresolved`, not `ok`.

use crate::json::Json;
use crate::util::median;
use crate::Contract;
use std::path::Path;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads here read like the driver's.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload)?.get("end_to_end"))
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints the table; `Ok(false)` when any row regressed.
pub fn run(contract: &Contract, a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worse %", "iqr a %", "iqr b %", "bound"
    );
    for (workload, _) in a.get("workloads").map(Json::entries).unwrap_or_default() {
        for def in &contract.end_to_end {
            let (va, vb) = (values(&a, workload, &def.name), values(&b, workload, &def.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<12} {:<12} missing on one side", def.name);
                clean = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if def.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
            let bound = def.bound.unwrap_or(0.0);
            let (sa, sb) = (spread(&va), spread(&vb));
            let verdict = if [sa, sb].iter().flatten().any(|&s| s > bound) {
                "unresolved"
            } else if worse > bound {
                clean = false;
                "regressed"
            } else {
                "ok"
            };
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}", s * 100.0));
            println!(
                "{workload:<12} {:<12} {ma:>14.4} {mb:>14.4} {:>8.2} {:>8} {:>8} {:>6.0}  {verdict}",
                def.name,
                worse * 100.0,
                pct(sa),
                pct(sb),
                bound * 100.0,
            );
        }
        // Digests are per seed: only sets run on the same seed can be held
        // against each other.
        let seed = |r: &Json| r.get("seed").and_then(Json::as_f64);
        let digest = |r: &Json| {
            r.get("workloads")
                .and_then(|w| w.get(workload)?.get("digest")?.as_str().map(str::to_string))
        };
        if seed(&a) == seed(&b) && digest(&a) != digest(&b) {
            println!("{workload:<12} digest differs: the two sides did different work");
        }
    }
    Ok(clean)
}
