//! The repository's benchmark: four workloads, end-to-end metrics and a
//! per-layer ledger. `benchmark/README.md` says what is measured and why;
//! `BENCHMARK.json` names the metrics, their units and their bounds, and
//! is read at run time so the two cannot drift apart.

mod ais_ingest;
mod common;
mod compare;
mod json;
mod layers;
mod ledger;
mod modis_churn;
mod paper_meta;
mod query_mix;
mod replay;
mod trace;
mod util;

use common::{Opts, Outcome};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: benchmark/run.sh [--workload <name>] [--seed S] [--seconds N] [--trace 0|1]
                        [--runs N] [--smoke] [--record]
       benchmark/run.sh --compare <a.json> <b.json>

  (no --workload)  every workload in a fresh process each, untraced then
                   traced; writes benchmark/out/results.json
  --workload W     one run of W; the last line of output is the result
  --seed S         generator seeds are the paper's seeds xor S (default 0)
  --seconds N      how long each measured loop runs (default: run_seconds)
  --trace 1        the traced run: per-layer metrics and trace-<W>.json
  --runs N         without --workload: N untraced runs per workload on
                   seeds S..S+N-1, for medians and spreads (default 1)
  --smoke          20k-row inputs, one repeat, checks only
  --record         also save the results as benchmark/baseline.json
  --compare A B    hold results B against results A under the bounds";

type WorkloadFn = fn(&Opts) -> Outcome;

const WORKLOADS: [(&str, WorkloadFn); 4] = [
    ("ais_ingest", ais_ingest::run),
    ("modis_churn", modis_churn::run),
    ("query_mix", query_mix::run),
    ("paper_meta", paper_meta::run),
];

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// Share of the baseline by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
    pub higher_is_better: bool,
}

pub struct Contract {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn load(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text)?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                    Ok(MetricDef {
                        name: field("name").ok_or(format!("{key}: a metric has no name"))?,
                        unit: field("unit").ok_or(format!("{key}: a metric has no unit"))?,
                        bound: m.get("bound").and_then(Json::as_f64),
                        higher_is_better: field("better").as_deref() == Some("higher"),
                    })
                })
                .collect()
        };
        Ok(Contract {
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0),
        })
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    smoke: bool,
    record: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        runs: 1,
        smoke: false,
        record: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let number = |v: &String| v.parse::<f64>().map_err(|_| format!("{arg}: not a number: {v}"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                // Any whole number is a seed; a negative one by its bits.
                out.seed = v
                    .parse::<u64>()
                    .or_else(|_| v.parse::<i64>().map(|s| s as u64))
                    .map_err(|_| format!("--seed: not a whole number: {v}"))?
            }
            "--seconds" => out.seconds = Some(number(value()?)?),
            "--trace" => out.trace = number(value()?)? != 0.0,
            "--runs" => out.runs = (number(value()?)? as usize).max(1),
            "--smoke" => out.smoke = true,
            "--record" => out.record = true,
            "--compare" => out.compare = Some((value()?.into(), value()?.into())),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being every one `BENCHMARK.json` lists for
/// this kind of run.
fn result_line(defs: &[MetricDef], outcome: &Outcome, traced: bool) -> Result<Json, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match outcome.metrics.get(&def.name) {
            Some(v) => *v,
            // A layer this workload does not exercise: zero spans.
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", def.name)),
        };
        metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit.as_str()))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.ops.failed == 0)),
        ("attempted", Json::Num(outcome.ops.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.ops.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn run_one(contract: &Contract, name: &str, opts: &Opts) -> Result<(), String> {
    let run = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .map(|(_, run)| run)
        .ok_or(format!("unknown workload {name}"))?;
    std::fs::create_dir_all(&opts.tmp_dir)
        .map_err(|e| format!("{}: {e}", opts.tmp_dir.display()))?;
    let outcome = run(opts);
    let defs = if opts.trace { &contract.per_layer } else { &contract.end_to_end };
    let line = result_line(defs, &outcome, opts.trace)?;

    println!(
        "workload {name}  seed {}  {}",
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    for def in defs {
        let value = outcome.metrics.get(&def.name).copied().unwrap_or(0.0);
        let bound = def.bound.map_or(String::new(), |b| format!("  (bound {:.0} %)", b * 100.0));
        println!("  {:<36} {:>16.4} {}{}", def.name, value, def.unit, bound);
    }
    for (key, value) in &outcome.notes {
        println!("  # {key}: {value}");
    }
    for problem in &outcome.ops.problems {
        println!("  ! {problem}");
    }
    println!("digest: {}", outcome.digest.hex());
    println!("{}", line.compact());
    Ok(())
}

/// Run one workload in a fresh process and hand back its result line
/// and digest. The child's report is passed through.
fn spawn(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out =
        cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let digest =
        lines.iter().find_map(|l| l.strip_prefix("digest: ")).unwrap_or_default().to_string();
    Ok((Json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?, digest))
}

fn run_all(
    contract: &Contract,
    args: &Args,
    bench_dir: &Path,
    seconds: f64,
) -> Result<bool, String> {
    let baseline = std::fs::read_to_string(bench_dir.join("baseline.json"))
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, _) in WORKLOADS {
        let mut runs = Vec::new();
        let mut digest = String::new();
        for i in 0..args.runs as u64 {
            let (line, d) = spawn(name, args.seed + i, seconds, false, args.smoke)?;
            all_correct &= line.get("correct").and_then(Json::as_bool) == Some(true);
            if i == 0 {
                digest = d;
            }
            runs.push(line);
        }
        let (traced, _) = spawn(name, args.seed, seconds, true, args.smoke)?;
        all_correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);

        // A digest that differs from the recorded one means the work
        // itself changed: worth saying, not a failure.
        let recorded = baseline
            .as_ref()
            .filter(|b| b.get("seed").and_then(Json::as_f64) == Some(args.seed as f64))
            .filter(|b| b.get("smoke").and_then(Json::as_bool) == Some(args.smoke))
            .and_then(|b| b.get("workloads")?.get(name)?.get("digest")?.as_str());
        if let Some(recorded) = recorded.filter(|&r| r != digest) {
            println!("note: {name} digest {digest} differs from the recorded {recorded}");
        }
        workloads.push((
            name.to_string(),
            Json::obj([
                ("digest", Json::Str(digest)),
                ("end_to_end", Json::Arr(runs)),
                ("per_layer", traced),
            ]),
        ));
    }
    for def in &contract.per_layer {
        let seen = workloads.iter().any(|(_, w)| {
            let value = w
                .get("per_layer")
                .and_then(|t| t.get("metrics")?.get(&def.name)?.get("value")?.as_f64());
            value.is_some_and(|v| v != 0.0)
        });
        if !seen && !args.smoke {
            println!("note: per-layer metric {} is zero on every workload", def.name);
        }
    }
    let results = Json::obj([
        ("host", util::host_descriptor()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let out_dir = bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut targets = vec![out_dir.join("results.json")];
    if args.record {
        targets.push(bench_dir.join("baseline.json"));
    }
    for path in targets {
        std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `run.sh` says where the benchmark lives; the repository root (and
    // `BENCHMARK.json`) is its parent.
    let bench_dir =
        PathBuf::from(std::env::var_os("ELASTIC_BENCH_DIR").unwrap_or("benchmark".into()));
    let root = bench_dir.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let done = Contract::load(root).and_then(|contract| {
        if let Some((a, b)) = &args.compare {
            return compare::run(&contract, a, b);
        }
        let seconds = args.seconds.unwrap_or(contract.run_seconds);
        match &args.workload {
            Some(name) => {
                let opts = Opts {
                    seed: args.seed,
                    seconds,
                    trace: args.trace,
                    smoke: args.smoke,
                    tmp_dir: bench_dir.join("out").join("tmp"),
                    out_dir: bench_dir.join("out"),
                };
                run_one(&contract, name, &opts).map(|()| true)
            }
            None => run_all(&contract, &args, &bench_dir, seconds),
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
