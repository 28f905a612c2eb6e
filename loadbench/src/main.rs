//! `co-load` — the end-to-end load benchmark of coqld and coqld-router.
//!
//! ```text
//! bash loadbench/run.sh --workload dup_hot --seed 1 --seconds 30 --trace 0
//! bash loadbench/run.sh suite --seeds 1 --out report.json    # every workload, both kinds of run
//! bash loadbench/run.sh compare base.json new.json           # bounds from BENCHMARK.json
//! ```
//!
//! A single run prints each metric as `<workload> <metric> <value> <unit>`
//! and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). It writes a JSON report, and for a traced run the spans
//! as JSON lines, under `coload/` in the build's target directory. It exits
//! 1 after printing when any verdict or certificate was wrong, and 3
//! without printing a result when the servers could not be set up.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use co_bench::json::Json;
use co_load::compare::{bounds, compare, Verdict};
use co_load::gen::{workload, WORKLOADS};
use co_load::run::{run, Metric, RunOutput, RunSpec, Target, WARMUP};
use co_load::trace::write_jsonl;

/// The benchmark description, read from the directory the command runs in
/// (the repository root).
const BENCHMARK: &str = "BENCHMARK.json";

const USAGE: &str = "\
usage: co-load --workload <name> --seed <n> --seconds <s> --trace <0|1>
       co-load suite [--seeds <a-b|a,b,...>] [--out <file>]
       co-load compare <base.json> <new.json>
suite and compare read BENCHMARK.json from the current directory.
workloads: dup_hot, cold_evict, fleet_dup";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("suite") => suite(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => single(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("co-load: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [k, v] if k.starts_with("--") => Ok((k.as_str(), v.as_str())),
            _ => Err(format!("expected `--flag value`, got `{}`", pair.join(" "))),
        })
        .collect()
}

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} expects a number, got `{value}`"))
}

/// The directory holding this executable and the server binaries.
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent().map(Path::to_path_buf).ok_or_else(|| "executable has no directory".to_string())
}

/// Where reports and traces go: `coload/` beside the build profile's
/// directory (inside the target directory).
fn out_dir() -> Result<PathBuf, String> {
    let dir = bin_dir()?;
    Ok(dir.parent().unwrap_or(&dir).join("coload"))
}

fn metric_json(list: &[Metric]) -> Json {
    Json::Obj(
        list.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::num(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of a run: one compact JSON object.
fn result_line(out: &RunOutput) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

fn single(args: &[String]) -> Result<ExitCode, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for (k, v) in flags(args)? {
        match k {
            "--workload" => name = Some(v),
            "--seed" => seed = Some(num::<u64>(k, v)?),
            "--seconds" => seconds = Some(num::<f64>(k, v)?),
            "--trace" => trace = Some(num::<u8>(k, v)? == 1),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let w = workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let (Some(seed), Some(seconds), Some(trace)) = (seed, seconds, trace) else {
        return Err("--seed, --seconds and --trace are required".into());
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let spec = RunSpec { workload: w, seed, seconds, trace, warmup: WARMUP };
    let dir = bin_dir()?;
    let out = match run(&spec, &Target::Spawn(&dir)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("co-load: {name}: run failed: {e}");
            return Ok(ExitCode::from(3));
        }
    };
    for m in out.metrics.iter().chain(&out.extra) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        println!("# {name}: {note}");
    }
    let report = Json::Obj(vec![
        ("format".into(), Json::str("co-load/run-v1")),
        ("workload".into(), Json::str(name)),
        ("seed".into(), Json::num(seed as f64)),
        ("seconds".into(), Json::num(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("host_cores".into(), Json::num(cores() as f64)),
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::num(out.attempted as f64)),
        ("failed".into(), Json::num(out.failed as f64)),
        ("metrics".into(), metric_json(&out.metrics)),
        ("extra".into(), metric_json(&out.extra)),
        ("notes".into(), Json::Arr(out.notes.iter().map(Json::str).collect())),
    ]);
    let kind = if trace { "layers" } else { "load" };
    write_file(&out_dir()?.join(format!("{kind}-{name}.json")), &format!("{report}\n"))?;
    if trace {
        let mut text = String::new();
        write_jsonl(&mut text, &out.spans);
        write_file(&out_dir()?.join(format!("trace-{name}.jsonl")), &text)?;
    }
    println!("{}", result_line(&out));
    Ok(if out.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = text.split_once('-') {
        let (a, b): (u64, u64) = (num("--seeds", a)?, num("--seeds", b)?);
        return Ok((a..=b).collect());
    }
    text.split(',').map(|s| num("--seeds", s)).collect()
}

/// Runs one child run of this executable and returns its parsed result
/// line, echoing its metric lines.
fn child_run(w: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let args = [
        "--workload".to_string(),
        w.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
        "--trace".into(),
        (trace as u8).to_string(),
    ];
    let output = Command::new(exe).args(&args).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let parsed = Json::parse(last).map_err(|e| {
        format!(
            "{w} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if parsed.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{w} seed {seed}: wrong verdicts or certificates"));
    }
    Ok(parsed)
}

fn suite(args: &[String]) -> Result<ExitCode, String> {
    let mut seeds = vec![1];
    let mut out_path = None;
    for (k, v) in flags(args)? {
        match k {
            "--seeds" => seeds = parse_seeds(v)?,
            "--out" => out_path = Some(PathBuf::from(v)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = read_json(BENCHMARK)?
        .get("run_seconds")
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{BENCHMARK} has no run_seconds"))?;
    let mut workloads = Vec::new();
    for name in WORKLOADS.iter().map(|w| w.name) {
        // End-to-end values per metric, in seed order.
        let mut e2e: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut tally = |result: &Json| {
            attempted += result.get("attempted").and_then(Json::as_num).unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_num).unwrap_or(0.0);
        };
        for &seed in &seeds {
            let result = child_run(name, seed, seconds, false)?;
            tally(&result);
            if let Some(Json::Obj(metrics)) = result.get("metrics") {
                for (metric, v) in metrics {
                    let value = v.get("value").and_then(Json::as_num).unwrap_or(f64::NAN);
                    let unit = v.get("unit").and_then(Json::as_str).unwrap_or_default();
                    match e2e.iter_mut().find(|(n, _, _)| n == metric) {
                        Some(entry) => entry.2.push(value),
                        None => e2e.push((metric.clone(), unit.to_string(), vec![value])),
                    }
                }
            }
        }
        let layers = child_run(name, seeds[0], seconds, true)?;
        tally(&layers);
        let end_to_end = Json::Obj(
            e2e.into_iter()
                .map(|(n, unit, vals)| {
                    let values = Json::Arr(vals.into_iter().map(Json::num).collect());
                    (
                        n,
                        Json::Obj(vec![
                            ("unit".into(), Json::str(unit)),
                            ("values".into(), values),
                        ]),
                    )
                })
                .collect(),
        );
        workloads.push((
            name.to_string(),
            Json::Obj(vec![
                ("attempted".into(), Json::num(attempted)),
                ("failed".into(), Json::num(failed)),
                ("end_to_end".into(), end_to_end),
                ("per_layer".into(), layers.get("metrics").cloned().unwrap_or(Json::Null)),
            ]),
        ));
    }
    let report = Json::Obj(vec![
        ("format".into(), Json::str("co-load/suite-v1")),
        ("host_cores".into(), Json::num(cores() as f64)),
        ("seconds".into(), Json::num(seconds)),
        ("seeds".into(), Json::Arr(seeds.iter().map(|&s| Json::num(s as f64)).collect())),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let path = match out_path {
        Some(p) => p,
        None => out_dir()?.join("suite.json"),
    };
    write_file(&path, &format!("{report}\n"))?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else { return Err("compare needs two reports".into()) };
    let rules = bounds(&read_json(BENCHMARK)?)?;
    let rows = compare(&read_json(base)?, &read_json(new)?, &rules);
    if rows.is_empty() {
        return Err("the reports share no workload and metric".into());
    }
    println!(
        "{:<11} {:<15} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "worse%", "spread%", "bound%"
    );
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        };
        println!(
            "{:<11} {:<15} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>6.1}  {verdict}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0
        );
    }
    let breaches = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    if breaches > 0 {
        println!("{breaches} regression(s) beyond bound");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
