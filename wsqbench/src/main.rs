//! `wsqbench` — the repo's benchmark. See `README.md` beside this
//! package for the metric and workload definitions.
//!
//! ```text
//! wsqbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the JSON result
//! wsqbench --seed N [--seconds S] [--traced] [--runs K] [--out FILE]
//!                                                          every workload, each run in a fresh process
//! wsqbench --smoke                                         every workload at 1/50 length, traced, names checked
//! wsqbench compare A.json B.json                           apply the recorded bounds to two reports
//! ```

mod affinity;
mod compare;
mod json;
mod layers;
mod metrics;
mod oracle;
mod rng;
mod speed;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Outcome, RunArgs};

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    smoke: bool,
    setups: usize,
    runs: usize,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        traced: false,
        smoke: false,
        setups: 5,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read '{v}'"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = num(flag, value()?)?,
            "--trace" => cli.trace = num::<u8>(flag, value()?)? != 0,
            "--setups" => cli.setups = num(flag, value()?)?,
            "--runs" => cli.runs = num(flag, value()?)?,
            "--out" => cli.out = Some(value()?),
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if cli.smoke {
        cli.seconds = RUN_SECONDS / 50.0;
        cli.traced = true;
        cli.setups = 1;
    }
    Ok(cli)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn provenance(cli: &Cli) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("setups", Json::Num(cli.setups as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(env!("WSQBENCH_RUSTC"))),
        ("commit", Json::str(git_commit())),
        ("profile", Json::str("release")),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(name, value)| {
                let unit = metrics::unit_of(name).expect("every reported metric is in the table");
                (
                    *name,
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}

/// One run of one workload in this process.
fn run_one(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    metrics::workload(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        setups: cli.setups,
    };
    let provenance = provenance(cli);
    let pinned = affinity::pin_to_one_cpu();
    println!(
        "wsqbench {workload} trace={} one_cpu={pinned} {}",
        u8::from(cli.trace),
        provenance.encode()
    );
    let outcome = if cli.trace {
        workloads::run_traced(workload, &args)?
    } else {
        workloads::run_end_to_end(workload, &args)?
    };
    for failure in &outcome.failures {
        eprintln!("FAILED {failure}");
    }
    for (name, value) in &outcome.metrics {
        println!(
            "  {name:<34} {value:>14.4} {}",
            metrics::unit_of(name).unwrap_or("")
        );
    }
    println!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", result_line(&outcome).encode());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run `workload` once in a fresh child process — so `peak_rss_mb` and
/// caches do not leak between workloads — and return its result line.
fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--setups", &cli.setups.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("the {workload} run printed nothing ({})", output.status))?;
    Json::parse(last).map_err(|e| format!("the {workload} run's result line: {e}"))
}

/// Every workload, each run its own process; prints every metric by
/// name with its unit and writes the report `compare` reads.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let mut clean = true;
    let mut report = Vec::new();
    for w in &WORKLOADS {
        println!("{} — {}", w.name, w.why);
        let mut attempted = Vec::new();
        let mut failed = Vec::new();
        let mut values: Vec<(String, &'static str, Vec<f64>)> = Vec::new();
        for _ in 0..cli.runs.max(1) {
            for trace in [false, true] {
                if trace && !cli.traced {
                    continue;
                }
                let result = run_child(cli, w.name, trace)?;
                let field = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                attempted.push(Json::Num(field("attempted")));
                failed.push(Json::Num(field("failed")));
                clean &= result.get("correct").and_then(Json::as_bool) == Some(true);
                let got = result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or("result line without metrics")?;
                let table = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                if !got
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .eq(table.iter().map(|m| m.name))
                {
                    return Err(format!("{}: metric names differ from the table", w.name));
                }
                for ((name, m), spec) in got.iter().zip(table) {
                    let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    match values.iter_mut().find(|(n, _, _)| n == name) {
                        Some((_, _, vs)) => vs.push(v),
                        None => values.push((name.clone(), spec.unit, vec![v])),
                    }
                }
            }
        }
        for (name, unit, vs) in &values {
            let spread = if vs.len() > 1 {
                format!(
                    "  spread {:.1}% over {} runs",
                    stats::iqr_share(vs) * 100.0,
                    vs.len()
                )
            } else {
                String::new()
            };
            println!("  {name:<34} {:>14.4} {unit}{spread}", stats::median_of(vs));
        }
        report.push((
            w.name,
            Json::obj([
                ("attempted", Json::Arr(attempted)),
                ("failed", Json::Arr(failed)),
                (
                    "metrics",
                    Json::obj(values.into_iter().map(|(name, unit, vs)| {
                        let vs = Json::Arr(vs.into_iter().map(Json::Num).collect());
                        (name, Json::obj([("unit", Json::str(unit)), ("values", vs)]))
                    })),
                ),
            ]),
        ));
    }
    let doc = Json::obj([
        ("provenance", provenance(cli)),
        ("runs", Json::Num(cli.runs.max(1) as f64)),
        ("workloads", Json::obj(report)),
    ]);
    if let Some(path) = &cli.out {
        std::fs::write(path, doc.encode() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written to {path}");
    }
    println!(
        "{}",
        if clean {
            "all results correct"
        } else {
            "WRONG RESULTS"
        }
    );
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("usage: wsqbench compare A.json B.json".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(if compare::compare(&load(a)?, &load(b)?)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // A debug build adds the plan-verifier gate to every query and is
    // several times slower: its numbers would mean nothing.
    if cfg!(debug_assertions) {
        eprintln!("wsqbench: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        parse_cli(&args).and_then(|cli| match &cli.workload {
            Some(workload) => run_one(&cli, workload),
            None => run_all(&cli),
        })
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("wsqbench: {e}");
        ExitCode::from(2)
    })
}
