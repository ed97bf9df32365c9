use loopbench::compare::{compare, parse_report};
use loopbench::metrics::{metrics_json, num, quote, Measured, RunResult, TRACE_OVERHEAD};
use loopbench::run::{cores, measure};
use loopbench::workload::{shape, shapes};
use loopbench::{DEFAULT_SECONDS, DEFAULT_SEED, OUT_DIR};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  loopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  loopbench run <workload> [--trace] [--seed <n>] [--seconds <s>]
  loopbench all [--seed <n>] [--seconds <s>]
  loopbench compare <A.json> <B.json>";

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: u64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                args.seconds = Some(s);
            }
            // `--trace` alone (the `run` form) or `--trace 0|1`.
            "--trace" => {
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

fn out_path(file: &str) -> PathBuf {
    Path::new(OUT_DIR).join(file)
}

fn result_path(workload: &str, traced: bool) -> PathBuf {
    out_path(&format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "untraced" }
    ))
}

fn write_out(path: &Path, content: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One workload, one mode: prints every metric by name and unit, keeps
/// the full result (and the trace) under `benchmark/out/`, and ends with
/// the one-line JSON summary.
fn run_one(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<bool, String> {
    let shape = shape(workload).ok_or_else(|| {
        let names: Vec<&str> = shapes().iter().map(|s| s.name).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    let (result, rec) = measure(&shape, seed, seconds, None, traced)?;
    println!(
        "{workload} seed={seed} epochs={} wall={:.3}s cores={} {}",
        result.epochs,
        result.wall_s,
        result.cores,
        if traced { "traced" } else { "untraced" }
    );
    print!("{}", result.table());
    for c in &result.checks {
        println!("  CHECK FAILED: {c}");
    }
    write_out(&result_path(workload, traced), &result.to_json())?;
    if traced {
        write_out(
            &out_path(&format!("{workload}.trace.jsonl")),
            &rec.to_jsonl(),
        )?;
    }
    println!("{}", result.contract_line());
    Ok(result.correct())
}

/// Every workload, untraced then traced, one child process each (so
/// `peak_rss_mb` is the workload's own); writes `report.json`.
fn run_all(seed: u64, seconds: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating loopbench: {e}"))?;
    let mut ok = true;
    let mut sections = Vec::new();
    for shape in shapes() {
        let mut results = Vec::new();
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", shape.name, "--seed", &seed.to_string()]);
            cmd.args(["--seconds", &seconds.to_string()]);
            if traced {
                cmd.arg("--trace");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("spawning {}: {e}", shape.name))?;
            ok &= status.success();
            let path = result_path(shape.name, traced);
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            results.push(RunResult::from_json(&src)?);
        }
        let (untraced, mut traced) = (results.remove(0), results.remove(0));
        if untraced.deterministic != traced.deterministic {
            ok = false;
            println!(
                "{}: traced and untraced runs disagree:\n  untraced {:?}\n  traced   {:?}",
                shape.name, untraced.deterministic, traced.deterministic
            );
        }
        traced.metrics.insert(
            TRACE_OVERHEAD.name.to_string(),
            Measured {
                unit: TRACE_OVERHEAD.unit.to_string(),
                value: traced.wall_s / untraced.wall_s - 1.0,
                n: None,
            },
        );
        sections.push(format!(
            "    {}: {{\n      \"epochs\": {},\n      \"correct\": {},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            quote(shape.name),
            untraced.epochs,
            untraced.correct() && traced.correct(),
            metrics_json(&untraced.metrics, "      "),
            metrics_json(&traced.metrics, "      "),
        ));
    }
    let report = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"cores\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        num(seconds as f64),
        cores(),
        sections.join(",\n")
    );
    let path = out_path("report.json");
    write_out(&path, &report)?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let src = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        parse_report(&src).map_err(|e| format!("{p}: {e}"))
    };
    let (table, any_worse) = compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        let seed = args.seed.unwrap_or(DEFAULT_SEED);
        let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
        let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
        match (positional.as_slice(), args.workload.as_deref()) {
            ([], Some(w)) | (&["run", w], None) => run_one(w, seed, seconds, args.trace),
            (["all"], None) => run_all(seed, seconds),
            (["compare", a, b], None) => run_compare(a, b),
            _ => Err(USAGE.to_string()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("loopbench: {msg}");
            ExitCode::from(2)
        }
    }
}
