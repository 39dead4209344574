//! The benchmark's command line.
//!
//! ```text
//! benchmark run  [--workload <name>|all] [--seed S] [--seconds N]
//!                [--trace [0|1]] [--layers 0|1] [--smoke] [--out DIR]
//! benchmark diff A.json B.json
//! ```
//!
//! `run --workload <name>` measures one workload in this process, prints
//! every metric by name with its unit, writes `<out>/<name>.json` (and
//! `<name>.trace.json` when traced), and ends with the one-line JSON
//! summary `BENCHMARK.json`'s driver reads. `run --workload all` runs
//! each workload in a process of its own (so peak memory and allocator
//! state are per workload), runs the workload-independent layer drives
//! once itself when traced, and writes what it measured — only that — to
//! `<out>/result.json` (`result.traced.json` when traced). `diff` judges
//! two result files against the bounds and exits 1 on any `worse`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use replipred_benchmark::diff::{any_worse, diff};
use replipred_benchmark::layers::{self, Ctx, Metrics};
use replipred_benchmark::metrics::{Contract, END_TO_END, PER_LAYER, WORKLOADS};
use replipred_benchmark::report::{ContractLine, Header, ResultFile, WorkloadResult};
use replipred_benchmark::run::{run, Plan};
use replipred_benchmark::trace::Span;
use replipred_benchmark::workloads::Size;

const USAGE: &str = "\
usage:
  benchmark run  [--workload <name>|all] [--seed S] [--seconds N] [--trace [0|1]] [--layers 0|1] [--smoke] [--out DIR]
  benchmark diff A.json B.json

workloads: validate_quick sweep_long phases_faults predict_plan store_read store_write recover_roundtrip
defaults:  --workload all --seed 2009 --seconds <run_seconds of BENCHMARK.json> --layers 1 --out benchmark/out/seed<S>
--layers 0 leaves the workload-independent layer drives out of a traced run";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("diff") => diff_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `run` options.
struct RunOpts {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    layers: bool,
    smoke: bool,
    out: PathBuf,
}

impl RunOpts {
    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

fn parse_run(args: &[String], contract: &Contract) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: "all".to_string(),
        seed: 2009,
        seconds: contract.run_seconds as f64,
        traced: false,
        layers: true,
        smoke: false,
        out: PathBuf::new(),
    };
    let mut out = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => opts.workload = value(&mut i, "--workload")?,
            "--seed" => {
                opts.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    opts.traced = false;
                    i += 1;
                }
                Some("1") => {
                    opts.traced = true;
                    i += 1;
                }
                _ => opts.traced = true,
            },
            "--layers" => {
                opts.layers = match value(&mut i, "--layers")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--layers needs 0 or 1".to_string()),
                };
            }
            "--smoke" => opts.smoke = true,
            "--out" => out = Some(PathBuf::from(value(&mut i, "--out")?)),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", opts.workload));
    }
    opts.out = out.unwrap_or_else(|| {
        let name = format!(
            "seed{}{}",
            opts.seed,
            if opts.smoke { "-smoke" } else { "" }
        );
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name)
    });
    Ok(opts)
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let contract = Contract::load()?;
    let opts = parse_run(args, &contract)?;
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    if opts.workload == "all" {
        run_all(&opts)
    } else {
        run_one(&opts, &contract)
    }
}

fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One workload, in this process.
fn run_one(opts: &RunOpts, contract: &Contract) -> Result<ExitCode, String> {
    let plan = Plan {
        workload: opts.workload.clone(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        layers: opts.layers,
        size: opts.size(),
    };
    let (result, spans) = run(&plan)?;
    print_result(&result);
    write_json(
        &result_path(&opts.out, &opts.workload, opts.traced),
        &result,
    )?;
    if opts.traced {
        let path = opts.out.join(format!("{}.trace.json", opts.workload));
        write_json::<Vec<Span>>(&path, &spans)?;
        println!("trace           {} ({} spans)", path.display(), spans.len());
    }
    // The driver reads the last line.
    println!("{}", ContractLine::of(&result, contract).json());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, one child process each, then (traced) the layer
/// drives once in this process. The result file holds what this
/// invocation measured and nothing an earlier one left behind, so its
/// header is true of every entry.
fn run_all(opts: &RunOpts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload} ==");
        let mut child = Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .args(["--layers", "0"])
            .arg("--out")
            .arg(&opts.out);
        if opts.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
        if !status.success() {
            return Err(format!("the {workload} run exited with {status}"));
        }
        let path = result_path(&opts.out, workload, opts.traced);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let result: WorkloadResult =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        results.push(result);
    }

    let mut file = ResultFile {
        header: header(opts.seconds),
        results,
        layers: Metrics::new(),
        layer_notes: Vec::new(),
    };
    if opts.traced && opts.layers {
        println!("== layer drives ==");
        let drives = layers::measure_all(&Ctx {
            seed: opts.seed,
            size: opts.size(),
        });
        print_layers(&drives.metrics);
        for note in &drives.failures {
            println!("  FAILED        {note}");
        }
        file.layers = drives.metrics;
        file.layer_notes = drives.failures;
    }
    let path = opts.out.join(if opts.traced {
        "result.traced.json"
    } else {
        "result.json"
    });
    write_json(&path, &file)?;
    println!();
    print_summary(&file);
    println!("results         {}", path.display());
    let clean = file.results.iter().all(|r| r.correct) && file.layer_notes.is_empty();
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Output of `program args`, trimmed; `unknown` if it cannot run.
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn header(run_seconds: f64) -> Header {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Header {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu_model,
        rustc: tool_output("rustc", &["--version"]),
        commit: tool_output("git", &["rev-parse", "HEAD"]),
        run_seconds,
    }
}

fn show(value: Option<f64>) -> String {
    match value {
        None => "n/a".to_string(),
        Some(v) if v != 0.0 && v.abs() < 0.001 => format!("{v:.3e}"),
        Some(v) if v.abs() >= 100_000.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.4}"),
    }
}

fn print_result(r: &WorkloadResult) {
    println!(
        "workload        {} (seed {}{}{})",
        r.workload,
        r.seed,
        if r.traced { ", traced" } else { "" },
        if r.smoke { ", smoke" } else { "" }
    );
    println!(
        "passes          {} timed; wall_s min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        r.passes, r.wall.min, r.wall.q1, r.wall.median, r.wall.q3, r.wall.max
    );
    let samples: Vec<String> = r.wall_samples.iter().map(|s| format!("{s:.4}")).collect();
    println!("in run order    {}", samples.join(" "));
    println!(
        "set-ups         {} timed; median {:.6} s",
        r.setup.n, r.setup.median
    );
    for m in &END_TO_END {
        let value = r.end_to_end.get(m.name).copied().flatten();
        println!("{:<22} {:>14} {}", m.name, show(value), m.unit);
    }
    println!(
        "checks          {} attempted, {} failed, report_digest {}",
        r.attempted, r.failed, r.report_digest
    );
    for note in &r.notes {
        println!("  FAILED        {note}");
    }
    if !r.traced {
        return;
    }
    println!();
    print_layers(&r.per_layer);
    println!();
    println!("where the traced pass's host time went (self time by layer):");
    println!(
        "{:<12} {:>10} {:>12} {:>8}",
        "layer", "calls", "self s", "share"
    );
    for row in &r.layer_table {
        println!(
            "{:<12} {:>10} {:>12.4} {:>7.1}%",
            row.layer,
            row.calls,
            row.self_s,
            row.share * 100.0
        );
    }
}

/// The measured per-layer metrics, in registry order.
fn print_layers(metrics: &Metrics) {
    for m in &PER_LAYER {
        if let Some(value) = metrics.get(m.name) {
            println!("{:<40} {:>14} {}", m.name, show(*value), m.unit);
        }
    }
}

fn print_summary(file: &ResultFile) {
    print!("{:<20}", "metric");
    for w in WORKLOADS {
        print!(" {w:>17}");
    }
    println!();
    let results: Vec<Option<&WorkloadResult>> = WORKLOADS
        .iter()
        .map(|w| file.results.iter().find(|r| r.workload == *w))
        .collect();
    for m in &END_TO_END {
        print!("{:<20}", format!("{} [{}]", m.name, m.unit));
        for r in &results {
            let value = r.and_then(|r| r.end_to_end.get(m.name).copied().flatten());
            print!(" {:>17}", show(value));
        }
        println!();
    }
}

fn diff_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ResultFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = (load(old)?, load(new)?);
    let rows = diff(&old, &new, &Contract::load()?);
    if rows.is_empty() {
        return Err(format!(
            "no workload has an untraced result in either file (diff judges end-to-end metrics; give it result.json files)\n{USAGE}"
        ));
    }
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "old", "new", "new/old", "bound"
    );
    for row in &rows {
        println!(
            "{:<18} {:<20} {:>14} {:>14} {:>9} {:>8}  {}{}",
            row.workload,
            row.metric,
            show(row.old),
            show(row.new),
            row.ratio
                .map_or_else(|| "-".to_string(), |r| format!("{r:.4}")),
            row.bound,
            row.verdict.key(),
            if row.why.is_empty() {
                String::new()
            } else {
                format!(" ({})", row.why)
            }
        );
    }
    let worse = any_worse(&rows);
    println!(
        "{} rows, {} worse, {} unresolved (ratios are new / old)",
        rows.len(),
        rows.iter().filter(|r| r.verdict.key() == "worse").count(),
        rows.iter()
            .filter(|r| r.verdict.key() == "unresolved")
            .count()
    );
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
