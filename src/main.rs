//! `replipred` — command-line scalability prediction.
//!
//! ```text
//! replipred predict  --workload tpcw-shopping --design mm --replicas 16
//! replipred sweep    --workload tpcw-shopping --design all --replicas 8 --json
//! replipred simulate --workload tpcw-shopping --design sm --replicas 8
//! replipred phases   --workload rubis-bidding --schedule "crash@30=1,join@60=1"
//! replipred validate --workload all --replicas 4 --jobs 8
//! replipred plan     --workload tpcw-ordering --tps 250 --max-response-ms 400
//! replipred profile  --workload rubis-bidding --seed 7
//! replipred figures  fig6 fig7 --jobs 8
//! ```
//!
//! One binary, one flag table: [`FLAGS`] says which subcommands accept
//! each flag, one pass over argv checks the command line against it
//! ([`Args::parse`]), and the usage text is generated from it —
//! `replipred help` is the reference for flags, workload names and the
//! `--schedule` grammar. Every experiment subcommand is then a thin front
//! end over [`replipred::scenario::Scenario`] (`validate` over
//! [`replipred::validate::ValidationGrid`], `figures` over
//! [`replipred::figures`]), with the flags they share typed once into
//! [`RunOpts`]; each returns its output as a string rendered by library
//! code ([`replipred::render`]), and `main` prints it.

use std::process::ExitCode;

use replipred::figures::{self, ARTIFACTS};
use replipred::model::planner::{plan_designs, Slo};
use replipred::model::{Design, WorkloadProfile};
use replipred::profiler::Profiler;
use replipred::repl::{DurabilityConfig, Schedule};
use replipred::scenario::{parse_workload, Scenario, DEFAULT_SEED, PAPER_CLUSTER};
use replipred::sim::pool::default_jobs;
use replipred::validate::{doubling_points, split_workloads, ValidationGrid};
use replipred::{recover, render};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            // Only the failing subcommand's synopsis; `help` has the rest.
            let shown = match argv.first().and_then(|c| command(c)) {
                Some(cmd) => synopsis(cmd),
                None => synopses(),
            };
            eprintln!("error: {msg}\n\nusage:\n{shown}\n(`replipred help` prints every flag)");
            ExitCode::FAILURE
        }
    }
}

/// What a subcommand body returns: everything it prints, or the error.
type Output = Result<String, String>;

/// One subcommand: its name, what it takes positionally, the flags it
/// cannot run without (every other flag the table grants it is optional),
/// and its body.
struct Command {
    name: &'static str,
    positional: &'static str,
    required: &'static [&'static str],
    run: fn(&Args, &RunOpts) -> Output,
}

#[rustfmt::skip]
static COMMANDS: [Command; 9] = [
    Command { name: "predict", positional: "", required: &["--workload"], run: |a, o| sweep(PAPER_CLUSTER, &[Design::MultiMaster], a, o) },
    Command { name: "sweep", positional: "", required: &["--workload"], run: |a, o| sweep(8, &Design::ALL, a, o) },
    Command { name: "simulate", positional: "", required: &["--workload"], run: |a, o| simulate(false, a, o) },
    Command { name: "phases", positional: "", required: &[], run: |a, o| simulate(true, a, o) },
    Command { name: "validate", positional: "", required: &[], run: validate_cmd },
    Command { name: "plan", positional: "", required: &["--workload", "--tps"], run: plan_cmd },
    Command { name: "profile", positional: "", required: &["--workload"], run: profile_cmd },
    Command { name: "recover", positional: "", required: &[], run: recover_cmd },
    Command { name: "figures", positional: "[<key>...]", required: &[], run: figures_cmd },
];

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// One row of the flag table: everything the parser and the usage text
/// know about a flag.
struct Flag {
    name: &'static str,
    /// Placeholder of the value it takes; `None` for a boolean.
    value: Option<&'static str>,
    /// The subcommands that accept it.
    cmds: &'static [&'static str],
    help: &'static str,
}

/// Subcommands that can run the cluster simulation.
const SIMULATING: &[&str] = &["sweep", "simulate", "phases"];

/// The flag table, in synopsis order. The parser accepts exactly these
/// (each only under its `cmds`), and the usage text is generated from it.
#[rustfmt::skip]
static FLAGS: [Flag; 26] = [
    Flag { name: "--workload", value: Some("<w>"), cmds: &["predict", "sweep", "simulate", "phases", "validate", "plan", "profile"],
        help: "published name, synth: description or @profile.json (validate: a comma list or `all`)" },
    Flag { name: "--design", value: Some("<d>"), cmds: &["predict", "sweep", "simulate", "phases", "validate", "plan"],
        help: "standalone, mm, sm, a comma list of those, or all" },
    Flag { name: "--replicas", value: Some("N"), cmds: &["predict", "sweep", "simulate", "phases", "validate"],
        help: "curve 1..=N (simulate/phases: the single point N; validate: doubling points 1,2,4,..,N)" },
    Flag { name: "--clients", value: Some("C"), cmds: &["predict", "sweep", "simulate", "phases", "plan"],
        help: "clients per replica (default: the workload's own C)" },
    Flag { name: "--tps", value: Some("X"), cmds: &["plan"], help: "throughput the deployment must sustain" },
    Flag { name: "--max-response-ms", value: Some("R"), cmds: &["plan"], help: "response-time ceiling of the SLO" },
    Flag { name: "--max-abort-pct", value: Some("A"), cmds: &["plan"], help: "abort-rate ceiling of the SLO" },
    Flag { name: "--simulate", value: None, cmds: &["sweep"], help: "run the cluster simulation next to the model" },
    Flag { name: "--profile-live", value: None, cmds: &["sweep"],
        help: "measure the profile via the Section-4 standalone pipeline instead of the published tables" },
    Flag { name: "--schedule", value: Some("<s>"), cmds: SIMULATING,
        help: "time-phased events applied to simulated runs (grammar below)" },
    Flag { name: "--phase-window", value: Some("W"), cmds: SIMULATING,
        help: "transient window width in seconds (enables transient reporting even without events)" },
    Flag { name: "--recovery", value: None, cmds: &["phases"],
        help: "the durable preset: tpcw-shopping x sm, crash @30 + rejoin @60 with --durable on" },
    Flag { name: "--durable", value: None, cmds: SIMULATING,
        help: "redo-log durability: commits pay fsync / group-commit, crashed replicas recover checkpoint + WAL" },
    Flag { name: "--group-commit", value: Some("G"), cmds: &["sweep", "simulate", "phases", "recover"],
        help: "commits per WAL frame (default 8; outside recover it needs --durable)" },
    Flag { name: "--fsync-ms", value: Some("F"), cmds: SIMULATING, help: "fsync cost in ms (default 2; needs --durable)" },
    Flag { name: "--log-retention", value: Some("R"), cmds: SIMULATING,
        help: "writesets kept past the slowest replica (0 = unbounded; small values force state transfers; needs --durable)" },
    Flag { name: "--commits", value: Some("N"), cmds: &["recover"],
        help: "update commits the scripted workload runs (default 64)" },
    Flag { name: "--truncate-at", value: Some("BYTES"), cmds: &["recover"],
        help: "cut the WAL mid-frame to exercise torn-tail truncation" },
    Flag { name: "--dir", value: Some("PATH"), cmds: &["recover"],
        help: "where checkpoint + WAL are written (default: a temp dir)" },
    Flag { name: "--all", value: None, cmds: &["figures"], help: "every artifact, in `--list` order" },
    Flag { name: "--list", value: None, cmds: &["figures"], help: "print the artifact keys and titles" },
    Flag { name: "--full", value: None, cmds: &["figures"],
        help: "paper-length windows (10 + 15 min) and N = 1..=16 instead of 20 + 60 s at N in {1,2,4,8,12,16}" },
    Flag { name: "--seed", value: Some("S"), cmds: &["predict", "sweep", "simulate", "phases", "validate", "plan", "profile", "recover", "figures"],
        help: "seed for profiling and simulation (default 2009, the paper's year)" },
    Flag { name: "--seeds", value: Some("K"), cmds: &["sweep", "simulate", "phases", "validate", "figures"],
        help: "seed replications per simulated point, aggregated to mean +- CI" },
    Flag { name: "--jobs", value: Some("J"), cmds: &["sweep", "simulate", "phases", "validate", "figures"],
        help: "worker threads for simulation cells (default: all cores; output is identical for every J)" },
    Flag { name: "--json", value: None, cmds: &["predict", "sweep", "simulate", "phases", "validate", "plan", "profile", "recover"],
        help: "emit the serialized report" },
];

/// `--flag <V>`, as the usage text spells it.
fn spelled(f: &Flag) -> String {
    match f.value {
        Some(v) => format!("{} {v}", f.name),
        None => f.name.to_string(),
    }
}

/// One subcommand's synopsis, generated from the tables: positionals,
/// required flags, then every other flag granted to it in brackets.
fn synopsis(cmd: &Command) -> String {
    const WIDTH: usize = 88;
    let mut line = format!("  replipred {:<8}", cmd.name);
    let indent = line.len() + 1;
    let granted = FLAGS.iter().filter(|f| f.cmds.contains(&cmd.name));
    let (required, optional): (Vec<_>, Vec<_>) =
        granted.partition(|f| cmd.required.contains(&f.name));
    let tokens = (!cmd.positional.is_empty())
        .then(|| cmd.positional.to_string())
        .into_iter()
        .chain(required.into_iter().map(spelled))
        .chain(optional.into_iter().map(|f| format!("[{}]", spelled(f))));
    let mut out = String::new();
    for token in tokens {
        if line.len() + 1 + token.len() > WIDTH {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(indent - 1);
        }
        line.push(' ');
        line.push_str(&token);
    }
    out + &line
}

fn synopses() -> String {
    let lines: Vec<String> = COMMANDS.iter().map(synopsis).collect();
    lines.join("\n")
}

/// The full `help` text: generated synopses and flag lines, then the
/// grammars no one-liner holds.
fn usage() -> String {
    let mut out = format!("usage:\n{}\n\nflags:\n", synopses());
    for f in &FLAGS {
        out.push_str(&format!("  {:<22} {}\n", spelled(f), f.help));
    }
    out + NOTES
}

const NOTES: &str = "
workloads: tpcw-browsing tpcw-shopping tpcw-ordering rubis-browsing rubis-bidding,
           a synthetic description synth:<preset> or synth:k=v,... (presets:
           read-only write-heavy long-txn hot-spot ycsb-a ycsb-b; knobs e.g.
           synth:pw=0.4,reads=8,hot=0.5,hot-rows=256),
           or @profile.json (predict/sweep/plan only)
--schedule s: comma list of time-phased events `name@time[=arg]`:
           crash@T=i join@T=i cert-down@T cert-up@T clients@T=factor
           flash-crowd@T=FACTORxDURATION phase@T=name, plus window=W
           slo=SECONDS recovery=FRACTION settings, e.g.
           \"crash@30=1,flash-crowd@45=2x15,join@60=1,window=5\"
phases:    simulate one time-phased scenario and print its windowed
           transient report; defaults to rubis-bidding x mm x 4 replicas
           under a crash + flash-crowd + rejoin demo schedule; with
           --recovery the rejoin window shows catch-up lag as WAL replay cost
recover:   scripted durability round trip on one sidb engine: run a
           deterministic update workload, persist checkpoint + crc-framed
           WAL, cold-start recover from the files alone, and verify the
           rebuilt database byte-for-byte
validate:  the prediction-vs-simulation error grid; `all` is the 5
           published mixes + 4 synth presets
figures:   regenerate the paper's Figures 6-14 and Tables 2-5, four
           ablations, two sensitivity sweeps and the capacity planner:
           model prediction next to simulated measurement";

/// The flags given on one command line, validated against [`FLAGS`] in a
/// single pass over argv.
struct Args<'a> {
    given: Vec<(&'static str, &'a str)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Rejects flags the table does not know or does not grant to `cmd`,
    /// repeats, missing values, flag names standing in for values
    /// (`--replicas --seed`), stray positionals and absent required flags.
    fn parse(cmd: &Command, argv: &'a [String]) -> Result<Self, String> {
        let mut args = Args {
            given: Vec::new(),
            positional: Vec::new(),
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                if cmd.positional.is_empty() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                args.positional.push(arg);
                continue;
            }
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let name = flag.name;
            if !flag.cmds.contains(&cmd.name) {
                return Err(format!(
                    "flag {name} does not apply to `{}` (it belongs to: {})",
                    cmd.name,
                    flag.cmds.join(", ")
                ));
            }
            if args.has(name) {
                return Err(format!("flag {name} given more than once"));
            }
            let value = if flag.value.is_none() {
                ""
            } else {
                match argv.next() {
                    Some(v) if v.starts_with("--") => {
                        return Err(format!(
                            "missing value for {name} (found flag `{v}` instead)"
                        ))
                    }
                    Some(v) => v,
                    None => return Err(format!("missing value for {name}")),
                }
            };
            args.given.push((name, value));
        }
        for name in cmd.required {
            args.req(name)?;
        }
        Ok(args)
    }

    /// The value of `name` (empty for a boolean), if it was given.
    fn get(&self, name: &str) -> Option<&'a str> {
        debug_assert!(FLAGS.iter().any(|f| f.name == name), "{name} not in FLAGS");
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn req(&self, name: &str) -> Result<&'a str, String> {
        self.get(name).ok_or_else(|| format!("missing {name}"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for {name}: {v}")),
        }
    }

    /// A count flag that must be a positive integer (`--jobs`, `--seeds`,
    /// `--replicas`): rejects non-numeric values and zero.
    fn count(&self, name: &str) -> Result<Option<usize>, String> {
        match self.parsed::<usize>(name)? {
            Some(0) => Err(format!("{name} must be at least 1")),
            other => Ok(other),
        }
    }
}

/// `--design`: one key, a comma list, or `all`; `None` when absent (each
/// subcommand supplies its own default set).
fn parse_designs(args: &Args) -> Result<Option<Vec<Design>>, String> {
    match args.get("--design") {
        None => Ok(None),
        Some("all") => Ok(Some(Design::ALL.to_vec())),
        Some(v) => {
            let mut designs = Vec::new();
            for k in v.split(',') {
                let d = Design::parse(k).ok_or_else(|| {
                    format!("unknown design `{k}` (use standalone, mm, sm or all)")
                })?;
                if designs.contains(&d) {
                    return Err(format!("duplicate design `{k}`"));
                }
                designs.push(d);
            }
            Ok(Some(designs))
        }
    }
}

/// The flags the experiment subcommands share, typed once per invocation
/// and applied uniformly: the design set, replica point(s), client
/// population, seeding, parallelism, output format, and the optional
/// time-phased [`Schedule`].
struct RunOpts {
    designs: Option<Vec<Design>>,
    replicas: Option<usize>,
    clients: Option<usize>,
    seed: u64,
    seeds: Option<usize>,
    jobs: usize,
    json: bool,
    schedule: Option<Schedule>,
    durability: Option<DurabilityConfig>,
}

/// `--durable` plus its tuning flags (`--group-commit`, `--fsync-ms`,
/// `--log-retention`). The tuning flags require `--durable`; without it
/// the simulators run exactly as pre-durability builds.
fn parse_durability(args: &Args) -> Result<Option<DurabilityConfig>, String> {
    let group = args.count("--group-commit")?;
    let fsync_ms: Option<f64> = args.parsed("--fsync-ms")?;
    let retention: Option<u64> = args.parsed("--log-retention")?;
    if !args.has("--durable") {
        if group.is_some() || fsync_ms.is_some() || retention.is_some() {
            return Err("--group-commit/--fsync-ms/--log-retention require --durable".to_string());
        }
        return Ok(None);
    }
    if let Some(ms) = fsync_ms.filter(|ms| !ms.is_finite() || *ms < 0.0) {
        return Err(format!("--fsync-ms must be non-negative (got {ms})"));
    }
    let defaults = DurabilityConfig::default();
    Ok(Some(DurabilityConfig {
        enabled: true,
        group_commit: group.unwrap_or(defaults.group_commit),
        fsync_disk: fsync_ms.map_or(defaults.fsync_disk, |ms| ms / 1e3),
        log_retention: retention.unwrap_or(defaults.log_retention),
    }))
}

impl RunOpts {
    /// Types the shared flags. `recover` owns `--group-commit` outright
    /// (its WAL is the experiment, not a simulator knob); every other
    /// subcommand requires `--durable` alongside the tuning flags.
    fn new(cmd: &Command, args: &Args) -> Result<Self, String> {
        let mut schedule = match args.get("--schedule") {
            None => None,
            Some(v) => Some(Schedule::parse(v).map_err(|e| e.to_string())?),
        };
        if let Some(w) = args.parsed::<f64>("--phase-window")? {
            // The flag form of the `window=W` token, under its bounds.
            Schedule::parse(&format!("window={w}")).map_err(|e| format!("--phase-window: {e}"))?;
            schedule = Some(schedule.unwrap_or_default().window(w));
        }
        Ok(RunOpts {
            designs: parse_designs(args)?,
            replicas: args.count("--replicas")?,
            clients: args.parsed("--clients")?,
            seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
            seeds: args.count("--seeds")?,
            jobs: args.count("--jobs")?.unwrap_or_else(default_jobs),
            json: args.has("--json"),
            schedule,
            durability: if cmd.name == "recover" {
                None
            } else {
                parse_durability(args)?
            },
        })
    }

    /// A subcommand's output: the serialized `report` under `--json`,
    /// else its `text` form.
    fn emit<T: serde::Serialize>(&self, report: &T, text: impl Fn(&T) -> String) -> String {
        if self.json {
            serde_json::to_string_pretty(report).expect("report serializes") + "\n"
        } else {
            text(report)
        }
    }

    /// The design set, or `default` when `--design` was absent.
    fn designs(&self, default: &[Design]) -> Vec<Design> {
        self.designs.clone().unwrap_or_else(|| default.to_vec())
    }

    /// Applies the shared options with `--replicas` as the `1..=N` curve
    /// (the predict/sweep shape).
    fn curve(&self, scenario: Scenario, default_replicas: usize) -> Scenario {
        self.common(scenario.replicas(1..=self.replicas.unwrap_or(default_replicas)))
    }

    /// Applies the shared options with `--replicas` as a single point
    /// (the simulate/phases shape).
    fn point(&self, scenario: Scenario, default_replicas: usize) -> Scenario {
        self.common(scenario.replicas([self.replicas.unwrap_or(default_replicas)]))
    }

    fn common(&self, scenario: Scenario) -> Scenario {
        let seeds = self.seeds.unwrap_or(1);
        let mut scenario = scenario.seed(self.seed).seeds(seeds).jobs(self.jobs);
        if let Some(clients) = self.clients {
            scenario = scenario.clients(clients);
        }
        if let Some(schedule) = &self.schedule {
            scenario = scenario.schedule(schedule.clone());
        }
        if let Some(durability) = &self.durability {
            scenario = scenario.durability(durability.clone());
        }
        scenario
    }
}

/// Builds the scenario for a `--workload` value: a registered name
/// (published or `synth:`), or `@file` holding a serialized
/// `WorkloadProfile`, validated here.
fn workload_scenario(w: &str) -> Result<Scenario, String> {
    let Some(path) = w.strip_prefix('@') else {
        return Scenario::workload(w).map_err(|e| e.to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let profile: WorkloadProfile =
        serde_json::from_str(&text).map_err(|e| format!("bad profile JSON: {e}"))?;
    profile.validate().map_err(|e| e.to_string())?;
    Ok(Scenario::from_profile(profile))
}

fn run(argv: &[String]) -> Output {
    let name = argv.first().ok_or("missing subcommand")?.as_str();
    if matches!(name, "--help" | "-h" | "help") {
        return Ok(usage() + "\n");
    }
    let cmd = command(name).ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let args = Args::parse(cmd, &argv[1..])?;
    let opts = RunOpts::new(cmd, &args)?;
    (cmd.run)(&args, &opts)
}

/// `sweep`, and `predict` — the same curve with a longer default range,
/// one default design, and neither `--simulate` nor `--profile-live`.
fn sweep(replicas: usize, designs: &[Design], args: &Args, opts: &RunOpts) -> Output {
    let w = args.req("--workload")?;
    let base = if args.has("--profile-live") {
        // Measure the profile on the standalone simulation (the paper's
        // Section-4 pipeline) instead of using the published tables —
        // exercises workload → sidb → profiler end to end.
        let spec = parse_workload(w).map_err(|e| {
            format!("--profile-live needs a published or synth: workload name: {e}")
        })?;
        Scenario::from_spec(spec)
    } else {
        workload_scenario(w)?
    };
    let simulate = args.has("--simulate");
    if opts.seeds.is_some() && !simulate {
        return Err(
            "--seeds requires --simulate (prediction is deterministic, so seed \
             replication only applies to simulated runs)"
                .into(),
        );
    }
    let scenario = opts
        .curve(base, replicas)
        .designs(opts.designs(designs))
        .simulate(simulate);
    let report = scenario.run().map_err(|e| e.to_string())?;
    Ok(opts.emit(&report, render::curves))
}

/// `simulate`, and `phases` — the same single-point simulation whose
/// workload, design, schedule and (under `--recovery`) durability have
/// defaults, and whose printed form is the transient report.
fn simulate(phased: bool, args: &Args, opts: &RunOpts) -> Output {
    let mut design = Design::MultiMaster;
    let mut workload = "rubis-bidding";
    // The demo schedule: crash a replica mid-run, pile on a flash crowd
    // while degraded, rejoin the replica, and report 5-second windows.
    let mut schedule = Schedule::new()
        .crash(30.0, 1)
        .flash_crowd(45.0, 2.0, 15.0)
        .join(60.0, 1)
        .window(5.0);
    let mut durability = None;
    if args.has("--recovery") {
        // Crash a replica, let it sit out half a minute of commits, rejoin
        // it — with durability on, so the rejoin window measures
        // checkpoint-load + WAL-replay catch-up instead of a free
        // in-memory resume. Durable rejoin-by-recovery lives in the
        // single-master design.
        design = Design::SingleMaster;
        workload = "tpcw-shopping";
        schedule = Schedule::new().crash(30.0, 1).join(60.0, 1).window(5.0);
        durability = Some(DurabilityConfig {
            enabled: true,
            ..DurabilityConfig::default()
        });
    }
    let base = workload_scenario(if phased {
        args.get("--workload").unwrap_or(workload)
    } else {
        args.req("--workload")?
    })?;
    let mut scenario = opts
        .point(base, 4)
        .designs(opts.designs(&[design]))
        .predict(false)
        .simulate(true);
    if phased && opts.schedule.is_none() {
        scenario = scenario.schedule(schedule);
    }
    if let (Some(durability), None) = (durability, &opts.durability) {
        scenario = scenario.durability(durability);
    }
    let report = scenario.run().map_err(|e| e.to_string())?;
    Ok(opts.emit(&report, |r| render::points(r, phased)))
}

fn validate_cmd(args: &Args, opts: &RunOpts) -> Output {
    let mut grid = ValidationGrid::new()
        .designs(opts.designs(&Design::ALL))
        .seed(opts.seed)
        .seeds(opts.seeds.unwrap_or(1))
        .jobs(opts.jobs);
    match args.get("--workload") {
        None | Some("all") => {}
        Some(v) => {
            let workloads = split_workloads(v);
            if workloads.is_empty() {
                return Err("--workload lists no workloads".into());
            }
            grid = grid.workloads(workloads);
        }
    }
    if let Some(max) = opts.replicas {
        grid = grid.replicas(doubling_points(max));
    }
    let report = grid.run().map_err(|e| e.to_string())?;
    Ok(opts.emit(&report, render::validation))
}

fn plan_cmd(args: &Args, opts: &RunOpts) -> Output {
    // The planner searches the system `sweep` would predict: same
    // profile, client count and think time.
    let (profile, system, _) = opts
        .common(workload_scenario(args.req("--workload")?)?)
        .resolve();
    let designs = opts.designs(&[Design::MultiMaster, Design::SingleMaster]);
    let slo = Slo {
        max_response_time: args.parsed::<f64>("--max-response-ms")?.map(|r| r / 1e3),
        max_abort_rate: args.parsed::<f64>("--max-abort-pct")?.map(|a| a / 1e2),
        min_throughput_tps: args.parsed("--tps")?.ok_or("missing --tps")?,
    };
    let plans = plan_designs(&profile, &system, &designs, &slo, PAPER_CLUSTER)
        .map_err(|e| e.to_string())?;
    Ok(opts.emit(&plans, |p| render::plans(p, PAPER_CLUSTER)))
}

fn profile_cmd(args: &Args, opts: &RunOpts) -> Output {
    let spec = parse_workload(args.req("--workload")?).map_err(|e| e.to_string())?;
    let outcome = Profiler::new(spec).seed(opts.seed).profile();
    Ok(opts.emit(&outcome.profile, render::profile))
}

fn recover_cmd(args: &Args, opts: &RunOpts) -> Output {
    let commits = args.count("--commits")?.unwrap_or(64);
    let group = args.count("--group-commit")?.unwrap_or(8);
    let cut: Option<usize> = args.parsed("--truncate-at")?;
    let dir = match args.get("--dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("replipred-recover-{}", opts.seed)),
    };
    let outcome = recover::round_trip(commits, group, cut, opts.seed, &dir)?;
    let text = opts.emit(&outcome, recover::RecoverOutcome::render);
    if !outcome.verified {
        return Err(format!(
            "recovered database does not match the live reference\n{text}"
        ));
    }
    Ok(text)
}

fn figures_cmd(args: &Args, opts: &RunOpts) -> Output {
    if args.has("--list") {
        let line = |a: &figures::Artifact| format!("{:<30} {}\n", a.key, a.title);
        return Ok(ARTIFACTS.iter().map(line).collect());
    }
    let (all, keys) = (args.has("--all"), &args.positional);
    if all != keys.is_empty() {
        return Err("name artifact keys or pass --all, one of the two (--list names them)".into());
    }
    if let Some(k) = keys.iter().find(|k| figures::find(k).is_none()) {
        return Err(format!("unknown artifact `{k}` (--list names them)"));
    }
    let mut session = figures::Session::new(figures::Options {
        seed: opts.seed,
        seeds: opts.seeds.unwrap_or(1),
        jobs: opts.jobs,
        full: args.has("--full"),
    });
    // Table order, whatever the order of the keys.
    let chosen = ARTIFACTS.iter().filter(|a| all || keys.contains(&a.key));
    Ok(chosen.map(|a| session.render(a)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits `replipred <line>` into arguments; double-quoted spans stay whole.
    fn argv(line: &str) -> Vec<String> {
        line.split('"')
            .enumerate()
            .flat_map(|(i, span)| match i % 2 {
                0 => span.split_whitespace().map(str::to_string).collect(),
                _ => vec![span.to_string()],
            })
            .collect()
    }

    /// Parses `replipred <line>` as far as the typed options, running nothing.
    fn parse(line: &str) -> Result<RunOpts, String> {
        let argv = argv(line);
        let cmd = command(&argv[0]).ok_or("unknown subcommand")?;
        RunOpts::new(cmd, &Args::parse(cmd, &argv[1..])?)
    }

    #[test]
    fn run_opts_parse_rejects_bad_values() {
        assert!(parse("phases --jobs 0").is_err());
        assert!(parse("phases --phase-window 0").is_err());
        assert!(parse("phases --phase-window -2").is_err());
        assert!(parse("phases --phase-window 1e-7").is_err());
        assert!(parse("phases --phase-window 5,slo=1").is_err());
        assert!(parse("phases --schedule crash@nan=1").is_err());
        assert!(parse("phases --schedule bogus@x").is_err());
        assert!(parse("phases --design mm,mm").is_err());
        let opts = parse("phases --schedule crash@30=1,join@60=1,window=5 --replicas 4").unwrap();
        assert_eq!(opts.replicas, Some(4));
        assert!(opts.schedule.as_ref().is_some_and(Schedule::enabled));
    }

    #[test]
    fn plan_rejects_an_slo_with_no_meaning() {
        for slo in [
            "--tps nan",
            "--tps inf",
            "--tps -5",
            "--tps 100 --max-response-ms -1",
            "--tps 100 --max-abort-pct nan",
            "--tps 100 --max-abort-pct 500",
        ] {
            let err = run(&argv(&format!("plan --workload tpcw-shopping {slo}"))).unwrap_err();
            assert!(
                err.starts_with("invalid system configuration: SLO "),
                "{slo}: {err}"
            );
        }
    }

    #[test]
    fn phase_window_alone_enables_a_schedule() {
        let opts = parse("phases --phase-window 2.5").unwrap();
        let schedule = opts.schedule.expect("window implies a schedule");
        assert!(schedule.enabled());
        assert_eq!(schedule.effective_window(), 2.5);
    }

    #[test]
    fn flags_outside_a_subcommands_grant_are_rejected_by_name() {
        for c in &COMMANDS {
            let line = |tail: &str| {
                let required: String = c.required.iter().map(|f| format!(" {f} 1")).collect();
                format!("{}{required} {tail}", c.name)
            };
            let err = parse(&line("--replcas 2")).err();
            assert_eq!(err.as_deref(), Some("unknown flag --replcas"), "{}", c.name);
            // Every flag the table withholds from this subcommand.
            for f in FLAGS.iter().filter(|f| !f.cmds.contains(&c.name)) {
                let err = parse(&line(&format!("{} 1", f.name)))
                    .err()
                    .unwrap_or_else(|| panic!("{} accepted {}", c.name, f.name));
                let expected = format!("flag {} does not apply to `{}`", f.name, c.name);
                assert!(err.starts_with(&expected), "{err}");
            }
            // Without a required flag the line is rejected naming it.
            for f in c.required {
                let err = parse(&line("").replacen(&format!(" {f} 1"), "", 1)).err();
                assert_eq!(err, Some(format!("missing {f}")), "{}", c.name);
            }
        }
        // (`predict --simulate`, `profile --tps 4`, `recover --durable`
        // are rows of the loop above.) Positionals are `figures`' alone.
        assert!(parse("predict --workload w stray").is_err());
        assert!(parse("figures fig6 table2").is_ok());
    }

    #[test]
    fn every_documented_invocation_still_parses() {
        // The CI smokes, read from the workflow file itself.
        let ci = include_str!("../.github/workflows/ci.yml");
        let smokes: Vec<&str> = ci
            .lines()
            .filter_map(|l| {
                l.split_once("cargo run --release -- ")
                    .map(|(_, rest)| rest)
            })
            .collect();
        assert!(smokes.len() >= 11, "CI lost its CLI smokes: {smokes:?}");
        // The two process spawns of `benchmark/src/layers/cli.rs`.
        let harness = [
            "predict --workload tpcw-shopping --design mm --replicas 4 --json",
            "recover --commits 20000 --json --dir benchmark/out/cli-recover",
        ];
        // The README's Examples table: one `replipred …` command a row.
        let readme = include_str!("../README.md");
        let (_, examples) = readme
            .split_once("## Examples")
            .expect("README has Examples");
        let examples: Vec<&str> = examples
            .lines()
            .take_while(|l| !l.starts_with("## "))
            .filter_map(|l| l.split_once("`replipred ").map(|(_, rest)| rest))
            .map(|rest| rest.split_once('`').map_or(rest, |(cmd, _)| cmd))
            .collect();
        assert!(
            examples.len() >= 6,
            "README lost its examples: {examples:?}"
        );
        for line in smokes.into_iter().chain(harness).chain(examples) {
            parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        }
    }

    #[test]
    fn synopsis_lists_exactly_the_granted_flags() {
        for c in &COMMANDS {
            let text = synopsis(c);
            assert!(text.starts_with(&format!("  replipred {}", c.name)));
            assert!(text.lines().all(|l| l.len() <= 88), "{text}");
            let mut listed: Vec<&str> = text
                .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-'))
                .filter(|w| w.starts_with("--"))
                .collect();
            let mut granted: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.cmds.contains(&c.name))
                .map(|f| f.name)
                .collect();
            listed.sort_unstable();
            granted.sort_unstable();
            assert_eq!(listed, granted, "{}", c.name);
            for f in c.required {
                assert!(text.contains(&format!(" {f} ")), "{f} is bracketed: {text}");
            }
        }
        // Every row names real subcommands, and the full text carries it.
        let usage = usage();
        for f in &FLAGS {
            assert!(f.cmds.iter().all(|c| command(c).is_some()), "{}", f.name);
            assert!(usage.contains(f.help), "{}", f.name);
        }
    }
}
