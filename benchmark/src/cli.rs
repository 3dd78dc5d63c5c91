//! The `run` command: argument parsing, one workload in this process or
//! several in child processes, the metric lines and the result line.

use crate::bench::{Bench, Pass, DEFAULT_SECONDS, SEGMENT};
use crate::metrics::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use crate::{procfs, workloads};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage: adaptnoc-benchmark run [--workload NAME]... [--seed N] [--seconds N]
                              [--trace 0|1] [--json OUT]
       adaptnoc-benchmark run --list
       adaptnoc-benchmark run --stability N [--seed N] [--seconds N]

One --workload runs in this process; none (all five) or several run each
in a child process of this binary, so peak memory is per workload.
--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
the same inputs untraced and then traced, checks that both produce the
same simulated statistics, and prints the per-layer metrics. Every run
prints `workload metric value unit` lines and ends with one JSON line.";

/// Digests of the simulated statistics for seed 1 at the default length,
/// recorded when the benchmark was defined. `sim.digest_changed` compares
/// against them; a change that is only meant to make the simulator faster
/// must leave them alone.
const REFERENCE_DIGESTS: &[(&str, u64)] = &[
    ("mixed_closed", 0x8861_9a46_3a9a_f453),
    ("adapt_rl", 0x31b2_8c61_31de_d0b0),
    ("scn_storm", 0xfc04_e10c_d6d0_2e3e),
    ("scale_64", 0xca12_c968_0951_6a45),
    ("farm_jobs", 0x43e8_011c_c73d_e473),
];

/// Exact simulated counters: equal in the untraced and the traced pass,
/// or the traced pass measured a different simulation.
pub const EXACT: &[&str] = &[
    "sim.packets_delivered",
    "sim.flit_hops",
    "sim.avg_latency_cycles",
    "sim.p99_latency_cycles",
    "sim.avg_hops",
    "sim.drops",
    "sim.nacks",
    "sim.retries",
    "sim.drain_cycles",
    "workloads.offered_packets",
    "core.reconfigs",
    "core.reconfig_cycles",
    "rl.decisions",
    "rl.train_steps",
    "power.energy_uj",
    "scenario.accepted_rate",
    "scenario.p99_latency_cycles",
    "scenario.max_source_queue",
    "faults.fired",
    "faults.recoveries",
    "faults.retries",
    "faults.drops",
];

/// Layer times: the metric and the span names it sums.
const SPAN_SECONDS: &[(&str, &[&str])] = &[
    ("topology.spec_build_s", &["topology.spec_build"]),
    ("sim.new_s", &["sim.new"]),
    ("sim.step_s", &["sim.step"]),
    ("sim.drain_s", &["sim.drain"]),
    ("sim.take_epoch_s", &["sim.take_epoch"]),
    ("workloads.tick_s", &["workloads.tick"]),
    ("workloads.inject_s", &["workloads.inject"]),
    (
        "workloads.epoch_telemetry_s",
        &["workloads.epoch_telemetry"],
    ),
    ("core.design_build_s", &["core.design_build"]),
    ("core.tick_s", &["core.tick"]),
    ("core.on_epoch_s", &["core.on_epoch"]),
    ("power.energy_s", &["power.energy"]),
    ("telemetry.snapshot_s", &["telemetry.snapshot"]),
    ("telemetry.export_s", &["telemetry.export"]),
    ("scenario.parse_compile_s", &["scenario.parse_compile"]),
    ("scenario.run_s", &["scenario.run"]),
    ("farm.boot_s", &["farm.boot"]),
    ("farm.replay_s", &["farm.replay"]),
    (
        "farm.request_s",
        &[
            "farm.request.submit",
            "farm.request.status",
            "farm.request.result",
        ],
    ),
    ("farm.poll_sleep_s", &["farm.poll_sleep"]),
];

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    json: Option<String>,
    list: bool,
    stability: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    if it.next().map(String::as_str) != Some("run") {
        return Err("the only command is `run`".into());
    }
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        json: None,
        list: false,
        stability: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes a value"))
        };
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: `{s}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}` (see run --list)"));
                }
                a.workloads.push(name);
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => {
                a.seconds = number(value()?)?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--json" => a.json = Some(value()?),
            "--list" => a.list = true,
            "--stability" => a.stability = Some(number(value()?)?.max(2)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// The program's entry point.
pub fn main(argv: &[String]) -> ExitCode {
    if argv.first().map(String::as_str) == Some(crate::calib::HELPER_COMMAND) {
        return match crate::calib::helper_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let ok = if let Some(sets) = args.stability {
        stability(&args, sets)
    } else if let [one] = args.workloads.as_slice() {
        let report = run_one(
            one,
            args.seed,
            args.seconds,
            args.traced,
            args.json.as_deref(),
        );
        print!("{}", report.render());
        report.errors.is_empty()
    } else {
        run_children(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced run; bound = share of the parent's median):");
    for d in END_TO_END {
        println!(
            "  {:<34} {:<8} {:<7} bound {:<5} {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.unwrap_or(0.0),
            d.what
        );
    }
    println!("per-layer metrics (traced run):");
    for d in PER_LAYER {
        println!(
            "  {:<34} {:<8} {:<7} {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.what
        );
    }
}

/// What one run of one workload prints.
#[derive(Debug)]
struct Report {
    workload: String,
    /// Correctness failures (empty = correct).
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    digest: u64,
    /// The metrics of the mode that ran: every end-to-end metric, or
    /// every per-layer metric.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Raw numbers printed for continuity, not part of the result line.
    extra: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The metric lines followed by the one-line JSON result.
    fn render(&self) -> String {
        let mut s = String::new();
        let w = &self.workload;
        for (name, value, unit) in self.metrics.iter().chain(&self.extra) {
            s += &format!("{w} {name} {value} {unit}\n");
        }
        s += &format!("{w} ops_attempted {} count\n", self.attempted);
        s += &format!("{w} ops_failed {} count\n", self.failed);
        s += &format!("{w} sim.digest {:016x} hex\n", self.digest);
        for e in &self.errors {
            s += &format!("{w} error {e}\n");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        s += &format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        s
    }
}

fn pass(name: &str, seed: u64, seconds: u64, traced: bool) -> Pass {
    let mut b = Bench::new(seed, seconds, traced, workloads::calibration(name))
        .expect("the calibration helper is this very binary");
    let outcome = workloads::run(name, &mut b).expect("workload names are checked at parse time");
    b.finish(outcome)
}

/// Runs one workload in this process.
fn run_one(name: &str, seed: u64, seconds: u64, traced: bool, json: Option<&str>) -> Report {
    let untraced = pass(name, seed, seconds, false);
    let mut errors = untraced.outcome.errors.clone();
    let mut values = Values::default();
    let mut extra = Vec::new();
    let table = if traced {
        let second = pass(name, seed, seconds, true);
        errors.extend(second.outcome.errors.iter().cloned());
        if second.outcome.digest != untraced.outcome.digest {
            errors.push(format!(
                "the traced run simulated something else: digest {:016x} != untraced {:016x}",
                second.outcome.digest, untraced.outcome.digest
            ));
        }
        for counter in EXACT {
            let (a, b) = (
                untraced.outcome.values.get(counter),
                second.outcome.values.get(counter),
            );
            if a.to_bits() != b.to_bits() {
                errors.push(format!("{counter}: untraced {a} != traced {b}"));
            }
        }
        ledger(&mut values, name, seed, seconds, &untraced, &second);
        if let Some(path) = json {
            if let Err(e) = std::fs::write(path, second.tr.to_json().to_string_compact()) {
                errors.push(format!("--json {path}: {e}"));
            }
        }
        PER_LAYER
    } else {
        values.set("setup_s", untraced.setup_s);
        values.set("norm_wall_s", untraced.norm_wall_s);
        match procfs::peak_rss_mib() {
            Ok(mib) => values.set("peak_rss_mib", mib),
            Err(e) => errors.push(format!("peak_rss_mib: {e}")),
        }
        for d in END_TO_END {
            let v = values.get(d.name);
            if !(v.is_finite() && v > 0.0) {
                errors.push(format!("{} = {v}: end-to-end metrics are positive", d.name));
            }
        }
        extra.push(("host.wall_s", untraced.raw_wall_s, "s"));
        extra.push((
            "host.sim_kcps",
            untraced.outcome.sim_cycles as f64 / 1e3 / untraced.raw_wall_s,
            "kc/s",
        ));
        extra.push(("host.calib_mops_median", untraced.calib_median, "Mops/s"));
        extra.push(("host.calib_spread_pct", untraced.calib_spread_pct, "%"));
        END_TO_END
    };
    let attempted = untraced.outcome.attempted.max(1);
    Report {
        workload: name.to_string(),
        // Any failed check counts every operation of the workload as failed.
        failed: if errors.is_empty() {
            untraced.outcome.failed
        } else {
            attempted
        },
        errors,
        attempted,
        digest: untraced.outcome.digest,
        metrics: table
            .iter()
            .map(|d| (d.name, values.get(d.name), d.unit))
            .collect(),
        extra,
    }
}

/// Fills the per-layer ledger from the traced pass (and the untraced one
/// for the raw host numbers and the tracing overhead).
fn ledger(v: &mut Values, name: &str, seed: u64, seconds: u64, untraced: &Pass, traced: &Pass) {
    v.extend(&traced.outcome.values);
    let tr = &traced.tr;
    for (metric, spans) in SPAN_SECONDS {
        v.set(metric, spans.iter().map(|s| tr.total_s(s)).sum());
    }
    let seg_s = tr.total_s(SEGMENT);
    if seg_s > 0.0 {
        v.set("sim.step_share", v.get("sim.step_s") / seg_s);
        v.set("workloads.tick_share", v.get("workloads.tick_s") / seg_s);
    }
    v.set("sim.step_ns_p50", tr.quantile_ns("sim.step", 0.5));
    v.set("sim.step_ns_p99", tr.quantile_ns("sim.step", 0.99));
    v.set(
        "workloads.tick_ns_p50",
        tr.quantile_ns("workloads.tick", 0.5),
    );
    if v.get("sim.flit_hops") > 0.0 {
        v.set(
            "sim.ns_per_flit_hop",
            v.get("sim.step_s") * 1e9 / v.get("sim.flit_hops"),
        );
    }
    if v.get("scenario.run_s") > 0.0 {
        v.set(
            "scenario.run_kcps",
            traced.outcome.sim_cycles as f64 / 1e3 / v.get("scenario.run_s"),
        );
    }
    v.set(
        "farm.status_rtt_ms_p50",
        tr.quantile_ns("farm.request.status", 0.5) / 1e6,
    );
    v.set(
        "farm.result_rtt_ms_p50",
        tr.quantile_ns("farm.request.result", 0.5) / 1e6,
    );

    v.set("host.wall_s", untraced.raw_wall_s);
    v.set(
        "host.sim_kcps",
        untraced.outcome.sim_cycles as f64 / 1e3 / untraced.raw_wall_s,
    );
    v.set("host.cpu_s", procfs::cpu_s().unwrap_or(0.0));
    v.set("host.calib_mops_median", traced.calib_median);
    v.set("host.calib_spread_pct", traced.calib_spread_pct);
    v.set(
        "host.trace_overhead_pct",
        (traced.norm_wall_s / untraced.norm_wall_s - 1.0) * 100.0,
    );
    v.set("host.residual_share", tr.residual_share(SEGMENT));
    v.set(
        "host.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    let reference = REFERENCE_DIGESTS
        .iter()
        .find(|(w, _)| *w == name)
        .map(|(_, d)| *d);
    let comparable = seed == 1 && seconds == DEFAULT_SECONDS;
    v.set(
        "sim.digest_changed",
        match reference {
            Some(want) if comparable && want != untraced.outcome.digest => 1.0,
            _ => 0.0,
        },
    );
}

/// What the parent keeps of one child's output: its exit status and the
/// value text of every `workload metric value unit` line.
#[derive(Debug, Default)]
struct ChildResult {
    ok: bool,
    fields: BTreeMap<String, String>,
}

/// Runs one workload in a child process of this binary, relays what it
/// printed, waits for it to end.
fn run_child(name: &str, seed: u64, seconds: u64, traced: bool) -> ChildResult {
    let spawned = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["run", "--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .output()
    });
    let output = match spawned {
        Ok(o) => o,
        Err(e) => {
            println!("{name} error could not run the child process: {e}");
            return ChildResult::default();
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut result = ChildResult {
        ok: output.status.success(),
        ..ChildResult::default()
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, value, _unit] = fields.as_slice() {
            if *w == name {
                result.fields.insert(metric.to_string(), value.to_string());
            }
        }
    }
    result
}

fn selected(args: &Args) -> Vec<&str> {
    if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    }
}

fn run_children(args: &Args) -> bool {
    let mut ok = true;
    for name in selected(args) {
        ok &= run_child(name, args.seed, args.seconds, args.traced).ok;
    }
    ok
}

/// `--stability N`: N full untraced sets; per workload and end-to-end
/// metric the spread `(max - min) / median` against the metric's bound,
/// and digests, attempted and failed counts identical across the sets.
fn stability(args: &Args, sets: u64) -> bool {
    let mut ok = true;
    let mut runs: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    for _ in 0..sets {
        for name in selected(args) {
            let r = run_child(name, args.seed, args.seconds, false);
            ok &= r.ok;
            runs.entry(name).or_default().push(r);
        }
    }
    println!("stability over {sets} sets (spread = (max - min) / median):");
    for (name, results) in &runs {
        for d in END_TO_END {
            let vals: Vec<f64> = results
                .iter()
                .filter_map(|r| r.fields.get(d.name)?.parse().ok())
                .collect();
            let bound = d.bound.unwrap_or(0.0);
            let max = vals.iter().cloned().fold(f64::MIN, f64::max);
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            let spread = (max - min) / median(&vals);
            let within = vals.len() == results.len() && spread <= bound;
            ok &= within;
            println!(
                "{name} {} spread {spread:.4} bound {bound} {} values {vals:?}",
                d.name,
                if within { "ok" } else { "EXCEEDED" },
            );
        }
        for exact in ["sim.digest", "ops_attempted", "ops_failed"] {
            let same = results.windows(2).all(|w| {
                w[0].fields.contains_key(exact) && w[0].fields.get(exact) == w[1].fields.get(exact)
            });
            ok &= same;
            println!(
                "{name} {exact} {}",
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    ok
}
