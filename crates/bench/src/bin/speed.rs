//! Simulator throughput benchmark.
//!
//! Usage: `cargo run --release -p adaptnoc-bench --bin speed --
//! [--cycles N] [--threads N] [--json PATH] [--metrics DIR]
//! [--assert-off-within PCT] [--assert-full-min KCPS] [--scenario FILE]
//!
//! Measures three workloads on the paper's mixed chip: an idle network
//! (the idle fast path: no router, channel or NI has work), the full
//! three-app workload (steady-state load), and a parallel fault-sweep
//! campaign whose points fan out over `--threads` workers (0 = auto-detect
//! host parallelism). With `--json`, writes a `BENCH_<date>.json`-style
//! record (cycles/sec, wall-clock, host cores, and per-stage span timings
//! from a short sampled profiling pass) for tracking performance across
//! commits.
//!
//! `--metrics DIR` attaches `Sampled(256)` telemetry to the full-workload
//! run, writes its snapshot to `DIR/telemetry.jsonl` + `DIR/telemetry.prom`,
//! and prints the idle-stepping telemetry-overhead microbench
//! (off / sampled / strict cycles per second). `--assert-off-within PCT`
//! runs that microbench and exits non-zero unless its telemetry-off row
//! is within PCT percent of the uninstrumented idle measurement from the
//! same process — the CI gate for the zero-cost-when-disabled claim.
//!
//! `--scenario FILE` additionally replays a `.scn` scenario file
//! (`docs/SCENARIOS.md`) end to end and reports its simulation rate and
//! offered/accepted summary; sweep scenarios replay their middle load
//! point.

use adaptnoc_bench::parallel::configured_threads;
use adaptnoc_bench::prelude::*;
use adaptnoc_core::prelude::*;
use adaptnoc_sim::json::Value;
use adaptnoc_sim::prelude::*;
use adaptnoc_topology::prelude::*;
use adaptnoc_workloads::prelude::*;
use std::time::Instant;

struct Args {
    cycles: u64,
    threads: usize,
    json: Option<String>,
    metrics: Option<std::path::PathBuf>,
    assert_off_within: Option<f64>,
    assert_full_min: Option<f64>,
    scenario: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    Args {
        cycles: get("--cycles").map_or(200_000, |v| v.parse().expect("--cycles takes a number")),
        threads: configured_threads(
            get("--threads").map_or(1, |v| v.parse().expect("--threads takes a number")),
        ),
        json: get("--json"),
        metrics: get("--metrics").map(std::path::PathBuf::from),
        assert_off_within: get("--assert-off-within")
            .map(|v| v.parse().expect("--assert-off-within takes a percentage")),
        assert_full_min: get("--assert-full-min")
            .map(|v| v.parse().expect("--assert-full-min takes Kc/s")),
        scenario: get("--scenario"),
    }
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let layout = ChipLayout::paper_mixed();
    let cfg = SimConfig::baseline();
    let kcycles = args.cycles as f64 / 1_000.0;
    let mut record: Vec<(String, Value)> = vec![
        ("host_cores".into(), Value::Number(host_cores as f64)),
        ("threads".into(), Value::Number(args.threads as f64)),
        ("cycles".into(), Value::Number(args.cycles as f64)),
    ];

    // 1) Network alone, no traffic — pure scheduler overhead.
    let spec = mesh_chip(layout.grid, &cfg).unwrap();
    let mut net = Network::new(spec.clone(), cfg.clone()).unwrap();
    let t0 = Instant::now();
    for _ in 0..args.cycles {
        net.step();
    }
    let idle_s = t0.elapsed().as_secs_f64();
    println!("idle net: {:.1} Kc/s", kcycles / idle_s);
    record.push(("idle_kcps".into(), Value::Number(kcycles / idle_s)));
    record.push(("idle_wall_s".into(), Value::Number(idle_s)));

    // 2) Net + the three-app mixed workload under steady load.
    let mut net = Network::new(spec, cfg.clone()).unwrap();
    if args.metrics.is_some() {
        net.set_telemetry_mode(TelemetryMode::Sampled(256));
    }
    let profiles = vec![
        by_name("CA").unwrap(),
        by_name("KM").unwrap(),
        by_name("BP").unwrap(),
    ];
    let mut wl = Workload::new(&layout, &profiles, 1);
    let t0 = Instant::now();
    for _ in 0..args.cycles {
        wl.tick(&mut net);
        net.step();
    }
    let full_s = t0.elapsed().as_secs_f64();
    let pkts = net.totals().stats.packets;
    println!("full: {:.1} Kc/s, pkts {}", kcycles / full_s, pkts);
    record.push(("full_kcps".into(), Value::Number(kcycles / full_s)));
    record.push(("full_wall_s".into(), Value::Number(full_s)));
    record.push(("full_packets".into(), Value::Number(pkts as f64)));

    // Loaded-throughput regression gate (CI perf-smoke): unlike the idle
    // gate this exercises the router hot loop under steady traffic, so a
    // regression in RC/VA/SA/ST shows up here first. The floor must be set
    // conservatively — CI hosts are shared and noisy.
    if let Some(min_kcps) = args.assert_full_min {
        let full = kcycles / full_s;
        assert!(
            full >= min_kcps,
            "loaded throughput regressed: {full:.1} Kc/s is below the {min_kcps:.1} Kc/s floor"
        );
        println!("loaded throughput above the {min_kcps:.1} Kc/s floor ({full:.1} Kc/s)");
    }

    // Per-stage span timings for the JSON record: a short sampled
    // profiling pass over the same loaded workload (separate from the
    // timed run above so sampling cost never pollutes `full_kcps`). The
    // resulting `stage_ns_per_sampled_cycle` object makes each BENCH entry
    // self-describing about *where* the cycle time goes.
    if args.json.is_some() {
        let spec = mesh_chip(layout.grid, &cfg).unwrap();
        let mut pnet = Network::new(spec, cfg.clone()).unwrap();
        pnet.set_telemetry_mode(TelemetryMode::Sampled(64));
        let mut wl = Workload::new(&layout, &profiles, 1);
        for _ in 0..args.cycles.min(20_000) {
            wl.tick(&mut pnet);
            pnet.step();
        }
        let _ = pnet.take_epoch(); // flush the tail into the registry
        let snap = pnet
            .telemetry()
            .expect("telemetry attached for the profiling pass")
            .snapshot();
        let mut stages: Vec<(String, Value)> = Vec::new();
        for span in &snap.spans {
            if span.count == 0 {
                continue;
            }
            let per_cycle = span.total_ns as f64 / span.count as f64;
            stages.push((span.name.clone(), Value::Number(per_cycle)));
        }
        record.push(("stage_ns_per_sampled_cycle".into(), Value::Object(stages)));
    }

    if let Some(dir) = &args.metrics {
        let _ = net.take_epoch(); // flush the tail into the registry
        let reg = net.telemetry().expect("telemetry attached").clone();
        let (jsonl, prom) =
            adaptnoc_bench::telemetry::write_metrics(dir, &reg).expect("write --metrics");
        println!("metrics: wrote {} and {}", jsonl.display(), prom.display());
    }

    // Telemetry overhead on the idle fast path. Under `Off` no telemetry
    // code is even reachable, so the `off` row must track the
    // uninstrumented idle measurement taken above in this same process —
    // that is what `--assert-off-within` gates in CI.
    if args.metrics.is_some() || args.assert_off_within.is_some() {
        let rows = adaptnoc_bench::microbench::telemetry_overhead(args.cycles.min(50_000));
        for (mode, kcps) in &rows {
            println!("telemetry overhead, idle net [{mode}]: {kcps:.1} Kc/s");
        }
        if let Some(pct) = args.assert_off_within {
            let off = rows.iter().find(|(m, _)| m == "off").expect("off row").1;
            let idle = kcycles / idle_s;
            let floor = idle * (1.0 - pct / 100.0);
            assert!(
                off >= floor,
                "telemetry-off idle throughput regressed: {off:.1} Kc/s is more than \
                 {pct}% below the uninstrumented {idle:.1} Kc/s"
            );
            println!(
                "telemetry-off within {pct}% of uninstrumented idle ({off:.1} vs {idle:.1} Kc/s)"
            );
        }
    }

    // 3) Campaign fan-out: the fault sweep across `--threads` workers
    // (one seed per potential worker so there is work to steal).
    let seeds: Vec<u64> = (1..=args.threads.max(2) as u64).collect();
    let t0 = Instant::now();
    let rows = fault_sweep_par(&seeds, args.threads).expect("fault sweep");
    let campaign_s = t0.elapsed().as_secs_f64();
    println!(
        "campaign: {} points in {:.2}s on {} thread(s)",
        rows.len(),
        campaign_s,
        args.threads
    );
    record.push(("campaign_points".into(), Value::Number(rows.len() as f64)));
    record.push(("campaign_wall_s".into(), Value::Number(campaign_s)));

    // 4) Optional scripted scenario replay (--scenario FILE): the full
    // open-loop run — traffic phases, faults, reconfigurations — timed
    // end to end.
    if let Some(path) = &args.scenario {
        let src = std::fs::read_to_string(path).expect("read --scenario file");
        let plan = adaptnoc_bench::scenarios::load_scenario(&src).expect("load --scenario file");
        let load = plan.uses_sweep_load().then(|| {
            let pts = plan.sweep.expect("sweep directive").points();
            pts[pts.len() / 2]
        });
        let opts = adaptnoc_scenario::prelude::RunOptions {
            load,
            ..Default::default()
        };
        let t0 = Instant::now();
        let out = adaptnoc_scenario::prelude::run(&plan, &opts).expect("scenario replay");
        let scn_s = t0.elapsed().as_secs_f64();
        let total = plan.total_cycles() as f64;
        println!(
            "scenario {path}: {:.1} Kc/s, offered {:.4} accepted {:.4} p99 {:.1}",
            total / 1_000.0 / scn_s,
            out.offered_rate,
            out.accepted_rate,
            out.p99
        );
        record.push(("scenario".into(), Value::String(path.clone())));
        record.push((
            "scenario_kcps".into(),
            Value::Number(total / 1_000.0 / scn_s),
        ));
        record.push(("scenario_wall_s".into(), Value::Number(scn_s)));
        record.push((
            "scenario_accepted_rate".into(),
            Value::Number(out.accepted_rate),
        ));
    }

    if let Some(path) = args.json {
        let body = Value::Object(record).to_string_pretty();
        std::fs::write(&path, body).expect("write --json output");
        println!("wrote {path}");
    }
}
