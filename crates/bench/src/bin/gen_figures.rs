//! Regenerates every evaluation figure and table of the paper.
//!
//! Usage: `cargo run --release -p adaptnoc-bench --bin gen-figures
//! [--quick] [--only figNN,...] [--threads N] [--checkpoint DIR]
//! [--metrics-out DIR] [--submit ADDR]`
//!
//! `--threads N` fans independent simulation points across N workers
//! (0 = auto-detect; the default, 1, runs serially). Output is
//! byte-identical at any thread count.
//!
//! `--checkpoint DIR` journals completed fault-sweep points to
//! `DIR/faults.jsonl` (and scenario-campaign points to
//! `DIR/scenarios.jsonl`) as they finish; a killed run re-invoked with
//! the same flag resumes from the completed points and still produces
//! byte-identical JSON.
//!
//! `--only scenarios` runs just the open-system scenario campaign: the
//! checked-in `scenarios/latency_throughput.scn` sweep producing the
//! latency-throughput curve (saturation knee, p99 blow-up).
//!
//! `--only scaling` runs just the large-mesh scaling campaign: 16x16
//! through 64x64 flat meshes plus the 64x64 chiplet fabric, each idle
//! and loaded, with `--threads N` running those points concurrently.
//! Rows (and therefore the JSON) are byte-identical at any thread count.
//!
//! `--metrics-out DIR` additionally runs the telemetry probe (two short
//! instrumented scenarios; see `adaptnoc_bench::telemetry`) and writes
//! `DIR/telemetry.jsonl` + `DIR/telemetry.prom`. With `--checkpoint` the
//! same pair also lands next to the checkpoint journal, so a resumed
//! campaign keeps its metric snapshots beside its progress.
//!
//! `--submit ADDR` routes the scenario campaign through a running
//! `adaptnoc-farmd` (see `docs/FARM.md`) at `ADDR` (`tcp://HOST:PORT`,
//! bare `HOST:PORT`, or `unix:PATH`) instead of running it in-process.
//! The daemon executes the identical deterministic sweep, so the rows —
//! and therefore `results/figures.json` — are byte-identical to a direct
//! run; the farm CI job relies on exactly that equivalence.
//!
//! Prints the same rows/series the paper reports (normalized to the
//! baseline design) and writes machine-readable JSON next to the text.

use adaptnoc_bench::jsonrows::{rows_json, ToJson};
use adaptnoc_bench::prelude::*;
use adaptnoc_sim::json::{self, Value};
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only: Option<HashSet<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|list| list.split(',').map(|s| s.trim().to_string()).collect());
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| configured_threads(v.parse().expect("--threads takes a number")))
        .unwrap_or(1);
    let checkpoint_dir = args
        .iter()
        .position(|a| a == "--checkpoint")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let submit_addr = args
        .iter()
        .position(|a| a == "--submit")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut scale = if quick {
        FigScale::quick()
    } else {
        FigScale::full()
    };
    scale.threads = threads;
    let want = |name: &str| only.as_ref().is_none_or(|o| o.contains(name));
    let t0 = Instant::now();
    // Merge into any existing results so partial (--only) runs refresh
    // sections without discarding the rest.
    let mut json = std::fs::read_to_string("results/figures.json")
        .ok()
        .and_then(|s| json::parse(&s).ok())
        .filter(|v| v.as_object().is_some())
        .unwrap_or_else(|| Value::Object(vec![]));

    println!(
        "== Adapt-NoC figure regeneration ({}) ==",
        if quick { "quick" } else { "full" }
    );

    if want("mixed")
        || want("fig07")
        || want("fig10")
        || want("fig11")
        || want("fig12")
        || want("fig13")
    {
        banner("Figs. 7/10/11/12/13: mixed workload, normalized to baseline");
        let rows = mixed_campaign(&scale).expect("mixed campaign");
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "design", "pkt-lat", "exec", "energy", "dynamic", "static", "edp"
        );
        for r in &rows {
            println!(
                "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                r.design,
                r.packet_latency_norm,
                r.exec_time_norm,
                r.energy_norm,
                r.dynamic_norm,
                r.static_norm,
                r.edp_norm
            );
        }
        json.insert("mixed", rows_json(&rows));
    }

    if want("fig08") {
        banner("Fig. 8: CPU application hop counts (normalized)");
        let rows = fig08(&scale).expect("fig08");
        print_per_app(&rows, false);
        json.insert("fig08", rows_json(&rows));
    }

    if want("fig09") {
        banner("Fig. 9: GPU application hop counts + queuing latency (normalized)");
        let rows = fig09(&scale).expect("fig09");
        print_per_app(&rows, true);
        json.insert("fig09", rows_json(&rows));
    }

    if want("fig14") {
        banner("Fig. 14: topology selection breakdown, CPU apps (4x4)");
        let rows = fig14(&scale).expect("fig14");
        print_selection(&rows);
        json.insert("fig14", rows_json(&rows));
    }

    if want("fig15") {
        banner("Fig. 15: topology selection breakdown, GPU apps (4x8)");
        let rows = fig15(&scale).expect("fig15");
        print_selection(&rows);
        json.insert("fig15", rows_json(&rows));
    }

    if want("fig16") {
        banner("Fig. 16: RL vs static across subNoC sizes (ratios, lower = RL wins)");
        let rows = fig16(&scale).expect("fig16");
        println!(
            "{:<8} {:>14} {:>14}",
            "size", "latency-ratio", "energy-ratio"
        );
        for r in &rows {
            println!(
                "{:<8} {:>14.3} {:>14.3}",
                r.size, r.latency_ratio, r.energy_ratio
            );
        }
        json.insert("fig16", rows_json(&rows));
    }

    if want("fig17") {
        banner("Fig. 17: epoch-size sweep (normalized to 50K)");
        let rows = fig17(&scale).expect("fig17");
        println!("{:<10} {:>12} {:>12}", "epoch", "latency", "power");
        for r in &rows {
            println!(
                "{:<10} {:>12.3} {:>12.3}",
                r.epoch_cycles, r.latency_norm, r.power_norm
            );
        }
        json.insert("fig17", rows_json(&rows));
    }

    if want("fig18") {
        banner("Fig. 18: discount-factor sweep (normalized to 0.9)");
        let rows = fig18(&scale).expect("fig18");
        print_sweep(&rows);
        json.insert("fig18", rows_json(&rows));
    }

    if want("fig19") {
        banner("Fig. 19: exploration-rate sweep (normalized to 0.05)");
        let rows = fig19(&scale).expect("fig19");
        print_sweep(&rows);
        json.insert("fig19", rows_json(&rows));
    }

    if want("ablations") {
        banner("Ablation: each candidate topology held fixed (4x4, BS)");
        let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
        let rows = ablation_sweep(seeds, &scale.rc, scale.threads).expect("ablation sweep");
        println!(
            "{:<10} {:>5} {:>10} {:>8} {:>12} {:>10}",
            "topology", "seed", "pkt-lat", "hops", "energy-j", "delivered"
        );
        for r in &rows {
            println!(
                "{:<10} {:>5} {:>10.2} {:>8.3} {:>12.3e} {:>10}",
                r.topology, r.seed, r.packet_latency, r.hops, r.energy_j, r.delivered
            );
        }
        json.insert("ablations", rows_json(&rows));
    }

    if want("faults") {
        banner("Fault sweep: resilience under seeded fault schedules (4x4 mesh)");
        let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
        let rows = match &checkpoint_dir {
            Some(dir) => fault_sweep_checkpointed(seeds, scale.threads, &dir.join("faults.jsonl"))
                .expect("fault sweep checkpoint journal"),
            None => fault_sweep_par(seeds, scale.threads).expect("fault sweep"),
        };
        println!(
            "{:<16} {:>5} {:>9} {:>7} {:>7} {:>6} {:>10} {:>8} {:>8}",
            "scenario", "seed", "delivery", "nacks", "drops", "recov", "ttr", "lat", "dead"
        );
        for r in &rows {
            println!(
                "{:<16} {:>5} {:>9.4} {:>7} {:>7} {:>6} {:>10.1} {:>8.2} {:>8}",
                r.scenario,
                r.seed,
                r.delivery_ratio,
                r.nacks,
                r.drops,
                r.recoveries,
                r.mean_time_to_recover,
                r.avg_packet_latency,
                r.disconnected
            );
        }
        json.insert("faults", rows_json(&rows));
    }

    if want("scenarios") {
        banner("Scenario campaign: open-loop latency-throughput (8x8 mesh, uniform Poisson)");
        let rows = match (&submit_addr, &checkpoint_dir) {
            (Some(addr), _) => {
                println!("submitting to farm daemon at {addr}");
                adaptnoc_bench::submit::submit_and_wait(
                    addr,
                    "latency_throughput",
                    LATENCY_THROUGHPUT_SCN,
                )
                .expect("farm-submitted scenario campaign")
            }
            (None, Some(dir)) => scenario_sweep_checkpointed(
                "latency_throughput",
                LATENCY_THROUGHPUT_SCN,
                scale.threads,
                &dir.join("scenarios.jsonl"),
            )
            .expect("scenario campaign checkpoint journal"),
            (None, None) => {
                scenario_sweep_par("latency_throughput", LATENCY_THROUGHPUT_SCN, scale.threads)
                    .expect("scenario campaign")
            }
        };
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>5}",
            "load", "offered", "accepted", "avg-lat", "p50", "p99", "p999", "max-q", "sat"
        );
        for r in &rows {
            println!(
                "{:<6.2} {:>9.4} {:>9.4} {:>9.1} {:>8.1} {:>8.1} {:>9.1} {:>9} {:>5}",
                r.load,
                r.offered_rate,
                r.accepted_rate,
                r.avg_latency,
                r.p50,
                r.p99,
                r.p999,
                r.max_source_queue,
                if r.saturated { "yes" } else { "" }
            );
        }
        json.insert("scenarios", rows_json(&rows));
    }

    if want("scaling") {
        banner("Scaling campaign: 16x16 -> 64x64 meshes + 64x64 chiplet fabric");
        let cycles = if quick { 600 } else { 4_000 };
        let rows = scaling_campaign(cycles, threads).expect("scaling campaign");
        println!(
            "{:<16} {:>7} {:>9} {:>7} {:>9} {:>9} {:>9} {:>7}",
            "design", "tiles", "channels", "load", "offered", "delivered", "avg-lat", "hops"
        );
        for r in &rows {
            println!(
                "{:<16} {:>7} {:>9} {:>7.3} {:>9} {:>9} {:>9.1} {:>7.2}",
                r.design,
                r.routers,
                r.channels,
                r.load,
                r.offered,
                r.delivered,
                r.avg_latency,
                r.avg_hops
            );
        }
        json.insert("scaling", rows_json(&rows));
    }

    if want("tables") {
        banner("Sec. V-B1: area");
        let a = area_table();
        println!(
            "baseline {:.2} mm2 | adapt {:.2} mm2 | extras {:.2} mm2 | saving {:.1}% (paper: 17.27 / -14%)",
            a.baseline_mm2,
            a.adapt_mm2,
            a.extras_mm2,
            a.saving_fraction * 100.0
        );
        json.insert("area", a.to_json());

        banner("Sec. V-B2: wiring budget");
        let (budget, rows) = wiring_table().expect("wiring");
        println!(
            "budget per tile edge: {} high-metal + {} intermediate bidirectional 256-bit links",
            budget.high_metal_links, budget.intermediate_links
        );
        println!(
            "{:<12} {:>10} {:>10} {:>8}",
            "topology", "channels", "express", "fits"
        );
        for r in &rows {
            println!(
                "{:<12} {:>10} {:>10} {:>8}",
                r.topology, r.max_channels_per_edge, r.max_express_per_edge, r.fits_budget
            );
        }
        json.insert("wiring", rows_json(&rows));

        banner("Sec. V-B3: timing");
        let t = timing_table();
        println!(
            "conventional RC/VA/SA/ST: {:?} ps | adaptable (mux merged): {:?} ps",
            t.conventional_ps, t.adaptable_ps
        );
        println!(
            "max freq {:.2} GHz | 4mm high-metal wire {:.0} ps | reversed +{:.0} ps | DQN {:.0} ns (paper: 486)",
            t.max_freq_ghz, t.wire_4mm_ps, t.reversed_extra_ps, t.dqn_ns
        );
        json.insert("timing", t.to_json());

        banner("Sec. V-A1: wiring scalability (FTBY vs Adapt at 16x16)");
        let rows = scalability_table().expect("scalability");
        println!(
            "{:<8} {:<14} {:>10} {:>6}",
            "size", "design", "channels", "fits"
        );
        for r in &rows {
            println!(
                "{:<8} {:<14} {:>10} {:>6}",
                r.size, r.design, r.max_channels_per_edge, r.fits_budget
            );
        }
        json.insert("scalability", rows_json(&rows));

        banner("Sec. II-C1: reconfiguration latency (idle 4x4 subNoC)");
        let rows = reconfig_table().expect("reconfig");
        println!("{:<10} {:<10} {:>8} {:>6}", "from", "to", "cycles", "fast");
        for r in &rows {
            println!(
                "{:<10} {:<10} {:>8} {:>6}",
                r.from, r.to, r.cycles, r.fast_path
            );
        }
        json.insert("reconfig", rows_json(&rows));
    }

    if let Some(dir) = &metrics_out {
        banner("Telemetry probe: instrumented RL + fault runs");
        let reg = adaptnoc_bench::telemetry::telemetry_probe();
        let (jsonl, prom) =
            adaptnoc_bench::telemetry::write_metrics(dir, &reg).expect("write --metrics-out");
        println!("wrote {} and {}", jsonl.display(), prom.display());
        if let Some(ckpt) = &checkpoint_dir {
            if ckpt != dir {
                let (jsonl, prom) = adaptnoc_bench::telemetry::write_metrics(ckpt, &reg)
                    .expect("write metrics next to checkpoint journal");
                println!("wrote {} and {}", jsonl.display(), prom.display());
            }
        }
    }

    let out = json;
    std::fs::create_dir_all("results").ok();
    // Atomic tmp-file + rename writes: a Ctrl-C here leaves the previous
    // complete results in place, never a torn JSON file.
    adaptnoc_bench::telemetry::atomic_write(
        std::path::Path::new("results/figures.json"),
        &out.to_string_pretty(),
    )
    .ok();
    adaptnoc_bench::telemetry::atomic_write(
        std::path::Path::new("results/REPORT.md"),
        &adaptnoc_bench::report::render_report(&out),
    )
    .ok();
    println!(
        "\nDone in {:.1}s; results/figures.json and results/REPORT.md written",
        t0.elapsed().as_secs_f64()
    );
}

fn banner(s: &str) {
    println!("\n--- {s} ---");
}

fn print_per_app(rows: &[adaptnoc_bench::figs::PerAppRow], with_queuing: bool) {
    if with_queuing {
        println!(
            "{:<6} {:<16} {:>10} {:>12}",
            "app", "design", "hops", "queuing"
        );
    } else {
        println!("{:<6} {:<16} {:>10}", "app", "design", "hops");
    }
    for r in rows {
        if with_queuing {
            println!(
                "{:<6} {:<16} {:>10.3} {:>12.3}",
                r.app, r.design, r.hops_norm, r.queuing_norm
            );
        } else {
            println!("{:<6} {:<16} {:>10.3}", r.app, r.design, r.hops_norm);
        }
    }
}

fn print_selection(rows: &[adaptnoc_bench::figs::SelectionRow]) {
    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>8}",
        "app", "mesh", "cmesh", "torus", "tree"
    );
    for r in rows {
        println!(
            "{:<6} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            r.app, r.fractions[0], r.fractions[1], r.fractions[2], r.fractions[3]
        );
    }
}

fn print_sweep(rows: &[adaptnoc_bench::figs::SweepRow]) {
    println!("{:<8} {:>12} {:>12}", "value", "latency", "power");
    for r in rows {
        println!(
            "{:<8} {:>12.3} {:>12.3}",
            r.value, r.latency_norm, r.power_norm
        );
    }
}
