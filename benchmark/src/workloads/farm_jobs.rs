//! `farm_jobs`: the service path. An in-process farm daemon
//! (`farm::server::Server`, TCP on `127.0.0.1:0`, one worker, a scratch
//! data directory) and one `bench::submit::FarmClient` connection: a run
//! of sequential jobs (submit, poll `status` every millisecond, fetch
//! `result`), then a burst submitted back to back and awaited.
//!
//! Costs here are raw, not host-normalised: the path is dominated by
//! socket and fsync waits, which do not scale with the CPU.
//!
//! The client speaks through `FarmClient::request` rather than its
//! `submit_scenario` / `wait` / `result_rows` helpers so that every round
//! trip can be timed and every frame counted; the frames are the same.

use crate::bench::{Bench, Outcome, Scratch};
use crate::digest::Digest;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use adaptnoc_bench::jsonrows::rows_json;
use adaptnoc_bench::parallel::run_checkpointed;
use adaptnoc_bench::scenarios::{load_scenario, scenario_point, scenario_row_from_json};
use adaptnoc_bench::submit::{read_frame, write_frame, FarmClient};
use adaptnoc_farm::config::FarmConfig;
use adaptnoc_farm::server::Server;
use adaptnoc_scenario::prelude::CancelToken;
use adaptnoc_sim::json::Value;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sequential jobs at the default size.
const SEQUENTIAL: u64 = 20;
/// Burst jobs at the default size.
const BURST: u64 = 8;
/// Daemon boots the set-up time is the median of.
const BOOT_REPS: usize = 9;
/// Sleep between `status` polls. Waiting is polling, so a turnaround is
/// quantised to this; `farm.polls_per_job` shows how often it bit.
const POLL: Duration = Duration::from_millis(1);
/// Longest a job may stay unfinished before it counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(20);

/// `Server::run` takes a `&'static` stop flag; one daemon runs at a time.
static STOP: AtomicBool = AtomicBool::new(false);

/// The job payload: an inline 4x4 scenario, 9K cycles, one point.
fn job_source(seed: u64) -> String {
    format!(
        "grid 4 4; seed {seed}; warmup 1K; duration 8K; epoch 2K;\n\
         t=0 uniform load 0.1 poisson;"
    )
}

fn op(name: &str, id: Option<u64>) -> Value {
    let mut fields = vec![("op".to_string(), Value::String(name.to_string()))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::Number(id as f64)));
    }
    Value::Object(fields)
}

/// A running daemon and the thread its accept loop lives on.
struct Daemon {
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Boots a daemon on `data_dir` and waits until it answers a ping.
    fn boot(data_dir: &Path, tr: &mut Tracer) -> std::io::Result<(Daemon, Client)> {
        let span = tr.begin("farm.boot");
        STOP.store(false, Ordering::SeqCst);
        let server = Server::start(FarmConfig {
            listen: "127.0.0.1:0".to_string(),
            data_dir: data_dir.to_path_buf(),
            workers: 1,
            drain_grace_secs: 5,
            ..FarmConfig::default()
        })?;
        let endpoint = server.endpoint().to_string();
        let thread = std::thread::Builder::new()
            .name("farm-accept".to_string())
            .spawn(move || server.run(&STOP))?;
        let daemon = Daemon {
            thread: Some(thread),
        };
        let mut client = Client::connect(&endpoint)?;
        let pong = client.request("farm.request.ping", &op("ping", None), tr)?;
        if pong.get("type").and_then(Value::as_str) != Some("pong") {
            return Err(std::io::Error::other("daemon did not answer the ping"));
        }
        tr.end(span);
        Ok((daemon, client))
    }

    /// Stops the daemon and joins its thread (the daemon joins its own
    /// workers before `run` returns).
    fn stop(mut self) -> std::io::Result<()> {
        STOP.store(true, Ordering::SeqCst);
        match self.thread.take().expect("joined once").join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("the daemon thread panicked")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // An early return or a panic must not leave the daemon running.
        STOP.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The one client connection, counting what crosses it.
struct Client {
    conn: FarmClient,
    frames: u64,
    bytes: u64,
}

impl Client {
    fn connect(endpoint: &str) -> std::io::Result<Client> {
        Ok(Client {
            conn: FarmClient::connect(endpoint)?,
            frames: 0,
            bytes: 0,
        })
    }

    /// One round trip, as a span named `span`.
    fn request(
        &mut self,
        span: &'static str,
        req: &Value,
        tr: &mut Tracer,
    ) -> std::io::Result<Value> {
        let resp = tr.timed(span, || self.conn.request(req))?;
        self.frames += 2;
        if tr.on() {
            // Re-encoding the frames to size them is tracing overhead.
            self.bytes +=
                (8 + req.to_string_compact().len() + resp.to_string_compact().len()) as u64;
        }
        Ok(resp)
    }
}

/// One job as the client saw it.
struct JobRun {
    ack_ms: f64,
    turnaround_ms: f64,
    polls: u64,
    /// The result rows, compact JSON; `None` when the job did not
    /// complete.
    rows: Option<String>,
}

fn submit(client: &mut Client, name: &str, source: &str, tr: &mut Tracer) -> std::io::Result<u64> {
    let req = Value::Object(vec![
        ("op".into(), Value::String("submit".into())),
        ("name".into(), Value::String(name.into())),
        ("scenario".into(), Value::String(source.into())),
    ]);
    let resp = client.request("farm.request.submit", &req, tr)?;
    match resp.get("type").and_then(Value::as_str) {
        Some("accepted") => resp
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| std::io::Error::other("accepted without an id")),
        other => Err(std::io::Error::other(format!(
            "submission not accepted: {other:?}"
        ))),
    }
}

/// Polls until the job is terminal, then fetches and decodes its rows.
fn await_job(
    client: &mut Client,
    id: u64,
    tr: &mut Tracer,
) -> std::io::Result<(u64, Option<String>)> {
    let started = Instant::now();
    let mut polls = 0u64;
    let state = loop {
        let resp = client.request("farm.request.status", &op("status", Some(id)), tr)?;
        polls += 1;
        let state = resp
            .get("jobs")
            .and_then(Value::as_array)
            .and_then(|jobs| jobs.first())
            .and_then(|j| j.get("state"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        if matches!(state.as_str(), "completed" | "failed" | "cancelled")
            || started.elapsed() > JOB_DEADLINE
        {
            break state;
        }
        tr.timed("farm.poll_sleep", || std::thread::sleep(POLL));
    };
    if state != "completed" {
        return Ok((polls, None));
    }
    let resp = client.request("farm.request.result", &op("result", Some(id)), tr)?;
    let rows = resp.get("rows").and_then(Value::as_array).filter(|rows| {
        // "Rows decoded": every row must parse back into a ScenarioRow.
        rows.iter().all(|r| scenario_row_from_json(r).is_some())
    });
    Ok((
        polls,
        rows.map(|r| Value::Array(r.to_vec()).to_string_compact()),
    ))
}

fn run_job(
    client: &mut Client,
    name: &str,
    source: &str,
    tr: &mut Tracer,
) -> std::io::Result<JobRun> {
    let t = Instant::now();
    let id = submit(client, name, source, tr)?;
    let ack_ms = t.elapsed().as_secs_f64() * 1e3;
    let (polls, rows) = await_job(client, id, tr)?;
    Ok(JobRun {
        ack_ms,
        turnaround_ms: t.elapsed().as_secs_f64() * 1e3,
        polls,
        rows,
    })
}

/// Runs the workload.
pub fn run(b: &mut Bench) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(b, &mut out) {
        Ok(()) => {}
        Err(e) => out.errors.push(format!("farm I/O error: {e}")),
    }
    out
}

fn run_inner(b: &mut Bench, out: &mut Outcome) -> std::io::Result<()> {
    let scratch = Scratch::new("farm_jobs")?;
    let sequential = b.scaled(SEQUENTIAL, 5);
    let burst = b.scaled(BURST, 2);
    let seed = b.seed;
    // (name, source) of every job, sequential ones first.
    let specs: Vec<(String, String)> = (0..sequential + burst)
        .map(|i| {
            let job_seed = seed.wrapping_mul(100_003).wrapping_add(i) & 0xFFFF_FFFF;
            (format!("job-{i}"), job_source(job_seed))
        })
        .collect();
    let (seq_specs, burst_specs) = specs.split_at(sequential as usize);

    // Set-up: daemon boot to "answers a ping", on a fresh data directory
    // each time. `setup` drops each repetition's daemon (stopped and
    // joined) before booting the next; the last one stays up for the jobs.
    let mut boots = 0;
    let (daemon, mut client) = b.setup(BOOT_REPS, |tr| {
        boots += 1;
        Daemon::boot(&scratch.path().join(format!("data-{boots}")), tr)
    })?;
    let data_dir = scratch.path().join(format!("data-{boots}"));

    // Warm-up: one untimed job.
    run_job(
        &mut client,
        "warmup",
        &job_source(0),
        &mut Tracer::new(false),
    )?;

    let mut jobs: Vec<JobRun> = Vec::new();
    for (name, source) in seq_specs {
        jobs.push(b.segment("sequential", |tr| run_job(&mut client, name, source, tr))?);
    }
    let t = Instant::now();
    let burst_jobs = b.segment("burst", |tr| -> std::io::Result<Vec<JobRun>> {
        let ids: Vec<(u64, f64)> = burst_specs
            .iter()
            .map(|(name, source)| {
                let id = submit(&mut client, name, source, tr)?;
                Ok((id, t.elapsed().as_secs_f64() * 1e3))
            })
            .collect::<std::io::Result<_>>()?;
        ids.into_iter()
            .map(|(id, ack_ms)| {
                let (polls, rows) = await_job(&mut client, id, tr)?;
                Ok(JobRun {
                    ack_ms,
                    turnaround_ms: t.elapsed().as_secs_f64() * 1e3,
                    polls,
                    rows,
                })
            })
            .collect()
    })?;
    let burst_s = t.elapsed().as_secs_f64();

    let journal_bytes = std::fs::metadata(data_dir.join("jobs.jsonl")).map_or(0, |m| m.len());
    let (frames, frame_bytes) = (client.frames, client.bytes);
    drop(client);
    daemon.stop()?;

    // Correctness, untimed: every job completed, with rows byte-identical
    // to the same source run in-process.
    let mut digest = Digest::default();
    let mut sim_ms = Vec::new();
    let mut jobs_failed = 0u64;
    for (job, (name, source)) in jobs.iter().chain(&burst_jobs).zip(&specs) {
        let plan = load_scenario(source).map_err(std::io::Error::other)?;
        let t = Instant::now();
        let row = scenario_point(name, &plan, None, &CancelToken::new())
            .map_err(std::io::Error::other)?;
        sim_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let want = rows_json(std::slice::from_ref(&row)).to_string_compact();
        digest.bytes(want.as_bytes());
        out.sim_cycles += plan.total_cycles();
        if job.rows.as_deref() != Some(&want) {
            jobs_failed += 1;
            out.errors.push(format!(
                "job {name}: rows differ from the in-process run (got {:?})",
                job.rows
            ));
        }
    }
    out.digest = digest.value();
    out.attempted = sequential + burst;
    out.failed = jobs_failed;

    let v = &mut out.values;
    let acks: Vec<f64> = jobs.iter().map(|j| j.ack_ms).collect();
    let turnaround: Vec<f64> = jobs.iter().map(|j| j.turnaround_ms).collect();
    v.set("farm.job_ack_ms_p50", median(&acks));
    v.set("farm.job_turnaround_ms_p50", median(&turnaround));
    v.set("farm.job_turnaround_ms_p90", quantile(&turnaround, 0.9));
    v.set(
        "farm.polls_per_job",
        jobs.iter().map(|j| j.polls).sum::<u64>() as f64 / jobs.len().max(1) as f64,
    );
    v.set("farm.burst_jobs_per_s", burst as f64 / burst_s);
    v.set("farm.jobs_failed", jobs_failed as f64);
    v.set("farm.journal_bytes", journal_bytes as f64);
    v.set("farm.frames", frames as f64);
    v.set("farm.frame_bytes", frame_bytes as f64);
    v.set("bench.job_sim_ms_p50", median(&sim_ms));
    v.set(
        "farm.overhead_ms_p50",
        median(&turnaround) - median(&sim_ms[..jobs.len()]),
    );

    if b.tr.on() {
        // A second boot on the populated directory: journal replay.
        let cfg = FarmConfig {
            listen: "127.0.0.1:0".to_string(),
            data_dir,
            workers: 1,
            ..FarmConfig::default()
        };
        let replayed = b.tr.timed("farm.replay", || Server::start(cfg))?;
        drop(replayed);
        probes(out, &scratch, &burst_jobs)?;
    }
    Ok(())
}

/// Layer probes (traced run only): the frame codec without a socket, and
/// the checkpoint journal without a simulation.
fn probes(out: &mut Outcome, scratch: &Scratch, done: &[JobRun]) -> std::io::Result<()> {
    let rows = done
        .iter()
        .find_map(|j| j.rows.clone())
        .unwrap_or_else(|| "[]".to_string());
    let frame = Value::Object(vec![
        ("type".into(), Value::String("result".into())),
        ("id".into(), Value::Number(1.0)),
        (
            "rows".into(),
            adaptnoc_sim::json::parse(&rows).map_err(std::io::Error::other)?,
        ),
    ]);
    let mut codec = Vec::new();
    for _ in 0..201 {
        let t = Instant::now();
        let mut wire = Vec::with_capacity(1024);
        write_frame(&mut wire, black_box(&frame))?;
        black_box(read_frame(&mut wire.as_slice())?);
        codec.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.values.set("farm.frame_codec_us_p50", median(&codec));

    // run_checkpointed over trivial points: what one journaled point
    // costs on top of its simulation (per-point mean of a batch; median
    // over the batches).
    const POINTS: usize = 100;
    let mut per_point_us = Vec::new();
    for batch in 0..7 {
        let path = scratch.path().join(format!("probe-points-{batch}.jsonl"));
        let t = Instant::now();
        let rows = run_checkpointed(
            POINTS,
            1,
            &path,
            |v: &u64| Value::Number(*v as f64),
            |v| v.as_u64(),
            |i| i as u64,
        )?;
        per_point_us.push(t.elapsed().as_nanos() as f64 / 1e3 / POINTS as f64);
        out.check(rows.len() == POINTS, || {
            "checkpoint probe lost points".into()
        });
    }
    out.values
        .set("bench.checkpoint_append_us_p50", median(&per_point_us));
    Ok(())
}
