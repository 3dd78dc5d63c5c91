//! The persistent job journal: `<data_dir>/jobs.jsonl`.
//!
//! Every admission and every state transition appends one JSON line, so
//! the queue itself survives any kind of daemon death:
//!
//! ```text
//! {"t":"submit","id":3,"spec":{"name":"lt","scenario":"...","priority":"normal"}}
//! {"t":"state","id":3,"state":"running","attempt":1,"detail":""}
//! {"t":"state","id":3,"state":"completed","attempt":1,"detail":""}
//! ```
//!
//! Replay is two-pass (collect `submit` records, then apply `state`
//! records in order) because a worker can journal `running` concurrently
//! with the submitter journaling `submit` — append order between the two
//! is not guaranteed. The file is opened and read through the same
//! helpers as the checkpoint journals
//! (`adaptnoc_bench::parallel::{open_journal, read_journal}`): a torn
//! final line (SIGKILL mid-append) is ignored on replay, and reopening
//! ends it with a newline so the next record is not glued onto it. Any
//! job whose *last* state is non-terminal (`queued`, `running`,
//! `interrupted`) is requeued by the restarted daemon; its per-job
//! checkpoint journal makes the re-run resume instead of restart.

use crate::job::{JobId, JobSpec, JobState};
use adaptnoc_bench::parallel::{open_journal, read_journal};
use adaptnoc_sim::json::Value;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// The journal file name under the data directory.
pub const JOURNAL_FILE: &str = "jobs.jsonl";

/// An open journal appender.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Opens (creating if needed) the journal under `data_dir`.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn open(data_dir: &Path) -> io::Result<Journal> {
        let file = open_journal(&data_dir.join(JOURNAL_FILE))?;
        Ok(Journal { file })
    }

    /// Appends a `submit` record.
    ///
    /// # Errors
    ///
    /// Propagates write errors — admission must not be acknowledged if
    /// it could not be persisted.
    pub fn submit(&mut self, id: JobId, spec: &JobSpec) -> io::Result<()> {
        self.append(&Value::Object(vec![
            ("t".to_string(), Value::String("submit".to_string())),
            ("id".to_string(), Value::Number(id as f64)),
            ("spec".to_string(), spec.to_json()),
        ]))
    }

    /// Appends a `state` record.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn state(
        &mut self,
        id: JobId,
        state: JobState,
        attempt: u32,
        detail: &str,
    ) -> io::Result<()> {
        self.append(&Value::Object(vec![
            ("t".to_string(), Value::String("state".to_string())),
            ("id".to_string(), Value::Number(id as f64)),
            (
                "state".to_string(),
                Value::String(state.as_str().to_string()),
            ),
            ("attempt".to_string(), Value::Number(f64::from(attempt))),
            ("detail".to_string(), Value::String(detail.to_string())),
        ]))
    }

    fn append(&mut self, v: &Value) -> io::Result<()> {
        writeln!(self.file, "{}", v.to_string_compact())?;
        self.file.flush()
    }
}

/// One journaled job as reconstructed by [`replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedJob {
    /// Job id.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Last journaled state (`Queued` if only the submit record exists).
    pub state: JobState,
    /// Last journaled attempt number.
    pub attempt: u32,
    /// Last journaled detail.
    pub detail: String,
}

/// Everything [`replay`] recovered.
#[derive(Debug, Clone)]
pub struct Replay {
    /// One entry per journaled job, ascending id.
    pub jobs: Vec<ReplayedJob>,
    /// The next id the daemon may allocate.
    pub next_id: JobId,
}

impl Default for Replay {
    fn default() -> Self {
        Replay {
            jobs: Vec::new(),
            next_id: 1,
        }
    }
}

/// Replays the journal under `data_dir`. A missing journal yields an
/// empty [`Replay`]; malformed or torn lines are skipped (crash
/// tolerance beats strictness here — the checkpoint journals carry the
/// actual results).
///
/// # Errors
///
/// Propagates read errors other than the file not existing.
pub fn replay(data_dir: &Path) -> io::Result<Replay> {
    let lines = read_journal(&data_dir.join(JOURNAL_FILE))?;

    // Pass 1: submits establish the job set.
    let mut jobs: BTreeMap<JobId, ReplayedJob> = BTreeMap::new();
    for v in &lines {
        if v.get("t").and_then(Value::as_str) != Some("submit") {
            continue;
        }
        let Some(id) = v.get("id").and_then(Value::as_u64) else {
            continue;
        };
        let Some(spec) = v.get("spec").and_then(JobSpec::from_json) else {
            continue;
        };
        jobs.insert(
            id,
            ReplayedJob {
                id,
                spec,
                state: JobState::Queued,
                attempt: 0,
                detail: String::new(),
            },
        );
    }

    // Pass 2: states apply in append order; the last one wins.
    for v in &lines {
        if v.get("t").and_then(Value::as_str) != Some("state") {
            continue;
        }
        let Some(job) = v
            .get("id")
            .and_then(Value::as_u64)
            .and_then(|id| jobs.get_mut(&id))
        else {
            continue;
        };
        let Some(state) = v
            .get("state")
            .and_then(Value::as_str)
            .and_then(JobState::parse)
        else {
            continue;
        };
        job.state = state;
        job.attempt = v.get("attempt").and_then(Value::as_u64).unwrap_or(0) as u32;
        job.detail = v
            .get("detail")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
    }

    let next_id = jobs.keys().next_back().map_or(1, |max| max + 1);
    Ok(Replay {
        jobs: jobs.into_values().collect(),
        next_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use std::fs::OpenOptions;

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            scenario: "grid 4 4;".to_string(),
            priority: Priority::Normal,
            deadline_secs: None,
            threads: None,
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "adaptnoc-farm-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replay_recovers_states_and_next_id() {
        let dir = scratch_dir("basic");
        let mut j = Journal::open(&dir).unwrap();
        j.submit(1, &spec("a")).unwrap();
        j.state(1, JobState::Running, 1, "").unwrap();
        j.state(1, JobState::Completed, 1, "").unwrap();
        j.submit(2, &spec("b")).unwrap();
        j.state(2, JobState::Running, 1, "").unwrap();
        j.submit(3, &spec("c")).unwrap();
        drop(j);

        let r = replay(&dir).unwrap();
        assert_eq!(r.next_id, 4);
        assert_eq!(r.jobs.len(), 3);
        assert_eq!(r.jobs[0].state, JobState::Completed);
        assert_eq!(r.jobs[1].state, JobState::Running, "non-terminal: requeue");
        assert_eq!(r.jobs[2].state, JobState::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_tolerates_torn_tail_and_out_of_order_state() {
        let dir = scratch_dir("torn");
        let mut j = Journal::open(&dir).unwrap();
        // A worker's `running` record can land before the `submit` line.
        j.state(1, JobState::Running, 1, "").unwrap();
        j.submit(1, &spec("a")).unwrap();
        drop(j);
        // SIGKILL mid-append leaves a torn line.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        write!(f, "{{\"t\":\"state\",\"id\":1,\"sta").unwrap();
        drop(f);

        let r = replay(&dir).unwrap();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].state, JobState::Running);
        assert_eq!(r.next_id, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_submit_after_a_torn_tail_survives_replay() {
        let dir = scratch_dir("torn-submit");
        let mut j = Journal::open(&dir).unwrap();
        j.submit(1, &spec("a")).unwrap();
        drop(j);
        // SIGKILL mid-append of job 2's submit: never acknowledged.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        write!(f, "{{\"t\":\"submit\",\"id\":2,\"sp").unwrap();
        drop(f);

        // The restarted daemon reuses id 2 and acknowledges the submit.
        let r = replay(&dir).unwrap();
        assert_eq!(r.next_id, 2);
        let mut j = Journal::open(&dir).unwrap();
        j.submit(2, &spec("b")).unwrap();
        drop(j);

        let r = replay(&dir).unwrap();
        let ids: Vec<JobId> = r.jobs.iter().map(|job| job.id).collect();
        assert_eq!(ids, [1, 2], "the acknowledged job must survive replay");
        assert_eq!(r.jobs[1].spec.name, "b");
        assert_eq!(r.next_id, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let dir = scratch_dir("missing");
        let r = replay(&dir).unwrap();
        assert!(r.jobs.is_empty());
        assert_eq!(r.next_id, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
