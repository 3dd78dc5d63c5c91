//! Work-stealing parallel campaign runner.
//!
//! Every campaign in this crate is a grid of *independent* simulation
//! points (figure sweeps, ablations, fault scenarios, per-γ trainings):
//! each point constructs its own [`adaptnoc_sim::network::Network`] from a
//! per-point seed, so points share no mutable state and can run on any
//! thread. [`run_indexed`] fans the points over a scoped thread pool with
//! an atomic work-stealing cursor — threads that finish cheap points
//! immediately claim the next unclaimed index, so a few slow points do
//! not serialize the tail — and returns results **in index order**, which
//! keeps every campaign's JSON output byte-identical to a serial run.
//!
//! [`run_checkpointed`] builds crash tolerance on it: each completed
//! point is journalled to an append-only JSON-lines file, so a killed
//! sweep resumes from the completed points and still produces
//! byte-identical output. That journal is written and
//! read through [`open_journal`] and [`read_journal`], which the farm
//! daemon's job journal shares.

use adaptnoc_sim::json::{self, Value};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning.
///
/// A campaign point that panics while a sibling holds (or later takes)
/// one of the coordination locks must not sink the rest of the campaign:
/// the data behind these locks (result slots, the journal file handle) is
/// written atomically per point, so a poisoned lock carries no torn
/// state worth dying over. The farm worker's `catch_unwind` isolation
/// relies on this — recovery here is what keeps one bad point from
/// cascading.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Number of worker threads to use for campaigns: `threads` if non-zero,
/// else the host's available parallelism. Always at least 1.
pub fn configured_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(0..n)` across `threads` workers and returns the results in
/// index order.
///
/// Scheduling is dynamic: each worker claims the next index from a shared
/// atomic cursor (work stealing by competition rather than per-thread
/// queues, which is optimal here because points vastly outnumber threads
/// and vary widely in cost). With `threads <= 1` — or a single point —
/// the closure runs inline on the caller's thread with zero overhead, so
/// serial semantics are the fast path, not a special case.
///
/// Determinism: `f` receives only the point index, and campaigns derive
/// the point's seed from that index, so the result vector is identical
/// regardless of thread count or claim order.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *lock_recovering(&slots[i]) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every index claimed exactly once")
        })
        .collect()
}

/// The message of a caught panic payload: the `&str` or `String` given
/// to `panic!`, or a placeholder for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Opens the append-only JSON-lines journal at `path` for appending,
/// creating the file and its parent directory if needed.
///
/// A kill mid-append leaves a final line without its newline. If the
/// file's last byte is not `\n`, one is written first, so the next record
/// starts a line of its own instead of being glued onto the torn one and
/// dropped with it on replay. Only that last byte is read.
///
/// # Errors
///
/// Propagates directory-creation, open, read and write errors.
pub fn open_journal(path: &Path) -> std::io::Result<std::fs::File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    let len = file.metadata()?.len();
    if len > 0 {
        let mut last = [0u8];
        file.seek(SeekFrom::Start(len - 1))?;
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            file.write_all(b"\n")?;
        }
    }
    Ok(file)
}

/// Every line of the JSON-lines journal at `path` that parses, in append
/// order. A missing file is an empty journal; lines that do not parse (a
/// torn tail) are skipped.
///
/// # Errors
///
/// Propagates read errors other than the file not existing.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<Value>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    // Lossy, so a tail torn inside a multi-byte character costs only its
    // own line.
    Ok(String::from_utf8_lossy(&bytes)
        .lines()
        .filter_map(|line| json::parse(line.trim()).ok())
        .collect())
}

/// The state of a checkpointed campaign after
/// [`run_checkpointed_observed`] returns: either every point completed,
/// or a stop request interrupted it with some points still missing.
///
/// Interruption loses nothing: completed points are in the journal, and
/// re-running the same campaign against the same journal path finishes
/// only the missing indices and returns results byte-identical to an
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialCampaign<T> {
    /// Per-index results; `None` for points the stop request preempted.
    pub results: Vec<Option<T>>,
}

impl<T> PartialCampaign<T> {
    /// Number of completed points.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// Whether every point completed.
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(|r| r.is_some())
    }

    /// The full result vector, if the campaign completed.
    pub fn into_complete(self) -> Option<Vec<T>> {
        self.results.into_iter().collect()
    }
}

/// [`run_checkpointed`] generalized for supervision: the point function
/// returns `Option<T>` — `None` means "stopped" (a cancelled or
/// deadline-preempted point), which leaves a [`PartialCampaign`] hole
/// and journals nothing, so a later resume re-runs exactly that point —
/// and `observe(i, &result)` runs after each *freshly computed* point is
/// journaled, which is the hook the farm daemon uses to stream per-point
/// progress events to watching clients. Replayed points are not
/// re-observed.
///
/// # Errors
///
/// Returns the I/O error if the journal cannot be read or opened for
/// appending; individual write failures are swallowed (the campaign still
/// completes, it just loses crash tolerance for those points).
pub fn run_checkpointed_observed<T, F, E, D, O>(
    n: usize,
    threads: usize,
    path: &Path,
    encode: E,
    decode: D,
    observe: O,
    f: F,
) -> std::io::Result<PartialCampaign<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
    E: Fn(&T) -> Value + Sync,
    D: Fn(&Value) -> Option<T>,
    O: Fn(usize, &T) + Sync,
{
    let mut done: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for entry in read_journal(path)? {
        let (Some(i), Some(v)) = (entry.get("i").and_then(Value::as_u64), entry.get("v")) else {
            continue;
        };
        if let Some(slot) = done.get_mut(i as usize) {
            if slot.is_none() {
                *slot = decode(v);
            }
        }
    }
    let todo: Vec<usize> = (0..n).filter(|&i| done[i].is_none()).collect();
    if !todo.is_empty() {
        let sink = Mutex::new(open_journal(path)?);
        let fresh = run_indexed(todo.len(), threads, |k| {
            let i = todo[k];
            let Some(out) = f(i) else {
                return (i, None);
            };
            let line = Value::Object(vec![
                ("i".to_string(), Value::Number(i as f64)),
                ("v".to_string(), encode(&out)),
            ])
            .to_string_compact();
            {
                let mut file = lock_recovering(&sink);
                let _ = writeln!(file, "{line}");
                let _ = file.flush();
            }
            observe(i, &out);
            (i, Some(out))
        });
        for (i, out) in fresh {
            done[i] = out;
        }
    }
    Ok(PartialCampaign { results: done })
}

/// [`run_indexed`] with an on-disk checkpoint journal, so a killed
/// campaign resumes from its completed points.
///
/// Each finished point is appended to `path` as one JSON line
/// `{"i": <index>, "v": <encode(result)>}` and flushed immediately.
/// On entry the journal is replayed: points that decode are skipped,
/// torn or unparseable lines (a mid-write kill) are ignored, and only the
/// remaining indices run. Because results are assembled in index order
/// from `decode`-faithful values, an interrupted-then-resumed campaign
/// returns exactly what an uninterrupted one does.
///
/// # Errors
///
/// Returns the I/O error if the journal cannot be read or opened for
/// appending; individual write failures are swallowed (the campaign still
/// completes, it just loses crash tolerance for those points).
pub fn run_checkpointed<T, F, E, D>(
    n: usize,
    threads: usize,
    path: &Path,
    encode: E,
    decode: D,
    f: F,
) -> std::io::Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    E: Fn(&T) -> Value + Sync,
    D: Fn(&Value) -> Option<T>,
{
    let partial =
        run_checkpointed_observed(n, threads, path, encode, decode, |_, _| {}, |i| Some(f(i)))?;
    Ok(partial
        .into_complete()
        .expect("the point function never stops, so every index completed or replayed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let f = |i: usize| i * i + 1;
        let serial = run_indexed(37, 1, f);
        let par = run_indexed(37, 4, f);
        assert_eq!(serial, par);
        assert_eq!(serial[5], 26);
    }

    #[test]
    fn zero_points_is_empty() {
        let out: Vec<u32> = run_indexed(0, 8, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_points_is_fine() {
        let out = run_indexed(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn configured_threads_prefers_explicit() {
        assert_eq!(configured_threads(7), 7);
        assert!(configured_threads(0) >= 1);
    }

    fn scratch_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("adaptnoc-ckpt-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn a_tail_torn_inside_a_character_costs_only_its_line() {
        let path = scratch_journal("utf8");
        std::fs::write(&path, b"{\"v\":\"\xc3\xa9\"}\n{\"v\":\"\xc3").unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 1);

        let mut file = open_journal(&path).unwrap();
        writeln!(file, "{{\"v\":2}}").unwrap();
        drop(file);
        let lines = read_journal(&path).unwrap();
        assert_eq!(lines.len(), 2, "the record after the torn tail survives");
        assert_eq!(lines[1].get("v").and_then(Value::as_u64), Some(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observed_campaign_stops_early_and_resumes_with_fresh_observations() {
        let path = scratch_journal("observed");
        let _ = std::fs::remove_file(&path);
        let encode = |v: &usize| Value::Number(*v as f64);
        let decode = |v: &Value| v.as_u64().map(|n| n as usize);
        let seen = Mutex::new(Vec::new());
        let ran = AtomicUsize::new(0);

        // Stop after two points have completed: the rest stay pending.
        let partial = run_checkpointed_observed(
            5,
            1,
            &path,
            encode,
            decode,
            |i, v| lock_recovering(&seen).push((i, *v)),
            |i| {
                if ran.fetch_add(1, Ordering::Relaxed) >= 2 {
                    return None;
                }
                Some(i * 7)
            },
        )
        .unwrap();
        assert!(!partial.is_complete());
        assert_eq!(partial.completed(), 2);
        assert_eq!(*lock_recovering(&seen), vec![(0, 0), (1, 7)]);

        // A resume against the same journal observes only the points it
        // freshly computes and ends complete.
        lock_recovering(&seen).clear();
        let resumed = run_checkpointed_observed(
            5,
            1,
            &path,
            encode,
            decode,
            |i, v| lock_recovering(&seen).push((i, *v)),
            |i| Some(i * 7),
        )
        .unwrap();
        assert!(resumed.is_complete());
        assert_eq!(
            resumed.into_complete().unwrap(),
            vec![0, 7, 14, 21, 28],
            "resume matches an uninterrupted campaign"
        );
        assert_eq!(
            *lock_recovering(&seen),
            vec![(2, 14), (3, 21), (4, 28)],
            "replayed points are not re-observed"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_journal_resumes_from_completed_points() {
        let path = scratch_journal("resume");
        let _ = std::fs::remove_file(&path);
        let encode = |v: &usize| Value::Number(*v as f64);
        let decode = |v: &Value| v.as_u64().map(|n| n as usize);
        let calls = AtomicUsize::new(0);
        let f = |i: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * i
        };

        let full = run_checkpointed(6, 1, &path, encode, decode, f).unwrap();
        assert_eq!(full, vec![0, 1, 4, 9, 16, 25]);
        assert_eq!(calls.load(Ordering::Relaxed), 6);

        // Simulate a kill after three points: keep the first three journal
        // lines and append a torn line (a mid-write crash artifact).
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n{{\"i\":5,\"v\"", kept.join("\n"))).unwrap();

        calls.store(0, Ordering::Relaxed);
        let resumed = run_checkpointed(6, 1, &path, encode, decode, f).unwrap();
        assert_eq!(resumed, full, "resume reproduces the uninterrupted run");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            3,
            "only the missing points re-ran"
        );

        // A fully journaled campaign re-runs nothing at all.
        calls.store(0, Ordering::Relaxed);
        let replayed = run_checkpointed(6, 4, &path, encode, decode, f).unwrap();
        assert_eq!(replayed, full);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_file(&path);
    }
}
