//! The daemon: listener, connection handlers, worker/reaper threads,
//! and the graceful-shutdown choreography.
//!
//! On `SIGTERM`/`SIGINT` the daemon stops admitting, fires every running
//! job's cancel token with the `Shutdown` cause (workers checkpoint at
//! the next epoch boundary and journal `interrupted`), waits up to
//! `drain_grace_secs` for the workers, flushes telemetry, and exits 0.
//! A restarted daemon replays the job journal, requeues everything
//! non-terminal, and each re-run resumes from its per-job checkpoint —
//! so even `kill -9` loses at most the points in flight.

use crate::config::FarmConfig;
use crate::job::JobState;
use crate::proto::{self, Request};
use crate::worker::{worker_loop, FarmState, ScenarioRunner};
use adaptnoc_bench::prelude::atomic_write;
use adaptnoc_bench::submit::write_frame;
use adaptnoc_sim::json::Value;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Unix signal handling: a raw `signal(2)` registration that flips an
/// atomic — the only unsafe code in the workspace (every other library
/// crate is `#![forbid(unsafe_code)]`), kept to the smallest possible
/// surface because the standard library offers no signal API.
#[cfg(unix)]
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by `SIGINT`/`SIGTERM`; polled by the accept loop.
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the handlers (SIGINT = 2, SIGTERM = 15).
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(2, handler);
            signal(15, handler);
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

enum Conn {
    Tcp(std::net::TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Listener {
    fn bind(listen: &str) -> io::Result<(Listener, String)> {
        if let Some(path) = listen.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let path = PathBuf::from(path);
                // A previous unclean death leaves the socket file behind.
                let _ = std::fs::remove_file(&path);
                let l = std::os::unix::net::UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                let endpoint = format!("unix:{}", path.display());
                return Ok((Listener::Unix(l, path), endpoint));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are unavailable on this platform",
                ));
            }
        }
        let hostport = listen.strip_prefix("tcp://").unwrap_or(listen);
        let l = TcpListener::bind(hostport)?;
        l.set_nonblocking(true)?;
        let endpoint = format!("tcp://{}", l.local_addr()?);
        Ok((Listener::Tcp(l), endpoint))
    }

    fn accept(&self) -> io::Result<Option<Conn>> {
        let conn = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    // Responses are small and latency-bound (see
                    // `write_frame`): never hold one back for coalescing.
                    // Only a latency knob — a socket that refuses it is
                    // served anyway, and must not take the listener down.
                    let _ = s.set_nodelay(true);
                    Conn::Tcp(s)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
            #[cfg(unix)]
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Conn::Unix(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        Ok(Some(conn))
    }

    fn cleanup(&self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }
}

/// A bound, replayed, ready-to-run daemon.
pub struct Server {
    state: Arc<FarmState>,
    listener: Listener,
    endpoint: String,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener, replays the job journal (requeueing
    /// non-terminal jobs), and advertises the resolved endpoint in
    /// `<data_dir>/endpoint`.
    ///
    /// # Errors
    ///
    /// Bind, journal, or data-directory I/O errors.
    pub fn start(cfg: FarmConfig) -> io::Result<Server> {
        let state = FarmState::new(cfg)?;
        let (listener, endpoint) = Listener::bind(&state.cfg.listen)?;
        atomic_write(&state.cfg.data_dir.join("endpoint"), &endpoint)?;
        Ok(Server {
            state,
            listener,
            endpoint,
        })
    }

    /// The advertised address (`tcp://127.0.0.1:PORT` or `unix:PATH`).
    #[must_use]
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The shared state (tests poke it directly).
    #[must_use]
    pub fn state(&self) -> &Arc<FarmState> {
        &self.state
    }

    /// Runs until `stop` turns true (normally wired to
    /// [`signals::SHUTDOWN`]), then performs the graceful shutdown.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop I/O errors; a clean shutdown returns `Ok`.
    pub fn run(self, stop: &'static AtomicBool) -> io::Result<()> {
        let state = &self.state;
        let workers: Vec<_> = (0..state.cfg.workers)
            .map(|i| {
                let st = state.clone();
                std::thread::Builder::new()
                    .name(format!("farm-worker-{i}"))
                    .spawn(move || worker_loop(&st, &ScenarioRunner))
                    .expect("spawn worker thread")
            })
            .collect();
        let reaper = {
            let st = state.clone();
            std::thread::Builder::new()
                .name("farm-reaper".to_string())
                .spawn(move || {
                    while !st.shutdown.load(Ordering::Acquire) {
                        st.reap_deadlines();
                        std::thread::sleep(Duration::from_millis(100));
                    }
                })
                .expect("spawn reaper thread")
        };

        while !stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(Some(conn)) => {
                    let st = state.clone();
                    let _ = std::thread::Builder::new()
                        .name("farm-conn".to_string())
                        .spawn(move || handle_conn(&st, conn, stop));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => {
                    self.listener.cleanup();
                    return Err(e);
                }
            }
        }

        // Graceful shutdown: stop admitting, checkpoint, persist, exit.
        state.begin_shutdown();
        let grace = Duration::from_secs(state.cfg.drain_grace_secs.max(1));
        let deadline = Instant::now() + grace;
        for w in workers {
            let budget = deadline.saturating_duration_since(Instant::now());
            if wait_join(&w, budget) {
                let _ = w.join();
            }
            // A worker that outlives the grace dies with the process;
            // its job's last journaled state is `running`, which the
            // next daemon treats exactly like `interrupted`.
        }
        let _ = reaper.join();
        state.write_daemon_telemetry();
        let _ = std::fs::remove_file(state.cfg.data_dir.join("endpoint"));
        self.listener.cleanup();
        Ok(())
    }
}

/// Polls a join handle for up to `budget`. Returns whether it finished.
fn wait_join<T>(handle: &std::thread::JoinHandle<T>, budget: Duration) -> bool {
    let deadline = Instant::now() + budget;
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

/// One connection's request loop. Every error path answers with an
/// `error` frame where possible — a malformed client must never take
/// the daemon down.
fn handle_conn(state: &Arc<FarmState>, mut conn: Conn, stop: &AtomicBool) {
    if conn.set_read_timeout(Duration::from_millis(250)).is_err() {
        return;
    }
    let stopped = || stop.load(Ordering::SeqCst) || state.shutdown.load(Ordering::Acquire);
    loop {
        let frame = match proto::read_frame_patient(&mut conn, &stopped) {
            Ok(Some(v)) => v,
            Ok(None) => return,
            Err(e) => {
                let _ = write_frame(&mut conn, &proto::error(&format!("bad frame: {e}")));
                return;
            }
        };
        let req = match Request::parse(&frame) {
            Ok(r) => r,
            Err(msg) => {
                if write_frame(&mut conn, &proto::error(&msg)).is_err() {
                    return;
                }
                continue;
            }
        };
        let ok = match req {
            Request::Watch(id) => stream_watch(state, &mut conn, id, &stopped),
            req => {
                let resp = dispatch(state, req, &stopped);
                write_frame(&mut conn, &resp).is_ok()
            }
        };
        if !ok {
            return;
        }
    }
}

fn dispatch(state: &Arc<FarmState>, req: Request, stopped: &dyn Fn() -> bool) -> Value {
    match req {
        Request::Ping => {
            let mut fields = vec![("type".to_string(), Value::String("pong".to_string()))];
            fields.extend(state.stats());
            Value::Object(fields)
        }
        Request::Submit {
            name,
            scenario,
            priority,
            deadline_secs,
            threads,
        } => {
            let spec = crate::job::JobSpec {
                name,
                scenario,
                priority,
                deadline_secs,
                threads,
            };
            match state.submit(spec) {
                Ok(id) => proto::accepted(id),
                Err((reason, retry_after_ms)) => proto::rejected(&reason, retry_after_ms),
            }
        }
        Request::Status(Some(id)) => match state.snapshot(id) {
            Some(s) => proto::status(vec![s.to_json()]),
            None => proto::error(&format!("no such job {id}")),
        },
        Request::Status(None) => proto::status(
            state
                .snapshot_all()
                .iter()
                .map(crate::job::JobSnapshot::to_json)
                .collect(),
        ),
        Request::Cancel(id) => match state.cancel(id) {
            Ok(()) => proto::done(),
            Err(msg) => proto::error(&msg),
        },
        Request::Drain => {
            state.draining.store(true, Ordering::Release);
            while !state.settled() && !stopped() {
                std::thread::sleep(Duration::from_millis(50));
            }
            proto::done()
        }
        Request::Result(id) => fetch_result(state, id),
        Request::Watch(_) => unreachable!("watch is handled by stream_watch"),
    }
}

/// Serves `result` from disk, so completed jobs survive daemon
/// restarts: the record may be a journal replay, but `result.json` is
/// the artifact.
fn fetch_result(state: &Arc<FarmState>, id: u64) -> Value {
    match state.snapshot(id) {
        None => return proto::error(&format!("no such job {id}")),
        Some(s) if s.state != JobState::Completed => {
            return proto::error(&format!("job {id} is {}, not completed", s.state.as_str()))
        }
        Some(_) => {}
    }
    let path = state.job_dir(id).join("result.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return proto::error(&format!("result file: {e}")),
    };
    match adaptnoc_sim::json::parse(&text) {
        Ok(v) => match v.get("rows") {
            Some(rows) => proto::result(id, rows.clone()),
            None => proto::error("result file has no rows"),
        },
        Err(e) => proto::error(&format!("result file: {e}")),
    }
}

/// Streams a job's events until it reaches a terminal state; ends with
/// a `done` frame. Returns whether the connection is still usable.
fn stream_watch(
    state: &Arc<FarmState>,
    conn: &mut Conn,
    id: u64,
    stopped: &dyn Fn() -> bool,
) -> bool {
    let (rx, terminal) = match state.subscribe(id) {
        Ok(x) => x,
        Err(msg) => return write_frame(conn, &proto::error(&msg)).is_ok(),
    };
    // Lead with a status snapshot so late watchers see where things are.
    let snap = match state.snapshot(id) {
        Some(s) => s,
        None => return write_frame(conn, &proto::error(&format!("no such job {id}"))).is_ok(),
    };
    if write_frame(conn, &proto::status(vec![snap.to_json()])).is_err() {
        return false;
    }
    if terminal {
        return write_frame(conn, &proto::done()).is_ok();
    }
    loop {
        if stopped() {
            return write_frame(conn, &proto::done()).is_ok();
        }
        match rx.recv_timeout(Duration::from_millis(250)) {
            Ok(frame) => {
                let ends = frame
                    .get("kind")
                    .and_then(Value::as_str)
                    .is_some_and(|k| k == "state")
                    && frame
                        .get("state")
                        .and_then(Value::as_str)
                        .and_then(JobState::parse)
                        .is_some_and(JobState::is_terminal);
                if write_frame(conn, &frame).is_err() {
                    return false;
                }
                if ends {
                    return write_frame(conn, &proto::done()).is_ok();
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // The subscription may have raced the terminal event.
                if state
                    .snapshot(id)
                    .is_some_and(|s| s.state.is_terminal() || s.state == JobState::Interrupted)
                {
                    return write_frame(conn, &proto::done()).is_ok();
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return write_frame(conn, &proto::done()).is_ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_tcp_connections_disable_nagle() {
        let (listener, endpoint) = Listener::bind("127.0.0.1:0").unwrap();
        let hostport = endpoint.strip_prefix("tcp://").unwrap();
        let _client = std::net::TcpStream::connect(hostport).unwrap();
        // The listener is non-blocking: the connection may take a moment
        // to surface.
        let deadline = Instant::now() + Duration::from_secs(10);
        let conn = loop {
            if let Some(conn) = listener.accept().unwrap() {
                break conn;
            }
            assert!(Instant::now() < deadline, "connection never surfaced");
            std::thread::sleep(Duration::from_millis(1));
        };
        let Conn::Tcp(tcp) = conn else {
            panic!("a tcp listener accepts tcp connections");
        };
        assert!(tcp.nodelay().unwrap());
    }
}
