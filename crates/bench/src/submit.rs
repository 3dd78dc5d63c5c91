//! The NoC farm daemon's wire framing, and a minimal client used by
//! `gen-figures --submit ADDR` to route the scenario campaign through a
//! running `adaptnoc-farmd` instead of executing it in-process.
//!
//! The protocol (authoritative spec: `docs/FARM.md`) is simple: every
//! message is one *frame* — a 4-byte big-endian length followed by that
//! many bytes of UTF-8 JSON — and every request is an object with an
//! `"op"` key. Both ends frame through this module: the server in the
//! `adaptnoc-farm` crate writes with [`write_frame`] and reads with
//! [`read_frame_until`], and the farm CI job diffs a daemon-routed
//! campaign against a direct one.
//!
//! Addresses take three forms: `tcp://HOST:PORT`, a bare `HOST:PORT`
//! (TCP), or `unix:PATH` (a Unix-domain socket). A running daemon
//! advertises its own address in `<data-dir>/endpoint`.

use adaptnoc_sim::json::{self, Value};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Upper bound on one frame's payload; a frame header above this is
/// treated as a protocol error rather than an allocation request.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one length-prefixed JSON frame as a single write: header and
/// body leave in one segment. Written separately on a socket, the body
/// would sit behind Nagle's algorithm until the peer's delayed ACK of the
/// 4-byte header (~44 ms per frame on Linux).
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_frame<W: Write>(w: &mut W, v: &Value) -> io::Result<()> {
    let body = v.to_string_compact();
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", body.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed JSON frame. Returns `Ok(None)` on a clean
/// EOF at a frame boundary (the peer closed the connection).
///
/// # Errors
///
/// Returns an error for torn frames, oversized headers, or JSON that
/// does not parse — a malformed peer must surface as a diagnosable
/// error, never a panic.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Value>> {
    read_frame_until(r, &|| false)
}

/// [`read_frame`] for a stream whose reads time out: `WouldBlock` and
/// `TimedOut` are retried, keeping partial progress so a frame split
/// across timeout windows still assembles, until a full frame arrives,
/// the peer closes, or `stop` turns true.
///
/// Returns `Ok(None)` on a clean close *or* on stop — either way the
/// reader is done with this connection.
///
/// # Errors
///
/// Torn frames (EOF mid-frame), oversized headers, non-UTF-8 or
/// unparseable JSON, and genuine I/O errors.
pub fn read_frame_until<R: Read>(r: &mut R, stop: &dyn Fn() -> bool) -> io::Result<Option<Value>> {
    let mut header = [0u8; 4];
    if !fill(r, &mut header, true, stop)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame header claims {len} bytes (max {MAX_FRAME})"),
        ));
    }
    let mut body = vec![0u8; len];
    if !fill(r, &mut body, false, stop)? {
        return Ok(None);
    }
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))?;
    json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame JSON: {e}")))
}

/// Fills `buf`, tolerating timeouts. Returns `Ok(false)` when stopped,
/// or on clean EOF if `eof_ok` and no bytes were read yet.
fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    eof_ok: bool,
    stop: &dyn Fn() -> bool,
) -> io::Result<bool> {
    let mut at = 0;
    while at < buf.len() {
        if stop() {
            return Ok(false);
        }
        match r.read(&mut buf[at..]) {
            Ok(0) => {
                if eof_ok && at == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            Ok(n) => at += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

enum Stream {
    Tcp(std::net::TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A connected farm client issuing one request/response at a time.
pub struct FarmClient {
    stream: Stream,
}

impl std::fmt::Debug for FarmClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FarmClient")
    }
}

impl FarmClient {
    /// Connects to `tcp://HOST:PORT`, bare `HOST:PORT`, or `unix:PATH`.
    ///
    /// # Errors
    ///
    /// Propagates connection errors; rejects unparseable addresses.
    pub fn connect(addr: &str) -> io::Result<FarmClient> {
        let stream = if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                Stream::Unix(std::os::unix::net::UnixStream::connect(path)?)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are unavailable on this platform",
                ));
            }
        } else {
            let hostport = addr.strip_prefix("tcp://").unwrap_or(addr);
            let tcp = std::net::TcpStream::connect(hostport)?;
            // Request/response frames are small and latency-bound.
            tcp.set_nodelay(true)?;
            Stream::Tcp(tcp)
        };
        Ok(FarmClient { stream })
    }

    /// Sends one frame without waiting for a reply.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send(&mut self, v: &Value) -> io::Result<()> {
        write_frame(&mut self.stream, v)
    }

    /// Reads one frame; `Ok(None)` when the daemon closed cleanly. Used
    /// by stream consumers (`farmctl watch`) after a [`send`](Self::send).
    ///
    /// # Errors
    ///
    /// I/O or framing errors.
    pub fn recv(&mut self) -> io::Result<Option<Value>> {
        read_frame(&mut self.stream)
    }

    /// Sends one request and reads one response frame.
    ///
    /// # Errors
    ///
    /// I/O or framing errors; an early EOF is reported as such.
    pub fn request(&mut self, v: &Value) -> io::Result<Value> {
        write_frame(&mut self.stream, v)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-request",
            )
        })
    }

    /// Submits an inline scenario and returns the accepted job id.
    ///
    /// # Errors
    ///
    /// I/O errors, a `rejected` response (queue full / draining), or any
    /// other non-`accepted` reply.
    pub fn submit_scenario(&mut self, name: &str, scenario_src: &str) -> io::Result<u64> {
        let req = Value::Object(vec![
            ("op".into(), Value::String("submit".into())),
            ("name".into(), Value::String(name.into())),
            ("scenario".into(), Value::String(scenario_src.into())),
        ]);
        let resp = self.request(&req)?;
        match resp.get("type").and_then(Value::as_str) {
            Some("accepted") => resp
                .get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| io::Error::other("accepted response without a job id")),
            Some("rejected") => Err(io::Error::other(format!(
                "submission rejected: {} (retry_after_ms {})",
                resp.get("reason").and_then(Value::as_str).unwrap_or("?"),
                resp.get("retry_after_ms")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
            ))),
            other => Err(io::Error::other(format!(
                "unexpected submit response type {other:?}"
            ))),
        }
    }

    /// Polls job status until the job reaches a terminal state
    /// (`completed` / `failed` / `cancelled`) and returns the final
    /// snapshot object.
    ///
    /// # Errors
    ///
    /// I/O errors, or an `error` response for an unknown job.
    pub fn wait(&mut self, id: u64, poll: Duration) -> io::Result<Value> {
        loop {
            let req = Value::Object(vec![
                ("op".into(), Value::String("status".into())),
                ("id".into(), Value::Number(id as f64)),
            ]);
            let resp = self.request(&req)?;
            if resp.get("type").and_then(Value::as_str) == Some("error") {
                return Err(io::Error::other(
                    resp.get("msg")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown status error")
                        .to_string(),
                ));
            }
            let snap = resp
                .get("jobs")
                .and_then(Value::as_array)
                .and_then(|jobs| jobs.first())
                .cloned()
                .ok_or_else(|| io::Error::other("status response without the job"))?;
            match snap.get("state").and_then(Value::as_str) {
                Some("completed") | Some("failed") | Some("cancelled") => return Ok(snap),
                _ => std::thread::sleep(poll),
            }
        }
    }

    /// Fetches a completed job's campaign rows.
    ///
    /// # Errors
    ///
    /// I/O errors, an `error` response, or rows that do not decode as
    /// [`ScenarioRow`](crate::scenarios::ScenarioRow)s.
    pub fn result_rows(&mut self, id: u64) -> io::Result<Vec<crate::scenarios::ScenarioRow>> {
        let req = Value::Object(vec![
            ("op".into(), Value::String("result".into())),
            ("id".into(), Value::Number(id as f64)),
        ]);
        let resp = self.request(&req)?;
        if resp.get("type").and_then(Value::as_str) == Some("error") {
            return Err(io::Error::other(
                resp.get("msg")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown result error")
                    .to_string(),
            ));
        }
        let rows = resp
            .get("rows")
            .and_then(Value::as_array)
            .ok_or_else(|| io::Error::other("result response without rows"))?;
        rows.iter()
            .map(|v| {
                crate::scenarios::scenario_row_from_json(v)
                    .ok_or_else(|| io::Error::other("row did not decode as a ScenarioRow"))
            })
            .collect()
    }
}

/// Runs the scenario campaign through a farm daemon at `addr`: submits
/// the source, waits for the job to finish, and returns its rows —
/// byte-identical to the in-process campaign, because the daemon runs
/// the same deterministic sweep (and resumes from its per-job journal if
/// it was interrupted along the way).
///
/// # Errors
///
/// Connection/protocol errors, a rejected submission, or a job that
/// terminated without completing.
pub fn submit_and_wait(
    addr: &str,
    name: &str,
    scenario_src: &str,
) -> io::Result<Vec<crate::scenarios::ScenarioRow>> {
    let mut client = FarmClient::connect(addr)?;
    let id = client.submit_scenario(name, scenario_src)?;
    let snap = client.wait(id, Duration::from_millis(250))?;
    match snap.get("state").and_then(Value::as_str) {
        Some("completed") => client.result_rows(id),
        other => Err(io::Error::other(format!(
            "job {id} ended in state {other:?} instead of completing"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let v = Value::Object(vec![
            ("op".into(), Value::String("ping".into())),
            ("n".into(), Value::Number(7.0)),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, v);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn one_frame_is_one_write() {
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let v = Value::Object(vec![("op".into(), Value::String("status".into()))]);
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, &v).unwrap();
        assert_eq!(w.writes, 1, "header and body must leave together");
        write_frame(&mut w, &v).unwrap();
        assert_eq!(w.writes, 2);
        let mut cursor = io::Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), v);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), v);
    }

    #[test]
    fn tcp_client_disables_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for addr in [format!("tcp://{addr}"), addr.to_string()] {
            let client = FarmClient::connect(&addr).unwrap();
            let Stream::Tcp(tcp) = &client.stream else {
                panic!("{addr} must connect over TCP");
            };
            assert!(tcp.nodelay().unwrap(), "{addr}");
        }
    }

    #[test]
    fn torn_and_oversized_frames_are_errors_not_panics() {
        // Torn: header promises more bytes than the stream holds.
        let mut torn = io::Cursor::new(vec![0, 0, 0, 9, b'{']);
        assert!(read_frame(&mut torn).is_err());
        // Oversized header.
        let mut big = io::Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert!(read_frame(&mut big).is_err());
        // Garbage payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&3u32.to_be_bytes());
        bad.extend_from_slice(b"}{x");
        assert!(read_frame(&mut io::Cursor::new(bad)).is_err());
    }

    #[test]
    fn patient_reader_assembles_frames_split_by_timeouts() {
        // A reader that yields WouldBlock between every byte.
        struct Trickle {
            data: Vec<u8>,
            at: usize,
            parched: bool,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.at >= self.data.len() {
                    return Ok(0);
                }
                if self.parched {
                    self.parched = false;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "wait"));
                }
                self.parched = true;
                buf[0] = self.data[self.at];
                self.at += 1;
                Ok(1)
            }
        }
        let v = Value::Object(vec![
            ("type".into(), Value::String("accepted".into())),
            ("id".into(), Value::Number(9.0)),
        ]);
        let mut data = Vec::new();
        write_frame(&mut data, &v).unwrap();
        let mut r = Trickle {
            data,
            at: 0,
            parched: false,
        };
        let got = read_frame_until(&mut r, &|| false).unwrap().unwrap();
        assert_eq!(got, v);
        assert!(read_frame_until(&mut r, &|| false).unwrap().is_none());
    }

    #[test]
    fn patient_reader_stops_when_told() {
        struct Starve;
        impl Read for Starve {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "nothing"))
            }
        }
        assert!(read_frame_until(&mut Starve, &|| true).unwrap().is_none());
    }
}
