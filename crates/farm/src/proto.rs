//! The server side of the farm wire protocol: typed request parsing —
//! defensive, because a malformed payload must produce an `error`
//! response, never a daemon panic — and the response constructors.
//!
//! Framing (4-byte big-endian length + UTF-8 JSON) lives in
//! `adaptnoc_bench::submit`, shared with the client.

use crate::job::{JobId, Priority};
use adaptnoc_sim::json::Value;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / daemon stats probe.
    Ping,
    /// Submit a job: inline scenario source or a named campaign.
    Submit {
        /// Campaign label.
        name: String,
        /// Inline `.scn` source (already resolved for named campaigns).
        scenario: String,
        /// Admission lane.
        priority: Priority,
        /// Per-attempt wall-clock budget override.
        deadline_secs: Option<u64>,
        /// Sweep fan-out override.
        threads: Option<usize>,
    },
    /// Snapshot one job (`Some(id)`) or all jobs (`None`).
    Status(Option<JobId>),
    /// Stream a job's events until it reaches a terminal state.
    Watch(JobId),
    /// Cancel a queued or running job.
    Cancel(JobId),
    /// Stop admitting and block until all work has settled.
    Drain,
    /// Fetch a completed job's result rows.
    Result(JobId),
}

impl Request {
    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// A human-readable diagnostic (sent back as an `error` response)
    /// for unknown ops, missing fields, or mistyped values.
    pub fn parse(v: &Value) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request has no string `op` field")?;
        let id = || {
            v.get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("op `{op}` needs a numeric `id`"))
        };
        match op {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let scenario = match (v.get("scenario"), v.get("campaign")) {
                    (Some(s), None) => s.as_str().ok_or("`scenario` must be a string")?.to_string(),
                    (None, Some(c)) => {
                        let name = c.as_str().ok_or("`campaign` must be a string")?;
                        crate::corpus::campaign(name)
                            .ok_or_else(|| {
                                format!(
                                    "unknown campaign `{name}` (have: {})",
                                    crate::corpus::names().join(", ")
                                )
                            })?
                            .to_string()
                    }
                    (Some(_), Some(_)) => {
                        return Err("give `scenario` or `campaign`, not both".to_string())
                    }
                    (None, None) => {
                        return Err(
                            "submit needs `scenario` source or a `campaign` name".to_string()
                        )
                    }
                };
                let name = v
                    .get("name")
                    .map(|n| n.as_str().ok_or("`name` must be a string"))
                    .transpose()?
                    .unwrap_or_else(|| v.get("campaign").and_then(Value::as_str).unwrap_or("job"))
                    .to_string();
                let priority = match v.get("priority") {
                    None => Priority::Normal,
                    Some(p) => {
                        let p = p.as_str().ok_or("`priority` must be a string")?;
                        Priority::parse(p)
                            .ok_or_else(|| format!("unknown priority `{p}` (high/normal/low)"))?
                    }
                };
                let deadline_secs = v
                    .get("deadline_secs")
                    .map(|d| d.as_u64().ok_or("`deadline_secs` must be a number"))
                    .transpose()?;
                let threads = v
                    .get("threads")
                    .map(|t| {
                        t.as_u64()
                            .map(|t| t as usize)
                            .ok_or("`threads` must be a number")
                    })
                    .transpose()?;
                Ok(Request::Submit {
                    name,
                    scenario,
                    priority,
                    deadline_secs,
                    threads,
                })
            }
            "status" => match v.get("id") {
                None => Ok(Request::Status(None)),
                Some(_) => Ok(Request::Status(Some(id()?))),
            },
            "watch" => Ok(Request::Watch(id()?)),
            "cancel" => Ok(Request::Cancel(id()?)),
            "drain" => Ok(Request::Drain),
            "result" => Ok(Request::Result(id()?)),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// `{"type":"accepted","id":N}`
#[must_use]
pub fn accepted(id: JobId) -> Value {
    Value::Object(vec![
        ("type".to_string(), Value::String("accepted".to_string())),
        ("id".to_string(), Value::Number(id as f64)),
    ])
}

/// `{"type":"rejected","reason":...,"retry_after_ms":N}`
#[must_use]
pub fn rejected(reason: &str, retry_after_ms: u64) -> Value {
    Value::Object(vec![
        ("type".to_string(), Value::String("rejected".to_string())),
        ("reason".to_string(), Value::String(reason.to_string())),
        (
            "retry_after_ms".to_string(),
            Value::Number(retry_after_ms as f64),
        ),
    ])
}

/// `{"type":"status","jobs":[...]}`
#[must_use]
pub fn status(jobs: Vec<Value>) -> Value {
    Value::Object(vec![
        ("type".to_string(), Value::String("status".to_string())),
        ("jobs".to_string(), Value::Array(jobs)),
    ])
}

/// `{"type":"event",...}` — one watch-stream entry.
#[must_use]
pub fn event(body: &Value) -> Value {
    let mut obj = vec![("type".to_string(), Value::String("event".to_string()))];
    if let Value::Object(fields) = body {
        obj.extend(fields.iter().cloned());
    }
    Value::Object(obj)
}

/// `{"type":"done"}` — end of a watch stream or a finished drain.
#[must_use]
pub fn done() -> Value {
    Value::Object(vec![(
        "type".to_string(),
        Value::String("done".to_string()),
    )])
}

/// `{"type":"error","msg":...}`
#[must_use]
pub fn error(msg: &str) -> Value {
    Value::Object(vec![
        ("type".to_string(), Value::String("error".to_string())),
        ("msg".to_string(), Value::String(msg.to_string())),
    ])
}

/// `{"type":"result","id":N,"rows":[...]}`
#[must_use]
pub fn result(id: JobId, rows: Value) -> Value {
    Value::Object(vec![
        ("type".to_string(), Value::String("result".to_string())),
        ("id".to_string(), Value::Number(id as f64)),
        ("rows".to_string(), rows),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::json;

    fn parse_req(text: &str) -> Result<Request, String> {
        Request::parse(&json::parse(text).unwrap())
    }

    #[test]
    fn requests_parse_and_malformed_ones_diagnose() {
        assert_eq!(parse_req("{\"op\":\"ping\"}"), Ok(Request::Ping));
        assert_eq!(parse_req("{\"op\":\"status\"}"), Ok(Request::Status(None)));
        assert_eq!(
            parse_req("{\"op\":\"cancel\",\"id\":4}"),
            Ok(Request::Cancel(4))
        );
        match parse_req(
            "{\"op\":\"submit\",\"name\":\"x\",\"scenario\":\"grid 4 4;\",\"priority\":\"high\"}",
        ) {
            Ok(Request::Submit { name, priority, .. }) => {
                assert_eq!(name, "x");
                assert_eq!(priority, Priority::High);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_req("{\"op\":\"submit\"}")
            .unwrap_err()
            .contains("scenario"));
        assert!(parse_req("{\"op\":\"watch\"}").unwrap_err().contains("id"));
        assert!(parse_req("{\"op\":\"warp\"}")
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_req("{}").unwrap_err().contains("op"));
        assert!(parse_req("{\"op\":\"submit\",\"campaign\":\"nope\"}")
            .unwrap_err()
            .contains("unknown campaign"));
    }

    #[test]
    fn named_campaigns_resolve_to_corpus_source() {
        match parse_req("{\"op\":\"submit\",\"campaign\":\"latency_throughput\"}") {
            Ok(Request::Submit { name, scenario, .. }) => {
                assert_eq!(name, "latency_throughput");
                assert!(scenario.contains("sweep load"));
            }
            other => panic!("{other:?}"),
        }
    }
}
