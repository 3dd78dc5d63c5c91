//! Daemon configuration: a minimal TOML subset plus environment
//! overrides.
//!
//! The daemon reads an optional TOML file (`farmd --config farm.toml`)
//! and then applies environment variables of the form
//! `ADAPTNOC__SECTION__KEY` — a double underscore separates nesting
//! levels, so `ADAPTNOC__FARM__QUEUE_CAPACITY=256` overrides
//! `queue_capacity` in the `[farm]` section. Every value remembers where
//! it came from, so a bad value reports *which* file line or env var to
//! fix instead of a bare parse error.
//!
//! The TOML subset is what the config needs and nothing more:
//! `[section]` headers, `key = value` lines with string / integer /
//! float / boolean values, `#` comments, and blank lines. No arrays,
//! no nested tables, no multi-line strings.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

/// A configuration error with enough context to fix the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Human-readable diagnostic (includes provenance).
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ConfigError {}

fn err(msg: impl Into<String>) -> ConfigError {
    ConfigError { msg: msg.into() }
}

/// Parsed-but-untyped configuration: dotted lowercase paths
/// (`farm.workers`) mapped to raw string values plus the provenance of
/// each (file line or env var name).
#[derive(Debug, Clone, Default)]
pub struct RawConfig {
    values: BTreeMap<String, (String, String)>,
}

impl RawConfig {
    /// Parses the supported TOML subset.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending line for unknown
    /// syntax, unterminated strings, or keys outside a section.
    pub fn parse_toml(text: &str, origin: &str) -> Result<RawConfig, ConfigError> {
        let mut cfg = RawConfig::default();
        let mut section = String::new();
        for (lineno, raw_line) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = strip_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| err(format!("{origin}:{lineno}: unterminated [section]")))?;
                section = name.trim().to_lowercase();
                if section.is_empty() {
                    return Err(err(format!("{origin}:{lineno}: empty section name")));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("{origin}:{lineno}: expected `key = value`")))?;
            let key = key.trim().to_lowercase();
            if key.is_empty() {
                return Err(err(format!("{origin}:{lineno}: empty key")));
            }
            if section.is_empty() {
                return Err(err(format!(
                    "{origin}:{lineno}: key `{key}` outside any [section]"
                )));
            }
            let value =
                parse_value(value.trim()).map_err(|e| err(format!("{origin}:{lineno}: {e}")))?;
            cfg.values.insert(
                format!("{section}.{key}"),
                (format!("{origin}:{lineno}"), value),
            );
        }
        Ok(cfg)
    }

    /// Applies `ADAPTNOC__SECTION__KEY`-style overrides from an iterator
    /// of environment pairs. Double underscores separate nesting levels;
    /// names are lowercased, so `ADAPTNOC__FARM__MAX_ATTEMPTS=5` sets
    /// `farm.max_attempts`. Later overrides win over both earlier ones
    /// and file values.
    pub fn apply_env<I>(&mut self, vars: I)
    where
        I: IntoIterator<Item = (String, String)>,
    {
        for (name, value) in vars {
            let Some(rest) = name.strip_prefix("ADAPTNOC__") else {
                continue;
            };
            let path: Vec<&str> = rest.split("__").filter(|p| !p.is_empty()).collect();
            if path.len() < 2 {
                continue;
            }
            let dotted = path.join(".").to_lowercase();
            self.values.insert(dotted, (format!("env {name}"), value));
        }
    }

    /// Sets one dotted path directly (used for command-line overrides,
    /// which outrank both the file and the environment).
    pub fn set(&mut self, dotted: &str, value: &str, origin: &str) {
        self.values.insert(
            dotted.to_lowercase(),
            (origin.to_string(), value.to_string()),
        );
    }

    /// Raw string lookup.
    #[must_use]
    pub fn get_str(&self, dotted: &str) -> Option<&str> {
        self.values.get(dotted).map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(
        &self,
        dotted: &str,
        what: &str,
    ) -> Result<Option<T>, ConfigError> {
        match self.values.get(dotted) {
            None => Ok(None),
            Some((origin, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| err(format!("{dotted}: invalid {what} `{v}` (from {origin})"))),
        }
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Result<String, String> {
    if let Some(body) = v.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {v}"))?;
        if body.contains('"') {
            return Err(format!("embedded quote in {v}"));
        }
        return Ok(body.to_string());
    }
    if v.is_empty() {
        return Err("empty value".to_string());
    }
    // Bare scalars: booleans, integers, floats. Anything else is a
    // syntax error — unquoted strings are not valid TOML and accepting
    // them would mask typos like `listen = 127.0.0.1:4511`.
    if v == "true" || v == "false" || v.parse::<i64>().is_ok() || v.parse::<f64>().is_ok() {
        return Ok(v.to_string());
    }
    Err(format!("unrecognized value `{v}` (quote strings)"))
}

/// The daemon's typed configuration (section `[farm]`).
#[derive(Debug, Clone, PartialEq)]
pub struct FarmConfig {
    /// Listen address: `HOST:PORT`, `tcp://HOST:PORT`, or `unix:PATH`.
    /// Port 0 asks the OS for a free port; the daemon advertises the
    /// resolved address in `<data_dir>/endpoint`.
    pub listen: String,
    /// Where the job journal, per-job checkpoints, results, and the
    /// endpoint file live.
    pub data_dir: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission queue capacity across all priority lanes; submissions
    /// beyond it are shed with `rejected`.
    pub queue_capacity: usize,
    /// Attempts per job before it is declared failed (1 = no retries).
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Deadline applied to jobs that do not carry their own (0 = none).
    pub default_deadline_secs: u64,
    /// How long graceful shutdown waits for workers to checkpoint.
    pub drain_grace_secs: u64,
    /// Threads each job's sweep fans out over.
    pub threads_per_job: usize,
    /// The `retry_after_ms` hint returned with `rejected` responses.
    pub retry_after_ms: u64,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            listen: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("farm-data"),
            workers: 2,
            queue_capacity: 64,
            max_attempts: 3,
            backoff_base_ms: 250,
            backoff_cap_ms: 10_000,
            default_deadline_secs: 0,
            drain_grace_secs: 20,
            threads_per_job: 1,
            retry_after_ms: 1_000,
        }
    }
}

impl FarmConfig {
    /// Types the `[farm]` section of a raw config, filling defaults for
    /// absent keys.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the value's provenance when a
    /// key does not parse or is out of range.
    pub fn from_raw(raw: &RawConfig) -> Result<FarmConfig, ConfigError> {
        let d = FarmConfig::default();
        let cfg = FarmConfig {
            listen: raw.get_str("farm.listen").map_or(d.listen, str::to_string),
            data_dir: raw
                .get_str("farm.data_dir")
                .map_or(d.data_dir, PathBuf::from),
            workers: raw
                .get_parsed("farm.workers", "integer")?
                .unwrap_or(d.workers),
            queue_capacity: raw
                .get_parsed("farm.queue_capacity", "integer")?
                .unwrap_or(d.queue_capacity),
            max_attempts: raw
                .get_parsed("farm.max_attempts", "integer")?
                .unwrap_or(d.max_attempts),
            backoff_base_ms: raw
                .get_parsed("farm.backoff_base_ms", "integer")?
                .unwrap_or(d.backoff_base_ms),
            backoff_cap_ms: raw
                .get_parsed("farm.backoff_cap_ms", "integer")?
                .unwrap_or(d.backoff_cap_ms),
            default_deadline_secs: raw
                .get_parsed("farm.default_deadline_secs", "integer")?
                .unwrap_or(d.default_deadline_secs),
            drain_grace_secs: raw
                .get_parsed("farm.drain_grace_secs", "integer")?
                .unwrap_or(d.drain_grace_secs),
            threads_per_job: raw
                .get_parsed("farm.threads_per_job", "integer")?
                .unwrap_or(d.threads_per_job),
            retry_after_ms: raw
                .get_parsed("farm.retry_after_ms", "integer")?
                .unwrap_or(d.retry_after_ms),
        };
        if cfg.workers == 0 {
            return Err(err("farm.workers: must be at least 1"));
        }
        if cfg.queue_capacity == 0 {
            return Err(err("farm.queue_capacity: must be at least 1"));
        }
        if cfg.max_attempts == 0 {
            return Err(err("farm.max_attempts: must be at least 1"));
        }
        Ok(cfg)
    }

    /// Loads configuration with the standard precedence: defaults, then
    /// the TOML file (if given), then `ADAPTNOC__` environment
    /// overrides from the process environment.
    ///
    /// # Errors
    ///
    /// I/O errors reading an explicitly named file, or any
    /// [`ConfigError`] from parsing/typing.
    pub fn load(path: Option<&std::path::Path>) -> Result<FarmConfig, ConfigError> {
        let mut raw = match path {
            Some(p) => {
                let text =
                    std::fs::read_to_string(p).map_err(|e| err(format!("{}: {e}", p.display())))?;
                RawConfig::parse_toml(&text, &p.display().to_string())?
            }
            None => RawConfig::default(),
        };
        raw.apply_env(std::env::vars());
        FarmConfig::from_raw(&raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_subset_parses_sections_values_and_comments() {
        let raw = RawConfig::parse_toml(
            "# top comment\n[farm]\nworkers = 4  # trailing\nlisten = \"unix:/tmp/f.sock\" \n\
             queue_capacity = 8\n\n[other]\nflag = true\nratio = 0.5\n",
            "test.toml",
        )
        .unwrap();
        assert_eq!(raw.get_str("farm.workers"), Some("4"));
        assert_eq!(raw.get_str("farm.listen"), Some("unix:/tmp/f.sock"));
        assert_eq!(raw.get_str("other.flag"), Some("true"));
        assert_eq!(raw.get_str("other.ratio"), Some("0.5"));
        let cfg = FarmConfig::from_raw(&raw).unwrap();
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.queue_capacity, 8);
        assert_eq!(cfg.max_attempts, FarmConfig::default().max_attempts);
    }

    #[test]
    fn syntax_errors_name_the_line() {
        let e = RawConfig::parse_toml("[farm]\nworkers 4\n", "f.toml").unwrap_err();
        assert!(e.msg.contains("f.toml:2"), "{e}");
        let e = RawConfig::parse_toml("workers = 4\n", "f.toml").unwrap_err();
        assert!(e.msg.contains("outside any [section]"), "{e}");
        let e = RawConfig::parse_toml("[farm]\nlisten = 127.0.0.1:0\n", "f.toml").unwrap_err();
        assert!(e.msg.contains("quote strings"), "{e}");
    }

    #[test]
    fn env_overrides_nest_with_double_underscores_and_win() {
        let mut raw = RawConfig::parse_toml("[farm]\nworkers = 4\n", "f.toml").unwrap();
        raw.apply_env([
            ("ADAPTNOC__FARM__WORKERS".to_string(), "9".to_string()),
            (
                "ADAPTNOC__FARM__BACKOFF_BASE_MS".to_string(),
                "5".to_string(),
            ),
            ("ADAPTNOC_GUARDS".to_string(), "strict".to_string()), // not ours
            ("PATH".to_string(), "/usr/bin".to_string()),
        ]);
        let cfg = FarmConfig::from_raw(&raw).unwrap();
        assert_eq!(cfg.workers, 9);
        assert_eq!(cfg.backoff_base_ms, 5);
    }

    #[test]
    fn bad_values_report_their_provenance() {
        let mut raw = RawConfig::default();
        raw.apply_env([("ADAPTNOC__FARM__WORKERS".to_string(), "lots".to_string())]);
        let e = FarmConfig::from_raw(&raw).unwrap_err();
        assert!(
            e.msg.contains("env ADAPTNOC__FARM__WORKERS"),
            "provenance in {e}"
        );
        let raw = RawConfig::parse_toml("[farm]\nmax_attempts = 0\n", "f.toml").unwrap();
        assert!(FarmConfig::from_raw(&raw)
            .unwrap_err()
            .msg
            .contains("at least 1"));
    }
}
