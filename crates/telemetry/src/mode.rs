//! Run-time modes: how often an optional check or measurement runs.
//!
//! One type, [`Cadence`], serves both run-time modes of the simulator:
//! the invariant guards (`adaptnoc_sim::health::GuardMode`) and telemetry
//! collection ([`TelemetryMode`]). Both aliases name the same enum, so the
//! two share one grammar ([`Cadence::parse`]) and one environment reader
//! ([`Cadence::from_env`]). `Network::new` is the only place either
//! environment variable is read:
//!
//! | variable | default | grammar |
//! |---|---|---|
//! | `ADAPTNOC_GUARDS` | `sampled:1024` | [`GRAMMAR`] |
//! | `ADAPTNOC_TELEMETRY` | `off` | [`GRAMMAR`] |
//!
//! A set but malformed value is an error naming the variable, never a
//! silent fall-back to the default.

/// The accepted spellings, as quoted in parse errors.
pub const GRAMMAR: &str = "off|0|none, strict|full|debug, sampled (= sampled:1024) or sampled:N";

/// How often an optional per-cycle activity runs.
///
/// For telemetry the cadence governs only the *expensive* instrumentation
/// — wall-clock span timing of simulator stages, taken on every cycle
/// under [`Strict`](Cadence::Strict) and on every `n`-th cycle under
/// [`Sampled(n)`](Cadence::Sampled). Counters, gauges, histograms and
/// events are exact in every active mode (they are branch-plus-add cheap
/// and sampling them would make them lies). Under [`Off`](Cadence::Off)
/// no registry exists at all and the hot path pays one `Option` branch
/// per site.
///
/// For the invariant guards, `Strict` sweeps every cycle and panics on
/// the first violation; `Sampled(n)` sweeps every `n`-th cycle and only
/// counts violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Never runs. The telemetry default: no registry is allocated.
    Off,
    /// Runs every `n` cycles. `Sampled(1024)` is the guard default, the
    /// cheap always-on choice for long campaigns.
    Sampled(u32),
    /// Runs every cycle. For deep dives and the strict CI jobs;
    /// measurably slows stepping.
    Strict,
}

/// The telemetry collection mode.
pub type TelemetryMode = Cadence;

impl Cadence {
    /// Parses [`GRAMMAR`], ignoring case and surrounding whitespace.
    /// `sampled:0` means off. Returns `None` for anything else.
    pub fn parse(raw: &str) -> Option<Cadence> {
        let s = raw.trim().to_ascii_lowercase();
        match s.as_str() {
            "off" | "0" | "none" => Some(Cadence::Off),
            "strict" | "full" | "debug" => Some(Cadence::Strict),
            "sampled" => Some(Cadence::Sampled(1024)),
            _ => {
                let n: u32 = s.strip_prefix("sampled:")?.parse().ok()?;
                Some(if n == 0 {
                    Cadence::Off
                } else {
                    Cadence::Sampled(n)
                })
            }
        }
    }

    /// The cadence the environment variable `var` asks for, or `default`
    /// when it is unset.
    ///
    /// # Errors
    ///
    /// A message naming `var`, its value and [`GRAMMAR`] when the variable
    /// is set but does not parse (including non-Unicode values).
    pub fn from_env(var: &str, default: Cadence) -> Result<Cadence, String> {
        let Some(raw) = std::env::var_os(var) else {
            return Ok(default);
        };
        raw.to_str()
            .and_then(Self::parse)
            .ok_or_else(|| format!("{var}={raw:?} is not a mode; expected {GRAMMAR}"))
    }

    /// Whether the activity runs at all in this mode.
    pub fn is_active(self) -> bool {
        !matches!(self, Cadence::Off)
    }

    /// The interval in cycles: `0` for off, `1` for strict, `n` for
    /// sampled. Exported alongside counts so consumers can tell exact
    /// statistics from sampled ones.
    pub fn interval(self) -> u32 {
        match self {
            Cadence::Off => 0,
            Cadence::Strict => 1,
            Cadence::Sampled(n) => n,
        }
    }

    /// A stable lowercase name for exports: `off`, `sampled:N`, `strict`.
    pub fn label(self) -> String {
        match self {
            Cadence::Off => "off".to_string(),
            Cadence::Strict => "strict".to_string(),
            Cadence::Sampled(n) => format!("sampled:{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_grammar_and_nothing_else() {
        for off in ["off", "0", " none ", "sampled:0"] {
            assert_eq!(Cadence::parse(off), Some(Cadence::Off), "{off}");
        }
        for strict in ["strict", "FULL", "debug"] {
            assert_eq!(Cadence::parse(strict), Some(Cadence::Strict), "{strict}");
        }
        assert_eq!(Cadence::parse("sampled"), Some(Cadence::Sampled(1024)));
        assert_eq!(Cadence::parse(" sampled:64 "), Some(Cadence::Sampled(64)));
        for bad in ["bogus", "stirct", "sampled:x", "sampled:-1", ""] {
            assert_eq!(Cadence::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn interval_and_activity() {
        assert_eq!(Cadence::Off.interval(), 0);
        assert_eq!(Cadence::Strict.interval(), 1);
        assert_eq!(Cadence::Sampled(256).interval(), 256);
        assert!(!Cadence::Off.is_active());
        assert!(Cadence::Strict.is_active());
        assert!(Cadence::Sampled(1).is_active());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Cadence::Off.label(), "off");
        assert_eq!(Cadence::Strict.label(), "strict");
        assert_eq!(Cadence::Sampled(8).label(), "sampled:8");
    }
}
