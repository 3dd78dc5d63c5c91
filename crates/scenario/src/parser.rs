//! Recursive-descent parser for scenario files.
//!
//! ```text
//! scenario  := { stmt }
//! stmt      := directive ';' | event ';'
//! directive := 'grid' INT INT
//!            | 'chiplet' INT INT INT INT            (chips_x chips_y chip_w chip_h)
//!              [ 'latency' INT ] [ 'links' INT ]
//!            | 'seed' INT
//!            | 'warmup' TIME | 'duration' TIME | 'epoch' TIME
//!            | 'region' NAME INT INT INT INT        (x y w h)
//!            | 'sweep' 'load' NUM 'to' NUM 'step' NUM
//! event     := 't' '=' TIME action
//! action    := traffic | fault | reconfig
//! traffic   := pattern ('load'|'rate') (NUM | 'sweep')
//!              [ 'poisson' | 'bernoulli' | 'mmpp' NUM NUM NUM ]
//!              [ 'ramp' 'to' NUM 'over' TIME
//!              | 'diurnal' NUM 'period' TIME
//!              | 'burst' NUM 'every' TIME 'for' TIME ]
//!              [ 'in' 'region' NAME ]
//! pattern   := 'uniform' | 'transpose' | 'neighbor' | 'zipf' NUM
//!            | 'hotspot' ('node' INT | 'region' NAME)
//! fault     := 'kill' 'router' INT
//!            | 'kill' 'link' INT '->' INT
//!            | 'glitch' 'link' INT '->' INT 'for' TIME
//! reconfig  := 'reconfigure' 'region' NAME [ 'to' TOPO ]
//! TOPO      := 'mesh' | 'cmesh' | 'torus' | 'tree'
//! TIME      := INT        (with optional K/M/G suffix, applied by the lexer)
//! NUM       := INT | FLOAT
//! ```
//!
//! `rate` is accepted as an alias for `load` (canonical form prints
//! `load`); a missing reconfigure target defaults to `mesh`. The
//! `chiplet` directive also sets the grid to its tile footprint, so it
//! needs no separate `grid` line.

use crate::ast::{Action, Event, FabricAst, LoadAst, PatternAst, Scenario, Sweep, TrafficCmd};
use crate::lexer::{lex, LexError, Spanned, Token};
use adaptnoc_topology::geom::Rect;
use adaptnoc_topology::regions::TopologyKind;
use adaptnoc_workloads::open::{Arrival, RateShape};
use std::fmt;

/// A parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// 1-based source line (0 for end-of-input).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "end of input: {}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            line: e.line,
        }
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |s| s.line)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            line: if self.pos < self.toks.len() {
                self.line()
            } else {
                0
            },
        }
    }

    fn next(&mut self, what: &str) -> Result<Token, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|s| s.tok.clone())
            .ok_or_else(|| self.err(format!("expected {what}")))?;
        self.pos += 1;
        Ok(t)
    }

    /// Consumes the next token if it is the identifier `kw`.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(match self.peek() {
                Some(t) => self.err(format!("expected `{kw}`, found {t}")),
                None => self.err(format!("expected `{kw}`")),
            })
        }
    }

    fn expect(&mut self, tok: Token) -> Result<(), ParseError> {
        match self.next(&format!("{tok}"))? {
            t if t == tok => Ok(()),
            t => Err(self.err_prev(format!("expected {tok}, found {t}"))),
        }
    }

    /// Like [`Parser::err`] but anchored to the token just consumed.
    fn err_prev(&self, msg: String) -> ParseError {
        ParseError {
            msg,
            line: self
                .toks
                .get(self.pos.saturating_sub(1))
                .map_or(0, |s| s.line),
        }
    }

    fn name(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next(what)? {
            Token::Ident(s) => Ok(s),
            t => Err(self.err_prev(format!("expected {what}, found {t}"))),
        }
    }

    fn int(&mut self, what: &str) -> Result<u64, ParseError> {
        match self.next(what)? {
            Token::Int(n) => Ok(n),
            t => Err(self.err_prev(format!("expected {what}, found {t}"))),
        }
    }

    fn num(&mut self, what: &str) -> Result<f64, ParseError> {
        match self.next(what)? {
            Token::Int(n) => Ok(n as f64),
            Token::Float(x) => Ok(x),
            t => Err(self.err_prev(format!("expected {what}, found {t}"))),
        }
    }

    fn small(&mut self, what: &str, max: u64) -> Result<u64, ParseError> {
        let v = self.int(what)?;
        if v > max {
            return Err(self.err_prev(format!("{what} {v} exceeds {max}")));
        }
        Ok(v)
    }

    fn pattern(&mut self) -> Result<PatternAst, ParseError> {
        let kw = self.name("a traffic pattern")?;
        Ok(match kw.as_str() {
            "uniform" => PatternAst::Uniform,
            "transpose" => PatternAst::Transpose,
            "neighbor" => PatternAst::Neighbor,
            "zipf" => PatternAst::Zipf(self.num("a zipf exponent")?),
            "hotspot" => {
                if self.eat_kw("node") {
                    PatternAst::HotspotNode(self.small("a node id", u16::MAX as u64)? as u16)
                } else if self.eat_kw("region") {
                    PatternAst::HotspotRegion(self.name("a region name")?)
                } else {
                    return Err(self.err("expected `node` or `region` after `hotspot`"));
                }
            }
            other => return Err(self.err_prev(format!("unknown traffic pattern `{other}`"))),
        })
    }

    fn traffic(&mut self) -> Result<TrafficCmd, ParseError> {
        let pattern = self.pattern()?;
        if !self.eat_kw("load") && !self.eat_kw("rate") {
            return Err(self.err("expected `load` after the traffic pattern"));
        }
        let load = if self.eat_kw("sweep") {
            LoadAst::Sweep
        } else {
            LoadAst::Fixed(self.num("a load value")?)
        };
        let arrival = if self.eat_kw("poisson") {
            Arrival::Poisson
        } else if self.eat_kw("mmpp") {
            Arrival::Mmpp {
                burst: self.num("an mmpp burst factor")?,
                p_on: self.num("an mmpp on-probability")?,
                p_off: self.num("an mmpp off-probability")?,
            }
        } else {
            self.eat_kw("bernoulli");
            Arrival::Bernoulli
        };
        let shape = if self.eat_kw("ramp") {
            self.expect_kw("to")?;
            let rate = self.num("a target rate")?;
            self.expect_kw("over")?;
            RateShape::RampTo {
                rate,
                over: self.int("a ramp duration")?,
            }
        } else if self.eat_kw("diurnal") {
            let amplitude = self.num("a diurnal amplitude")?;
            self.expect_kw("period")?;
            RateShape::Diurnal {
                amplitude,
                period: self.int("a diurnal period")?,
            }
        } else if self.eat_kw("burst") {
            let factor = self.num("a burst factor")?;
            self.expect_kw("every")?;
            let every = self.int("a burst interval")?;
            self.expect_kw("for")?;
            RateShape::Burst {
                factor,
                every,
                len: self.int("a burst length")?,
            }
        } else {
            RateShape::Constant
        };
        let region = if self.eat_kw("in") {
            self.expect_kw("region")?;
            Some(self.name("a region name")?)
        } else {
            None
        };
        Ok(TrafficCmd {
            pattern,
            load,
            arrival,
            shape,
            region,
        })
    }

    fn action(&mut self) -> Result<Action, ParseError> {
        if self.eat_kw("kill") {
            if self.eat_kw("router") {
                return Ok(Action::KillRouter(
                    self.small("a router id", u16::MAX as u64)? as u16,
                ));
            }
            self.expect_kw("link")?;
            let from = self.small("a router id", u16::MAX as u64)? as u16;
            self.expect(Token::Arrow)?;
            let to = self.small("a router id", u16::MAX as u64)? as u16;
            return Ok(Action::KillLink { from, to });
        }
        if self.eat_kw("glitch") {
            self.expect_kw("link")?;
            let from = self.small("a router id", u16::MAX as u64)? as u16;
            self.expect(Token::Arrow)?;
            let to = self.small("a router id", u16::MAX as u64)? as u16;
            self.expect_kw("for")?;
            let duration = self.int("an outage duration")?;
            return Ok(Action::GlitchLink { from, to, duration });
        }
        if self.eat_kw("reconfigure") {
            self.expect_kw("region")?;
            let region = self.name("a region name")?;
            let to = if self.eat_kw("to") {
                match self.name("a topology")?.as_str() {
                    "mesh" => TopologyKind::Mesh,
                    "cmesh" => TopologyKind::Cmesh,
                    "torus" => TopologyKind::Torus,
                    "tree" => TopologyKind::Tree,
                    other => {
                        return Err(self.err_prev(format!("unknown topology `{other}`")));
                    }
                }
            } else {
                TopologyKind::Mesh
            };
            return Ok(Action::Reconfigure { region, to });
        }
        Ok(Action::Traffic(self.traffic()?))
    }

    fn parse(&mut self) -> Result<Scenario, ParseError> {
        let mut sc = Scenario::default();
        while self.peek().is_some() {
            if self.eat_kw("grid") {
                let w = self.small("a grid width", 64)?;
                let h = self.small("a grid height", 64)?;
                if w == 0 || h == 0 {
                    return Err(self.err_prev("grid dimensions must be positive".into()));
                }
                sc.grid = (w as u8, h as u8);
            } else if self.eat_kw("chiplet") {
                let defaults = FabricAst::default();
                let mut fb = FabricAst {
                    chips_x: self.small("a chip-grid width", 8)? as u8,
                    chips_y: self.small("a chip-grid height", 8)? as u8,
                    chip_w: self.small("a chip tile width", 16)? as u8,
                    chip_h: self.small("a chip tile height", 16)? as u8,
                    ..defaults
                };
                if fb.chips_x == 0 || fb.chips_y == 0 || fb.chip_w == 0 || fb.chip_h == 0 {
                    return Err(self.err_prev("chiplet dimensions must be positive".into()));
                }
                if self.eat_kw("latency") {
                    fb.link_latency = self.small("an inter-chip link latency", 255)? as u8;
                    if fb.link_latency == 0 {
                        return Err(self.err_prev("link latency must be positive".into()));
                    }
                }
                if self.eat_kw("links") {
                    fb.links_per_edge = self.small("a links-per-edge count", 16)? as u8;
                    if fb.links_per_edge == 0 {
                        return Err(self.err_prev("links per edge must be positive".into()));
                    }
                }
                let gw = fb.chips_x as u64 * fb.chip_w as u64;
                let gh = fb.chips_y as u64 * fb.chip_h as u64;
                if gw > 64 || gh > 64 {
                    return Err(self.err_prev(format!("chiplet footprint {gw}x{gh} exceeds 64x64")));
                }
                sc.grid = (gw as u8, gh as u8);
                sc.fabric = Some(fb);
            } else if self.eat_kw("seed") {
                sc.seed = self.int("a seed")?;
            } else if self.eat_kw("warmup") {
                sc.warmup = self.int("a warmup length")?;
            } else if self.eat_kw("duration") {
                sc.duration = self.int("a duration")?;
            } else if self.eat_kw("epoch") {
                sc.epoch = self.int("an epoch length")?;
            } else if self.eat_kw("region") {
                let name = self.name("a region name")?;
                let x = self.small("a region x", 63)? as u8;
                let y = self.small("a region y", 63)? as u8;
                let w = self.small("a region width", 64)? as u8;
                let h = self.small("a region height", 64)? as u8;
                sc.regions.push((name, Rect::new(x, y, w, h)));
            } else if self.eat_kw("sweep") {
                self.expect_kw("load")?;
                let from = self.num("a sweep start")?;
                self.expect_kw("to")?;
                let to = self.num("a sweep end")?;
                self.expect_kw("step")?;
                let step = self.num("a sweep step")?;
                sc.sweep = Some(Sweep { from, to, step });
            } else if self.eat_kw("t") {
                self.expect(Token::Eq)?;
                let at = self.int("an event time")?;
                let action = self.action()?;
                sc.events.push(Event { at, action });
            } else {
                return Err(match self.peek() {
                    Some(t) => self.err(format!("expected a directive or `t=TIME`, found {t}")),
                    None => self.err("expected a directive or `t=TIME`"),
                });
            }
            self.expect(Token::Semi)?;
        }
        Ok(sc)
    }
}

/// Parses scenario text into a [`Scenario`].
///
/// # Errors
///
/// Returns [`ParseError`] (with a source line) on lexical or syntactic
/// problems. Semantic checks (region names, grid fits, sweep usage) live
/// in [`crate::rules::compile`].
pub fn parse(src: &str) -> Result<Scenario, ParseError> {
    Parser {
        toks: lex(src)?,
        pos: 0,
    }
    .parse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_example_parses() {
        let sc = parse(
            "region B 4 4 4 4;\n\
             t=0 uniform load 0.3;\n\
             t=2M hotspot region B rate 0.9;\n\
             t=4M kill router 12;\n\
             t=5M reconfigure region B;\n",
        )
        .unwrap();
        assert_eq!(sc.events.len(), 4);
        assert_eq!(
            sc.events[1].action,
            Action::Traffic(TrafficCmd {
                pattern: PatternAst::HotspotRegion("B".into()),
                load: LoadAst::Fixed(0.9),
                arrival: Arrival::Bernoulli,
                shape: RateShape::Constant,
                region: None,
            })
        );
        assert_eq!(sc.events[2].at, 4_000_000);
        assert_eq!(
            sc.events[3].action,
            Action::Reconfigure {
                region: "B".into(),
                to: TopologyKind::Mesh,
            }
        );
    }

    #[test]
    fn full_traffic_clause() {
        let sc = parse(
            "t=10K zipf 1.2 load sweep mmpp 4 0.01 0.05 \
             burst 2 every 50K for 5K in region A;",
        )
        .unwrap();
        let Action::Traffic(t) = &sc.events[0].action else {
            panic!("not traffic");
        };
        assert_eq!(t.pattern, PatternAst::Zipf(1.2));
        assert_eq!(t.load, LoadAst::Sweep);
        assert_eq!(
            t.arrival,
            Arrival::Mmpp {
                burst: 4.0,
                p_on: 0.01,
                p_off: 0.05
            }
        );
        assert_eq!(
            t.shape,
            RateShape::Burst {
                factor: 2.0,
                every: 50_000,
                len: 5_000
            }
        );
        assert_eq!(t.region.as_deref(), Some("A"));
    }

    #[test]
    fn directives_override_defaults() {
        let sc = parse("grid 4 4; seed 9; warmup 1K; duration 5K; epoch 500;").unwrap();
        assert_eq!(sc.grid, (4, 4));
        assert_eq!(sc.seed, 9);
        assert_eq!(sc.warmup, 1_000);
        assert_eq!(sc.duration, 5_000);
        assert_eq!(sc.epoch, 500);
    }

    #[test]
    fn errors_point_at_lines() {
        let e = parse("seed 1;\nt=0 uniform speed 0.3;").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("load"), "{}", e.msg);
        assert!(parse("t=0 kill link 3 7;").is_err(), "missing arrow");
        assert!(parse("grid 0 4;").is_err(), "zero grid");
        assert!(parse("t=0 uniform load 0.3").is_err(), "missing semicolon");
    }

    #[test]
    fn chiplet_directive_sets_fabric_and_grid() {
        let sc = parse("chiplet 2 2 4 4 latency 6 links 1;\nt=0 uniform load 0.1;").unwrap();
        let fb = sc.fabric.expect("fabric set");
        assert_eq!((fb.chips_x, fb.chips_y, fb.chip_w, fb.chip_h), (2, 2, 4, 4));
        assert_eq!(fb.link_latency, 6);
        assert_eq!(fb.links_per_edge, 1);
        assert_eq!(sc.grid, (8, 8), "grid derived from the fabric footprint");
        // Canonical form round-trips.
        let sc2 = parse(&sc.to_string()).unwrap();
        assert_eq!(sc, sc2);
        // Latency/links are optional and default like FabricAst.
        let sc = parse("chiplet 2 1 4 4;").unwrap();
        let fb = sc.fabric.unwrap();
        assert_eq!(fb.link_latency, FabricAst::default().link_latency);
        assert_eq!(fb.links_per_edge, FabricAst::default().links_per_edge);
        // Footprint must stay on the u8 grid.
        assert!(parse("chiplet 8 8 16 16;").is_err(), "128x128 footprint");
        assert!(parse("chiplet 0 2 4 4;").is_err(), "zero chips");
    }

    #[test]
    fn round_trip_of_canonical_form() {
        let src = "grid 6 6; seed 3; region A 0 0 3 6; region B 3 0 3 6;\n\
                   sweep load 0.05 to 0.5 step 0.05;\n\
                   t=0 uniform load sweep poisson;\n\
                   t=50K hotspot region B load 0.8 ramp to 1.5 over 20K;\n\
                   t=80K glitch link 3 -> 9 for 2K;\n\
                   t=90K reconfigure region A to cmesh;";
        let sc = parse(src).unwrap();
        let sc2 = parse(&sc.to_string()).unwrap();
        assert_eq!(sc, sc2);
    }
}
