//! Tokenizer for scenario files.
//!
//! The surface syntax is deliberately tiny: identifiers/keywords,
//! non-negative integer and decimal literals, `=`, `;`, `->`, and `#`
//! line comments. Integer literals take an optional decimal magnitude
//! suffix (`K` = 1e3, `M` = 1e6, `G` = 1e9) so event times read like
//! `t=2M` instead of `t=2000000`.

use std::fmt;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// An identifier or keyword (`uniform`, `region`, `B`, ...).
    Ident(String),
    /// A non-negative integer, magnitude suffix already applied.
    Int(u64),
    /// A non-negative decimal number.
    Float(f64),
    /// `=`
    Eq,
    /// `;`
    Semi,
    /// `->`
    Arrow,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Int(n) => write!(f, "`{n}`"),
            Token::Float(x) => write!(f, "`{x}`"),
            Token::Eq => f.write_str("`=`"),
            Token::Semi => f.write_str("`;`"),
            Token::Arrow => f.write_str("`->`"),
        }
    }
}

/// A token with the 1-based source line it started on.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Token,
    /// 1-based source line.
    pub line: usize,
}

/// A lexical error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub msg: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LexError {}

fn magnitude(c: char) -> Option<u64> {
    match c {
        'K' => Some(1_000),
        'M' => Some(1_000_000),
        'G' => Some(1_000_000_000),
        _ => None,
    }
}

/// Tokenizes `src`.
///
/// # Errors
///
/// Returns [`LexError`] on an unexpected character or malformed number.
pub(crate) fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut it = src.chars().peekable();
    while let Some(&c) = it.peek() {
        match c {
            '\n' => {
                line += 1;
                it.next();
            }
            c if c.is_whitespace() => {
                it.next();
            }
            '#' => {
                for c in it.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '=' => {
                it.next();
                out.push(Spanned {
                    tok: Token::Eq,
                    line,
                });
            }
            ';' => {
                it.next();
                out.push(Spanned {
                    tok: Token::Semi,
                    line,
                });
            }
            '-' => {
                it.next();
                if it.peek() == Some(&'>') {
                    it.next();
                    out.push(Spanned {
                        tok: Token::Arrow,
                        line,
                    });
                } else {
                    return Err(LexError {
                        msg: "expected `->` after `-`".into(),
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while it.peek().is_some_and(|c| c.is_ascii_digit()) {
                    text.push(it.next().unwrap());
                }
                if it.peek() == Some(&'.') {
                    text.push(it.next().unwrap());
                    if !it.peek().is_some_and(|c| c.is_ascii_digit()) {
                        return Err(LexError {
                            msg: format!("digits must follow `.` in `{text}`"),
                            line,
                        });
                    }
                    while it.peek().is_some_and(|c| c.is_ascii_digit()) {
                        text.push(it.next().unwrap());
                    }
                    let v: f64 = text.parse().map_err(|_| LexError {
                        msg: format!("bad number `{text}`"),
                        line,
                    })?;
                    out.push(Spanned {
                        tok: Token::Float(v),
                        line,
                    });
                } else {
                    let v: u64 = text.parse().map_err(|_| LexError {
                        msg: format!("integer `{text}` out of range"),
                        line,
                    })?;
                    let v = match it.peek().copied().and_then(magnitude) {
                        Some(m) => {
                            it.next();
                            if it.peek().is_some_and(|c| c.is_alphanumeric() || *c == '_') {
                                return Err(LexError {
                                    msg: "magnitude suffix must end the number".into(),
                                    line,
                                });
                            }
                            v.checked_mul(m).ok_or_else(|| LexError {
                                msg: format!("integer `{text}` with suffix out of range"),
                                line,
                            })?
                        }
                        None => v,
                    };
                    out.push(Spanned {
                        tok: Token::Int(v),
                        line,
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut text = String::new();
                while it
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_')
                {
                    text.push(it.next().unwrap());
                }
                out.push(Spanned {
                    tok: Token::Ident(text),
                    line,
                });
            }
            other => {
                return Err(LexError {
                    msg: format!("unexpected character `{other}`"),
                    line,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_stream() {
        assert_eq!(
            toks("t=2M hotspot region B load 0.9;"),
            vec![
                Token::Ident("t".into()),
                Token::Eq,
                Token::Int(2_000_000),
                Token::Ident("hotspot".into()),
                Token::Ident("region".into()),
                Token::Ident("B".into()),
                Token::Ident("load".into()),
                Token::Float(0.9),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn magnitude_suffixes() {
        assert_eq!(
            toks("1K 2M 3G 4"),
            vec![
                Token::Int(1_000),
                Token::Int(2_000_000),
                Token::Int(3_000_000_000),
                Token::Int(4),
            ]
        );
    }

    #[test]
    fn arrow_and_comments() {
        assert_eq!(
            toks("kill link 3 -> 7; # boom\nseed 1;"),
            vec![
                Token::Ident("kill".into()),
                Token::Ident("link".into()),
                Token::Int(3),
                Token::Arrow,
                Token::Int(7),
                Token::Semi,
                Token::Ident("seed".into()),
                Token::Int(1),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = lex("seed 1;\n@").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(lex("1Mx").is_err(), "suffix must terminate the literal");
        assert!(lex("1.").is_err(), "dangling decimal point");
        assert!(lex("- 3").is_err(), "bare minus");
    }
}
