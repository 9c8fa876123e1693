//! Hand-written SQL lexer.
//!
//! It scans the input's bytes once, and its tokens borrow from the input:
//! an identifier is a `&str` slice of it, and so is a string literal unless
//! a `''` escape forces an unescaped copy. The parser copies each name once,
//! into the AST. Offsets in error messages are byte offsets.

use std::borrow::Cow;
use std::fmt;
use wsq_common::{Result, WsqError};

/// A lexical token, borrowing from the text it was read from.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Identifier or keyword (keywords are recognized by the parser,
    /// case-insensitively).
    Ident(&'a str),
    /// Integer literal: its magnitude, which may exceed `i64::MAX` by one
    /// so that the parser can read `-9223372036854775808` as `i64::MIN`.
    Int(u64),
    /// Float literal (finite): digits with a fractional part, an
    /// exponent, or both (`2.5`, `1e300`, `6.02E+23`).
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(Cow<'a, str>),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Comma => write!(f, ","),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Dot => write!(f, "."),
            Token::Semi => write!(f, ";"),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
        }
    }
}

/// The character starting at byte `i` of `input` (`i` is a char boundary).
fn char_at(input: &str, i: usize) -> Option<char> {
    input.get(i..).and_then(|rest| rest.chars().next())
}

/// Tokenize SQL text. Comments (`-- …`) run to end of line.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    // About one token per four bytes of SQL: one allocation for a
    // typical statement.
    let mut out = Vec::with_capacity(input.len() / 4 + 1);
    let digits_from = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let next = bytes.get(i + 1).copied();
        let pair = match (b, next) {
            (b'<', Some(b'=')) => Some(Token::LtEq),
            (b'<', Some(b'>')) | (b'!', Some(b'=')) => Some(Token::NotEq),
            (b'>', Some(b'=')) => Some(Token::GtEq),
            _ => None,
        };
        if let Some(tok) = pair {
            out.push(tok);
            i += 2;
            continue;
        }
        let single = match b {
            b',' => Some(Token::Comma),
            b'(' => Some(Token::LParen),
            b')' => Some(Token::RParen),
            b'.' => Some(Token::Dot),
            b';' => Some(Token::Semi),
            b'*' => Some(Token::Star),
            b'+' => Some(Token::Plus),
            b'-' if next != Some(b'-') => Some(Token::Minus),
            b'/' => Some(Token::Slash),
            b'=' => Some(Token::Eq),
            b'<' => Some(Token::Lt),
            b'>' => Some(Token::Gt),
            _ => None,
        };
        if let Some(tok) = single {
            out.push(tok);
            i += 1;
            continue;
        }
        match b {
            b'-' => {
                // `--` comment: skip to the end of the line.
                i = bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |n| i + n);
            }
            b'\'' => {
                // String literal with '' escaping: borrowed unless escaped.
                let start = i + 1;
                let mut escaped = false;
                i = start;
                loop {
                    match bytes.get(i) {
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            escaped = true;
                            i += 2;
                        }
                        Some(b'\'') => break,
                        Some(_) => i += 1,
                        None => {
                            return Err(WsqError::Parse("unterminated string literal".to_string()))
                        }
                    }
                }
                let text = &input[start..i];
                i += 1;
                out.push(Token::Str(if escaped {
                    Cow::Owned(text.replace("''", "'"))
                } else {
                    Cow::Borrowed(text)
                }));
            }
            b'0'..=b'9' => {
                let start = i;
                i = digits_from(i);
                let mut is_float = false;
                // `1.` followed by a non-digit is Int Dot (qualified-name
                // friendly).
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    is_float = true;
                    i = digits_from(i + 1);
                }
                // An exponent, only when digits follow it: `2e` is Int Ident.
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    let sign = usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
                    if bytes.get(i + 1 + sign).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i = digits_from(i + 1 + sign);
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let v = text
                        .parse::<f64>()
                        .map_err(|e| WsqError::Parse(format!("bad float literal '{text}': {e}")))?;
                    if !v.is_finite() {
                        return Err(WsqError::Parse(format!(
                            "bad float literal '{text}': out of range"
                        )));
                    }
                    out.push(Token::Float(v));
                } else {
                    let v = text.parse::<u64>().map_err(|e| {
                        WsqError::Parse(format!("bad integer literal '{text}': {e}"))
                    })?;
                    out.push(Token::Int(v));
                }
            }
            _ => {
                let c = char_at(input, i).unwrap_or(char::REPLACEMENT_CHARACTER);
                if c.is_whitespace() {
                    i += c.len_utf8();
                } else if c.is_alphabetic() || c == '_' {
                    let start = i;
                    while let Some(c) = char_at(input, i) {
                        if !(c.is_alphanumeric() || c == '_') {
                            break;
                        }
                        i += c.len_utf8();
                    }
                    out.push(Token::Ident(&input[start..i]));
                } else {
                    return Err(WsqError::Parse(format!(
                        "unexpected character '{c}' at offset {i}"
                    )));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_wsq_query() {
        let toks = lex("SELECT Name, Count FROM States, WebCount WHERE Name = T1").unwrap();
        assert_eq!(toks.len(), 12);
        assert_eq!(toks[0], Token::Ident("SELECT"));
        assert_eq!(toks[2], Token::Comma);
        assert_eq!(toks[10], Token::Eq);
    }

    #[test]
    fn numbers_ints_and_floats() {
        assert_eq!(
            lex("42 3.25 0.5").unwrap(),
            vec![Token::Int(42), Token::Float(3.25), Token::Float(0.5)]
        );
        // `1.` followed by non-digit is Int Dot (qualified-name friendly).
        assert_eq!(
            lex("1.x").unwrap(),
            vec![Token::Int(1), Token::Dot, Token::Ident("x")]
        );
    }

    #[test]
    fn exponents() {
        assert_eq!(
            lex("1e300 2.5E-3 6e+2 7E0").unwrap(),
            vec![
                Token::Float(1e300),
                Token::Float(2.5e-3),
                Token::Float(600.0),
                Token::Float(7.0)
            ]
        );
        // Without digits after it, an `e` is an identifier.
        assert_eq!(
            lex("2e 3e+x").unwrap(),
            vec![
                Token::Int(2),
                Token::Ident("e"),
                Token::Int(3),
                Token::Ident("e"),
                Token::Plus,
                Token::Ident("x")
            ]
        );
        assert!(lex("1e400").is_err(), "an infinite literal is rejected");
    }

    #[test]
    fn integer_magnitudes_up_to_u64() {
        assert_eq!(
            lex("9223372036854775808").unwrap(),
            vec![Token::Int(1 << 63)]
        );
        assert!(lex("18446744073709551616").is_err());
    }

    #[test]
    fn strings_with_escapes() {
        let toks = lex("'four corners' 'it''s' ''").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("four corners".into()),
                Token::Str("it's".into()),
                Token::Str("".into())
            ]
        );
        // Only the escaped literal is a copy.
        assert!(matches!(toks[0], Token::Str(Cow::Borrowed(_))));
        assert!(matches!(toks[1], Token::Str(Cow::Owned(_))));
        assert!(lex("'unterminated").is_err());
        assert!(lex("'ends in an escape''").is_err());
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            lex("< <= > >= = <> !=").unwrap(),
            vec![
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::Eq,
                Token::NotEq,
                Token::NotEq
            ]
        );
        assert_eq!(lex("a<b").unwrap()[1], Token::Lt);
        assert_eq!(lex(">>").unwrap(), vec![Token::Gt, Token::Gt]);
        assert!(lex("!").is_err());
        assert!(lex("a !> b").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("SELECT -- the select list\n x -- trailing").unwrap();
        assert_eq!(toks, vec![Token::Ident("SELECT"), Token::Ident("x")]);
        assert_eq!(lex("a - b").unwrap()[1], Token::Minus);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("SELECT @x").is_err());
    }

    #[test]
    fn identifiers_with_underscores() {
        assert_eq!(
            lex("WebPages_AV _x a1").unwrap(),
            vec![
                Token::Ident("WebPages_AV"),
                Token::Ident("_x"),
                Token::Ident("a1")
            ]
        );
    }

    #[test]
    fn non_ascii_identifiers_strings_and_whitespace() {
        assert_eq!(
            lex("café\u{a0}'naïve' Ωmega").unwrap(),
            vec![
                Token::Ident("café"),
                Token::Str("naïve".into()),
                Token::Ident("Ωmega")
            ]
        );
    }

    #[test]
    fn error_offsets_are_byte_offsets() {
        // `é` is two bytes, so the `@` (character offset 4) is at byte 5.
        let err = lex("'é' @").unwrap_err().to_string();
        assert!(err.contains("'@' at offset 5"), "{err}");
        let err = lex("é§").unwrap_err().to_string();
        assert!(err.contains("'§' at offset 2"), "{err}");
    }
}
