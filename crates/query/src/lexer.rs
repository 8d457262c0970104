//! Tokenisation of the query language.

use crate::error::{QueryError, Result};

/// The kind of a token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// A bare identifier or keyword (`SELECT`, `Org`, `Amount`).
    Ident(String),
    /// A single-quoted string literal (`'Dpt.Jones'`); `''` escapes a
    /// quote, SQL style.
    Str(String),
    /// An unsigned integer literal.
    Number(i64),
    /// An unsigned decimal literal with a fraction (`0.75`), as written.
    Decimal(String),
    /// `=`
    Equals,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `/`
    Slash,
    /// `;`
    Semi,
}

/// A token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind.
    pub kind: TokenKind,
    /// Byte offset of the first character.
    pub at: usize,
}

/// Splits a query string into tokens. Identifiers may contain letters,
/// digits, `_`, `&`, `+`, `-` and `'` after the first letter, so member
/// and dimension names like `R&D` or `Dpt.O'Brian` survive (the `.`
/// still separates dimension from level).
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    // The end of the run from `i` of characters that `keep` accepts.
    let run = |i: usize, keep: fn(char) -> bool| {
        i + input[i..].find(|c| !keep(c)).unwrap_or(input.len() - i)
    };
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(c) = input[i..].chars().next() {
        let at = i;
        i += c.len_utf8();
        let kind = match c {
            ' ' | '\t' | '\n' | '\r' => continue,
            '(' => TokenKind::LParen,
            ')' => TokenKind::RParen,
            ',' => TokenKind::Comma,
            ';' => TokenKind::Semi,
            '/' => TokenKind::Slash,
            '=' => TokenKind::Equals,
            '.' if bytes.get(i) == Some(&b'.') => {
                i += 1;
                TokenKind::DotDot
            }
            '.' => TokenKind::Dot,
            '\'' => {
                // Whole slices between quotes; `''` is one quote.
                let mut text = String::new();
                loop {
                    let Some(len) = input[i..].find('\'') else {
                        return Err(QueryError::Unexpected {
                            expected: "closing `'`".into(),
                            found: "end of input".into(),
                            at,
                        });
                    };
                    text.push_str(&input[i..i + len]);
                    i += len + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break TokenKind::Str(text);
                    }
                    text.push('\'');
                    i += 1;
                }
            }
            '0'..='9' => {
                i = run(i, |c| c.is_ascii_digit());
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i = run(i + 1, |c| c.is_ascii_digit());
                    TokenKind::Decimal(input[at..i].to_owned())
                } else {
                    let text = &input[at..i];
                    let bad = |_| QueryError::BadNumber {
                        text: text.to_owned(),
                        at,
                    };
                    TokenKind::Number(text.parse().map_err(bad)?)
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                i = run(i, |c| c.is_alphanumeric() || "_&+-'".contains(c));
                TokenKind::Ident(input[at..i].to_owned())
            }
            ch => return Err(QueryError::UnexpectedChar { ch, at }),
        };
        out.push(Token { kind, at });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_query_tokens() {
        assert_eq!(
            kinds("SELECT sum(Amount) BY year"),
            vec![
                Ident("SELECT".into()),
                Ident("sum".into()),
                LParen,
                Ident("Amount".into()),
                RParen,
                Ident("BY".into()),
                Ident("year".into()),
            ]
        );
    }

    #[test]
    fn decimals_keep_their_text_and_ranges_stay_ranges() {
        assert_eq!(
            kinds("0.05, 2001..2002"),
            vec![
                Decimal("0.05".into()),
                Comma,
                Number(2001),
                DotDot,
                Number(2002)
            ]
        );
    }

    #[test]
    fn ranges_and_dates() {
        assert_eq!(
            kinds("FOR 2001..2002 AT 06/2002"),
            vec![
                Ident("FOR".into()),
                Number(2001),
                DotDot,
                Number(2002),
                Ident("AT".into()),
                Number(6),
                Slash,
                Number(2002),
            ]
        );
    }

    #[test]
    fn identifiers_keep_special_name_chars() {
        assert_eq!(
            kinds("R&D Dpt'X a_b-c"),
            vec![
                Ident("R&D".into()),
                Ident("Dpt'X".into()),
                Ident("a_b-c".into()),
            ]
        );
    }

    #[test]
    fn dot_separates_dimension_and_level() {
        assert_eq!(
            kinds("Org.Division"),
            vec![Ident("Org".into()), Dot, Ident("Division".into())]
        );
    }

    #[test]
    fn identifiers_may_hold_any_letter() {
        assert_eq!(
            kinds("Org.Départ 'é'"),
            vec![
                Ident("Org".into()),
                Dot,
                Ident("Départ".into()),
                Str("é".into())
            ]
        );
        let err = tokenize("BY é§").unwrap_err();
        assert_eq!(err, QueryError::UnexpectedChar { ch: '§', at: 5 });
    }

    #[test]
    fn bad_character_reports_position() {
        let err = tokenize("SELECT ?").unwrap_err();
        assert_eq!(err, QueryError::UnexpectedChar { ch: '?', at: 7 });
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(
            kinds("WHERE x = 'Dpt.Jones'"),
            vec![
                Ident("WHERE".into()),
                Ident("x".into()),
                Equals,
                Str("Dpt.Jones".into()),
            ]
        );
        assert_eq!(kinds("'it''s'"), vec![Str("it's".into())]);
        assert_eq!(kinds("'R&D — lab'"), vec![Str("R&D — lab".into())]);
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn offsets_are_byte_positions() {
        let toks = tokenize("  BY year").unwrap();
        assert_eq!(toks[0].at, 2);
        assert_eq!(toks[1].at, 5);
    }
}
