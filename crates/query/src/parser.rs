//! Recursive-descent parser.

use crate::ast::{FilterSpec, GroupKey, ModeSpec, Query, Select, Statement};
use crate::error::{QueryError, Result};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parses a query string into its AST. `SHOW` statements are not
/// queries: [`parse_statement`] accepts them.
///
/// # Errors
///
/// Lexer errors and [`QueryError::Unexpected`] with byte positions.
pub fn parse(input: &str) -> Result<Query> {
    let mut p = Parser::new(input)?;
    let q = p.query()?;
    p.finish()?;
    Ok(q)
}

/// Parses a statement: a query, or `SHOW` and its target. Keywords are
/// case-insensitive; the first token decides, so a query is tokenized
/// and parsed exactly as [`parse`] does.
///
/// # Errors
///
/// As [`parse`]; an unknown `SHOW` target is [`QueryError::Unexpected`]
/// at the target's byte position.
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut p = Parser::new(input)?;
    let s = p.statement()?;
    p.finish()?;
    Ok(s)
}

const SHOW_TARGETS: &str = "VERSIONS, DIMENSIONS, MEASURES, LOG, DOT, QUALITY, GRID or STATUS";

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    len: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
            len: input.len(),
        })
    }

    /// An optional `;`, then the end of the input.
    fn finish(&mut self) -> Result<()> {
        self.eat(&TokenKind::Semi);
        self.expect_end()
    }

    fn statement(&mut self) -> Result<Statement> {
        if !self.at_keyword("SHOW") {
            return self.query().map(Statement::Query);
        }
        self.pos += 1;
        let target = self.ident(SHOW_TARGETS)?;
        Ok(match target.to_ascii_uppercase().as_str() {
            "VERSIONS" => Statement::Versions,
            "DIMENSIONS" => Statement::Dimensions,
            "MEASURES" => Statement::Measures,
            "LOG" => Statement::Log,
            "DOT" => Statement::Dot(self.ident("dimension name")?),
            "QUALITY" => Statement::Quality(self.query()?),
            "GRID" => Statement::Grid(self.query()?),
            "STATUS" => Statement::Status,
            _ => {
                self.pos -= 1;
                return Err(self.unexpected(SHOW_TARGETS));
            }
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at(&self) -> usize {
        self.peek().map(|t| t.at).unwrap_or(self.len)
    }

    fn found(&self) -> String {
        match self.peek() {
            Some(t) => match &t.kind {
                TokenKind::Ident(s) => s.clone(),
                TokenKind::Str(s) => format!("'{s}'"),
                TokenKind::Number(n) => n.to_string(),
                TokenKind::Equals => "=".into(),
                TokenKind::LParen => "(".into(),
                TokenKind::RParen => ")".into(),
                TokenKind::Comma => ",".into(),
                TokenKind::Dot => ".".into(),
                TokenKind::DotDot => "..".into(),
                TokenKind::Slash => "/".into(),
                TokenKind::Semi => ";".into(),
            },
            None => "end of input".into(),
        }
    }

    fn unexpected(&self, expected: &str) -> QueryError {
        QueryError::Unexpected {
            expected: expected.to_owned(),
            found: self.found(),
            at: self.at(),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// Consumes an identifier (any case) and returns it.
    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// Consumes a keyword (case-insensitive match).
    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.unexpected(&format!("keyword {kw}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(
            self.peek(),
            Some(Token { kind: TokenKind::Ident(s), .. }) if s.eq_ignore_ascii_case(kw)
        )
    }

    fn number(&mut self, what: &str) -> Result<i64> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Number(n),
                ..
            }) => {
                let n = *n;
                self.pos += 1;
                Ok(n)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn expect_end(&self) -> Result<()> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.unexpected("end of query"))
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.keyword("SELECT")?;
        let mut selects = vec![self.select()?];
        while self.eat(&TokenKind::Comma) {
            selects.push(self.select()?);
        }
        self.keyword("BY")?;
        let mut groups = vec![self.group()?];
        while self.eat(&TokenKind::Comma) {
            groups.push(self.group()?);
        }
        let mut filters = Vec::new();
        if self.at_keyword("WHERE") {
            self.keyword("WHERE")?;
            filters.push(self.filter()?);
            while self.at_keyword("AND") {
                self.keyword("AND")?;
                filters.push(self.filter()?);
            }
        }
        let range = if self.at_keyword("FOR") {
            self.keyword("FOR")?;
            let a = self.number("start year")?;
            self.expect(TokenKind::DotDot, "`..`")?;
            let b = self.number("end year")?;
            let (a, b) = (
                i32::try_from(a).map_err(|_| QueryError::BadNumber {
                    text: a.to_string(),
                    at: self.at(),
                })?,
                i32::try_from(b).map_err(|_| QueryError::BadNumber {
                    text: b.to_string(),
                    at: self.at(),
                })?,
            );
            Some((a, b))
        } else {
            None
        };
        self.keyword("IN")?;
        let mode = if self.at_keyword("ALL") {
            self.keyword("ALL")?;
            self.keyword("MODES")?;
            let weights = if self.at_keyword("WITH") {
                self.keyword("WITH")?;
                self.keyword("WEIGHTS")?;
                let mut w = [0u8; 4];
                for (i, slot) in w.iter_mut().enumerate() {
                    if i > 0 {
                        self.expect(TokenKind::Comma, "`,`")?;
                    }
                    let n = self.number("weight 0..=10")?;
                    *slot = u8::try_from(n).map_err(|_| QueryError::BadNumber {
                        text: n.to_string(),
                        at: self.at(),
                    })?;
                }
                Some((w[0], w[1], w[2], w[3]))
            } else {
                None
            };
            ModeSpec::AllModes { weights }
        } else {
            self.keyword("MODE")?;
            self.mode()?
        };
        Ok(Query {
            selects,
            groups,
            filters,
            range,
            mode,
        })
    }

    /// `<dim>.<level> IN ('a', 'b')` or `<dim>.<level> = 'a'`.
    fn filter(&mut self) -> Result<FilterSpec> {
        let dimension = self.ident("dimension name")?;
        self.expect(TokenKind::Dot, "`.` (dimension.level)")?;
        let level = self.ident("level name")?;
        if self.eat(&TokenKind::Equals) {
            let member = self.string("member name literal")?;
            return Ok(FilterSpec {
                dimension,
                level,
                members: vec![member],
            });
        }
        self.keyword("IN")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut members = vec![self.string("member name literal")?];
        while self.eat(&TokenKind::Comma) {
            members.push(self.string("member name literal")?);
        }
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(FilterSpec {
            dimension,
            level,
            members,
        })
    }

    /// Consumes a string literal.
    fn string(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Str(s),
                ..
            }) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn select(&mut self) -> Result<Select> {
        let aggregate = self.ident("aggregate function")?.to_ascii_lowercase();
        self.expect(TokenKind::LParen, "`(`")?;
        let measure = self.ident("measure name")?;
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(Select { aggregate, measure })
    }

    fn group(&mut self) -> Result<GroupKey> {
        let first = self.ident("group key")?;
        if first.eq_ignore_ascii_case("year") {
            return Ok(GroupKey::Year);
        }
        if first.eq_ignore_ascii_case("quarter") {
            return Ok(GroupKey::Quarter);
        }
        if first.eq_ignore_ascii_case("month") {
            return Ok(GroupKey::Month);
        }
        if first.eq_ignore_ascii_case("instant") {
            return Ok(GroupKey::Instant);
        }
        self.expect(TokenKind::Dot, "`.` (dimension.level)")?;
        let level = self.ident("level name")?;
        Ok(GroupKey::DimLevel {
            dimension: first,
            level,
        })
    }

    fn mode(&mut self) -> Result<ModeSpec> {
        if self.at_keyword("tcm") || self.at_keyword("consistent") {
            self.pos += 1;
            return Ok(ModeSpec::Tcm);
        }
        if self.at_keyword("version") {
            self.pos += 1;
            let n = self.number("version number")?;
            let n = u32::try_from(n).map_err(|_| QueryError::BadNumber {
                text: n.to_string(),
                at: self.at(),
            })?;
            return Ok(ModeSpec::Version(n));
        }
        if self.at_keyword("at") {
            self.pos += 1;
            let month = self.number("month")?;
            self.expect(TokenKind::Slash, "`/`")?;
            let year = self.number("year")?;
            let month = u32::try_from(month).map_err(|_| QueryError::BadNumber {
                text: month.to_string(),
                at: self.at(),
            })?;
            let year = i32::try_from(year).map_err(|_| QueryError::BadNumber {
                text: year.to_string(),
                at: self.at(),
            })?;
            return Ok(ModeSpec::At { month, year });
        }
        Err(self.unexpected("tcm, VERSION <n> or AT <mm/yyyy>"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1() {
        let q =
            parse("SELECT sum(Amount) BY year, Org.Division FOR 2001..2002 IN MODE tcm").unwrap();
        assert_eq!(
            q.selects,
            vec![Select {
                aggregate: "sum".into(),
                measure: "Amount".into()
            }]
        );
        assert_eq!(
            q.groups,
            vec![
                GroupKey::Year,
                GroupKey::DimLevel {
                    dimension: "Org".into(),
                    level: "Division".into()
                }
            ]
        );
        assert_eq!(q.range, Some((2001, 2002)));
        assert_eq!(q.mode, ModeSpec::Tcm);
    }

    #[test]
    fn parses_version_and_at_modes() {
        let q = parse("SELECT sum(Amount) BY year IN MODE VERSION 2").unwrap();
        assert_eq!(q.mode, ModeSpec::Version(2));
        let q = parse("SELECT sum(Amount) BY year IN MODE AT 06/2002").unwrap();
        assert_eq!(
            q.mode,
            ModeSpec::At {
                month: 6,
                year: 2002
            }
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse("select SUM(Amount) by YEAR in mode Consistent;").unwrap();
        assert_eq!(q.mode, ModeSpec::Tcm);
        assert_eq!(q.selects[0].aggregate, "sum");
    }

    #[test]
    fn multiple_selects_and_groups() {
        let q = parse(
            "SELECT sum(Turnover), sum(Profit) BY year, Org.Division, Org.Department \
             IN MODE tcm",
        )
        .unwrap();
        assert_eq!(q.selects.len(), 2);
        assert_eq!(q.groups.len(), 3);
    }

    #[test]
    fn error_messages_carry_positions() {
        let err = parse("SELECT sum Amount) BY year IN MODE tcm").unwrap_err();
        assert!(
            matches!(err, QueryError::Unexpected { at: 11, .. }),
            "{err:?}"
        );
        let err = parse("SELECT sum(Amount) BY year IN MODE nowhere").unwrap_err();
        assert!(matches!(err, QueryError::Unexpected { .. }));
        let err = parse("SELECT sum(Amount) BY year IN MODE tcm extra").unwrap_err();
        assert!(matches!(err, QueryError::Unexpected { .. }));
    }

    #[test]
    fn group_requires_level_after_dot() {
        let err = parse("SELECT sum(Amount) BY Org IN MODE tcm").unwrap_err();
        assert!(matches!(err, QueryError::Unexpected { .. }));
    }
}
