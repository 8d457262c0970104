//! Recursive-descent parser.

use std::collections::BTreeMap;

use mvolap_core::token::TokenReader;
use mvolap_core::MeasureMapping;
use mvolap_temporal::Instant;

use crate::ast::{FilterSpec, GroupKey, ModeSpec, Query, Select, Statement};
use crate::error::{QueryError, Result};
use crate::evolve::{Evolve, Named, Operator, OPERATORS};
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

/// Parses a statement: a query, `SHOW` and its target, or an evolution
/// of [`OPERATORS`] by its row's grammar. Keywords are case-insensitive;
/// the first token decides, so a query is tokenized and parsed exactly
/// as [`parse`] does.
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
const MAPPING: &str = "quoted mapping ('id@em', 's0.5@am', 'u@uk', 'a2:1@am')";

struct Parser<'a> {
    input: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser<'_> {
    fn new(input: &str) -> Result<Parser<'_>> {
        let tokens = tokenize(input)?;
        Ok(Parser {
            input,
            tokens,
            pos: 0,
        })
    }

    /// An optional `;`, then the end of the input.
    fn finish(&mut self) -> Result<()> {
        self.eat(&TokenKind::Semi);
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.unexpected("end of query"))
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if let Some(op) = OPERATORS.iter().find(|op| self.at_keyword(op.keyword)) {
            self.pos += 1;
            return self.evolve(op).map(Statement::Evolve);
        }
        if !self.eat_keyword("SHOW") {
            return self.query().map(Statement::Query);
        }
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

    /// An evolution's arguments, clause by clause as its row's grammar
    /// lists them.
    fn evolve(&mut self, op: &'static Operator) -> Result<Evolve> {
        let dimension = self.ident("dimension name")?;
        let mut e = Evolve::new(op.keyword, &dimension, Vec::new(), Instant::DAWN);
        for (keyword, optional, placeholder) in op.clauses() {
            if !keyword.is_empty() && !self.eat_keyword(keyword) {
                if optional {
                    continue;
                }
                return Err(self.unexpected(&format!("keyword {keyword}")));
            }
            let names = |p: &mut Self| p.names(&placeholder);
            match keyword {
                "" => e.members = names(self)?,
                "TO" | "INTO" => e.to = names(self)?,
                "UNDER" => e.under = names(self)?,
                "FROM" => e.from = names(self)?,
                "LEVEL" => e.level = Some(self.ident("level name")?),
                "BY" | "KEEP" => e.factor = self.decimal(&placeholder)?,
                "FORWARD" => e.forward = self.mapping()?,
                "BACKWARD" => e.backward = self.mapping()?,
                "WITH" => e.with = self.attributes()?,
                _ => e.at = self.instant()?,
            }
        }
        Ok(e)
    }

    /// Quoted member names: a comma list where the placeholder has `…`,
    /// each followed by a share where it names one (`[share]`: where
    /// one is written).
    fn names(&mut self, placeholder: &str) -> Result<Vec<Named>> {
        self.list(placeholder.contains('…'), |p| {
            let name = p.string("quoted member name")?;
            let share = if placeholder.contains("[share]") {
                p.decimal("share").ok()
            } else if placeholder.contains("share") {
                Some(p.decimal("share")?)
            } else {
                None
            };
            Ok((name, share))
        })
    }

    /// A quoted mapping in the log's token form.
    fn mapping(&mut self) -> Result<MeasureMapping> {
        self.take(MAPPING, |k| {
            let TokenKind::Str(text) = k else { return None };
            let mut r = TokenReader::new(text);
            r.mapping().ok().filter(|_| r.peek().is_none())
        })
    }

    /// `key = 'value'`, comma-separated.
    fn attributes(&mut self) -> Result<BTreeMap<String, String>> {
        let pairs = self.list(true, |p| {
            let key = p.ident("attribute name")?;
            p.expect(TokenKind::Equals, "`=`")?;
            Ok((key, p.string("quoted attribute value")?))
        })?;
        Ok(pairs.into_iter().collect())
    }

    /// One item, or (`many`) one or more comma-separated.
    fn list<T>(&mut self, many: bool, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut items = vec![f(self)?];
        while many && self.eat(&TokenKind::Comma) {
            items.push(f(self)?);
        }
        Ok(items)
    }

    /// `mm/yyyy` as an instant.
    fn instant(&mut self) -> Result<Instant> {
        let at = self.at();
        let (month, year) = self.month_year()?;
        Instant::from_ym(year, month).map_err(|_| QueryError::BadNumber {
            text: format!("{month}/{year}"),
            at,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at(&self) -> usize {
        self.peek().map_or(self.input.len(), |t| t.at)
    }

    /// The next token as written (tokens are separated by whitespace
    /// only).
    fn found(&self) -> String {
        let Some(t) = self.peek() else {
            return "end of input".into();
        };
        let end = self
            .tokens
            .get(self.pos + 1)
            .map_or(self.input.len(), |n| n.at);
        self.input[t.at..end].trim_end().to_owned()
    }

    fn unexpected(&self, expected: &str) -> QueryError {
        QueryError::Unexpected {
            expected: expected.to_owned(),
            found: self.found(),
            at: self.at(),
        }
    }

    /// Consumes the next token when `f` takes it, else fails as
    /// expecting `what`.
    fn take<T>(&mut self, what: &str, f: impl FnOnce(&TokenKind) -> Option<T>) -> Result<T> {
        match self.peek().and_then(|t| f(&t.kind)) {
            Some(value) => {
                self.pos += 1;
                Ok(value)
            }
            None => Err(self.unexpected(what)),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        let next = self.peek().is_some_and(|t| t.kind == *kind);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<()> {
        self.take(what, |k| (*k == kind).then_some(()))
    }

    /// Consumes an identifier (any case) and returns it.
    fn ident(&mut self, what: &str) -> Result<String> {
        self.take(what, |k| match k {
            TokenKind::Ident(s) => Some(s.clone()),
            _ => None,
        })
    }

    /// Consumes a string literal.
    fn string(&mut self, what: &str) -> Result<String> {
        self.take(what, |k| match k {
            TokenKind::Str(s) => Some(s.clone()),
            _ => None,
        })
    }

    /// A number, with or without a fraction.
    fn decimal(&mut self, what: &str) -> Result<f64> {
        self.take(what, |k| match k {
            TokenKind::Number(n) => Some(*n as f64),
            TokenKind::Decimal(text) => text.parse().ok(),
            _ => None,
        })
    }

    /// An integer literal that fits `T`.
    fn int<T: TryFrom<i64>>(&mut self, what: &str) -> Result<T> {
        let at = self.at();
        let n = self.take(what, |k| match k {
            TokenKind::Number(n) => Some(*n),
            _ => None,
        })?;
        T::try_from(n).map_err(|_| QueryError::BadNumber {
            text: n.to_string(),
            at,
        })
    }

    /// Consumes a keyword (case-insensitive match).
    fn keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {kw}")))
        }
    }

    /// Consumes the keyword if it comes next.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        let at = self.at_keyword(kw);
        self.pos += usize::from(at);
        at
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(
            self.peek(),
            Some(Token { kind: TokenKind::Ident(s), .. }) if s.eq_ignore_ascii_case(kw)
        )
    }

    fn query(&mut self) -> Result<Query> {
        self.keyword("SELECT")?;
        let selects = self.list(true, Parser::select)?;
        self.keyword("BY")?;
        let groups = self.list(true, Parser::group)?;
        let mut filters = Vec::new();
        if self.eat_keyword("WHERE") {
            filters.push(self.filter()?);
            while self.eat_keyword("AND") {
                filters.push(self.filter()?);
            }
        }
        let range = if self.eat_keyword("FOR") {
            let a = self.int("start year")?;
            self.expect(TokenKind::DotDot, "`..`")?;
            Some((a, self.int("end year")?))
        } else {
            None
        };
        self.keyword("IN")?;
        let mode = if self.eat_keyword("ALL") {
            self.keyword("MODES")?;
            let weights = if self.eat_keyword("WITH") {
                self.keyword("WEIGHTS")?;
                let mut w = [0u8; 4];
                for (i, slot) in w.iter_mut().enumerate() {
                    if i > 0 {
                        self.expect(TokenKind::Comma, "`,`")?;
                    }
                    *slot = self.int("weight 0..=10")?;
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
        let members = self.list(true, |p| p.string("member name literal"))?;
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(FilterSpec {
            dimension,
            level,
            members,
        })
    }

    fn select(&mut self) -> Result<Select> {
        let aggregate = self.ident("aggregate function")?.to_ascii_lowercase();
        self.expect(TokenKind::LParen, "`(`")?;
        let measure = self.ident("measure name")?;
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(Select { aggregate, measure })
    }

    fn group(&mut self) -> Result<GroupKey> {
        const TIME_KEYS: [(&str, GroupKey); 4] = [
            ("year", GroupKey::Year),
            ("quarter", GroupKey::Quarter),
            ("month", GroupKey::Month),
            ("instant", GroupKey::Instant),
        ];
        let first = self.ident("group key")?;
        if let Some((_, key)) = TIME_KEYS
            .iter()
            .find(|(k, _)| first.eq_ignore_ascii_case(k))
        {
            return Ok(key.clone());
        }
        self.expect(TokenKind::Dot, "`.` (dimension.level)")?;
        let level = self.ident("level name")?;
        Ok(GroupKey::DimLevel {
            dimension: first,
            level,
        })
    }

    fn mode(&mut self) -> Result<ModeSpec> {
        if self.eat_keyword("tcm") || self.eat_keyword("consistent") {
            Ok(ModeSpec::Tcm)
        } else if self.eat_keyword("version") {
            Ok(ModeSpec::Version(self.int("version number")?))
        } else if self.eat_keyword("at") {
            let (month, year) = self.month_year()?;
            Ok(ModeSpec::At { month, year })
        } else {
            Err(self.unexpected("tcm, VERSION <n> or AT <mm/yyyy>"))
        }
    }

    /// `mm/yyyy`.
    fn month_year(&mut self) -> Result<(u32, i32)> {
        let month = self.int("month")?;
        self.expect(TokenKind::Slash, "`/`")?;
        Ok((month, self.int("year")?))
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
