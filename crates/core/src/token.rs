//! The escaped-token layer under every text format the warehouse writes.
//!
//! Snapshots (`persist`), WAL records, replication messages and their
//! envelopes, session requests and replies, the membership sidecar and
//! the `snap-partial` header are all lines of **space-separated
//! tokens**. This module owns the decisions those formats share, so
//! each is made once:
//!
//! * **The escape alphabet.** A variable-length field travels as one
//!   token: `\\` backslash, `\s` space, `\t` tab, `\n` newline, `\r`
//!   carriage return, `\e` `=`, `\xHH` any byte (lower-case hex), and
//!   the whole token `\0` for the empty field. [`unescape`] accepts all
//!   of them everywhere; a writer picks with [`Escapes`] which bytes
//!   beyond the four separators it spells out, so a format's bytes do
//!   not depend on which formats exist beside it.
//! * **The token forms** of an [`Instant`] (`now`, `dawn` or the raw
//!   tick), an `f64` (Rust's shortest round-tripping `Display`: bit
//!   exact, `NaN`/`inf`/`-inf` for the non-finite values) and a
//!   [`MeasureMapping`] (`id`, `u`, `s<k>` or `a<a>:<b>`, then `@` and
//!   the confidence code `sd|em|am|uk`).
//! * **The count rule.** A list is its length followed by its items, so
//!   the grammar needs no lookahead. Every item is at least one byte
//!   after its separator, so a count above half the bytes left is a lie
//!   and [`TokenReader::count`] refuses it before anything is allocated
//!   for the list.
//!
//! `storage::persist`'s tab-separated cell format is a different
//! grammar (`\N` nulls, column-typed cells) and does not come through
//! here.

use std::fmt;
use std::io::Write as _;
use std::str::FromStr;

use mvolap_temporal::Instant;

use crate::confidence::Confidence;
use crate::mapping::{MappingFunction, MeasureMapping};

/// The bytes a writer escapes beyond backslash, space, tab and newline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escapes {
    /// Nothing more — WAL records and the membership sidecar.
    Separators,
    /// `=` and carriage return — snapshot lines, which carry `k=v`
    /// attribute tokens and are read back line by line.
    Line,
    /// Every byte outside printable ASCII — replication messages and
    /// session frames, whose tokens hold arbitrary bytes.
    Binary,
}

/// How each profile (indexed by `Escapes as usize`) spells each byte:
/// up to four bytes, then how many of them count.
static SPELLINGS: [[[u8; 5]; 256]; 3] = [
    spellings(Escapes::Separators),
    spellings(Escapes::Line),
    spellings(Escapes::Binary),
];

/// The spelling of every byte under `escapes`.
const fn spellings(escapes: Escapes) -> [[u8; 5]; 256] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let line = matches!(escapes, Escapes::Line);
    let binary = matches!(escapes, Escapes::Binary);
    let mut table = [[0; 5]; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        let letter = match b {
            b'\\' => b'\\',
            b' ' => b's',
            b'\t' => b't',
            b'\n' => b'n',
            b'=' if line => b'e',
            b'\r' if line => b'r',
            _ => 0,
        };
        table[i] = if letter != 0 {
            [b'\\', letter, 0, 0, 2]
        } else if binary && (b < 0x21 || b > 0x7e) {
            [b'\\', b'x', HEX[i >> 4], HEX[i & 15], 4]
        } else {
            [b, 0, 0, 0, 1]
        };
        i += 1;
    }
    table
}

/// Appends `raw` to `out` as one token.
///
/// Each byte's spelling comes from its profile's table: one pass sizes
/// the token, the second copies four bytes per input byte and advances
/// by the spelling's length, so no byte takes a branch. Padded text has
/// runs of about one plain byte, which is why this beats copying plain
/// runs.
pub fn escape(raw: &[u8], escapes: Escapes, out: &mut Vec<u8>) {
    if raw.is_empty() {
        out.extend_from_slice(b"\\0");
        return;
    }
    let table = &SPELLINGS[escapes as usize];
    let len: usize = raw
        .iter()
        .map(|&b| usize::from(table[usize::from(b)][4]))
        .sum();
    let start = out.len();
    // Three bytes of slack let the last spelling be copied whole.
    out.resize(start + len + 3, 0);
    let mut at = start;
    for &b in raw {
        let spelling = &table[usize::from(b)];
        out[at..at + 4].copy_from_slice(&spelling[..4]);
        at += usize::from(spelling[4]);
    }
    out.truncate(at);
}

/// Per byte after a backslash: the byte it escapes, `1` for the `x` of
/// `\xHH` (no escape stands for byte 1), and 0 for a malformed escape.
static UNESCAPES: [u8; 256] = {
    let (letters, bytes) = (b"\\stnrex", b"\\ \t\n\r=\x01");
    let mut table = [0; 256];
    let mut i = 0;
    while i < letters.len() {
        table[letters[i] as usize] = bytes[i];
        i += 1;
    }
    table
};

/// The bytes a token stands for; `None` on a malformed escape.
pub fn unescape(token: &str) -> Option<Vec<u8>> {
    if token == "\\0" {
        return Some(Vec::new());
    }
    let hex = |d: u8| match d {
        b'0'..=b'9' => Some(d - b'0'),
        b'a'..=b'f' => Some(d - b'a' + 10),
        _ => None,
    };
    let mut out = Vec::with_capacity(token.len());
    let mut bytes = token.bytes();
    while let Some(b) = bytes.next() {
        if b != b'\\' {
            out.push(b);
            continue;
        }
        out.push(match UNESCAPES[usize::from(bytes.next()?)] {
            0 => return None,
            1 => hex(bytes.next()?)? << 4 | hex(bytes.next()?)?,
            byte => byte,
        });
    }
    Some(out)
}

/// Why a token line was refused. Positions are 1-based token indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// The input is not UTF-8.
    NotUtf8,
    /// The input ended where token `at` was expected.
    Truncated {
        /// Position of the missing token.
        at: usize,
    },
    /// Token `at` follows the end of the value.
    Trailing {
        /// Position of the surplus token.
        at: usize,
        /// The surplus token (clipped).
        token: String,
    },
    /// Token `at` is not a valid `what`.
    Bad {
        /// Position of the offending token.
        at: usize,
        /// What the grammar expected there.
        what: &'static str,
        /// The offending token (clipped).
        token: String,
    },
    /// Token `at` announces more items than the bytes after it can hold.
    Count {
        /// Position of the count token.
        at: usize,
        /// The announced length.
        count: u64,
        /// Bytes left after the count token.
        room: usize,
    },
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenError::NotUtf8 => write!(f, "not UTF-8"),
            TokenError::Truncated { at } => write!(f, "truncated at token {at}"),
            TokenError::Trailing { at, token } => write!(f, "trailing token `{token}` at {at}"),
            TokenError::Bad { at, what, token } => write!(f, "bad {what} `{token}` at token {at}"),
            TokenError::Count { at, count, room } => write!(
                f,
                "count {count} at token {at} exceeds what the {room} bytes left can hold"
            ),
        }
    }
}

impl std::error::Error for TokenError {}

/// Tokens can be megabytes (a snapshot image); errors quote a prefix.
fn clip(token: &str) -> String {
    token.chars().take(48).collect()
}

/// Writes space-joined tokens, one line at a time.
#[derive(Debug)]
pub struct TokenWriter {
    out: Vec<u8>,
    escapes: Escapes,
    /// Whether the next token needs a separator before it.
    joined: bool,
}

impl TokenWriter {
    /// An empty writer whose text tokens escape per `escapes`.
    #[must_use]
    pub fn new(escapes: Escapes) -> TokenWriter {
        TokenWriter {
            out: Vec::new(),
            escapes,
            joined: false,
        }
    }

    fn sep(&mut self) {
        if self.joined {
            self.out.push(b' ');
        }
        self.joined = true;
    }

    /// A token written as it displays: tags, integers, counts.
    pub fn raw(&mut self, token: impl fmt::Display) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{token}");
        self
    }

    /// Arbitrary bytes as one escaped token.
    pub fn bytes(&mut self, raw: &[u8]) -> &mut Self {
        self.sep();
        escape(raw, self.escapes, &mut self.out);
        self
    }

    /// A string as one escaped token.
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Continues the current token with `glue`; the next write follows
    /// it without a separator (the `=` of a `k=v` attribute token).
    pub fn glue(&mut self, glue: char) -> &mut Self {
        let _ = write!(self.out, "{glue}");
        self.joined = false;
        self
    }

    /// The `f64` token form.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.raw(x)
    }

    /// The [`Instant`] token form.
    pub fn instant(&mut self, t: Instant) -> &mut Self {
        if t.is_forever() {
            self.raw("now")
        } else if t.is_dawn() {
            self.raw("dawn")
        } else {
            self.raw(t.tick())
        }
    }

    /// The [`MeasureMapping`] token form.
    pub fn mapping(&mut self, m: &MeasureMapping) -> &mut Self {
        let cf = m.confidence.code();
        match m.func {
            MappingFunction::Identity => self.raw(format_args!("id@{cf}")),
            MappingFunction::Unknown => self.raw(format_args!("u@{cf}")),
            MappingFunction::Scale(k) => self.raw(format_args!("s{k}@{cf}")),
            MappingFunction::Affine { a, b } => self.raw(format_args!("a{a}:{b}@{cf}")),
        }
    }

    /// A counted list: the length, then each item through `item`.
    pub fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.raw(items.len());
        for i in items {
            item(self, i);
        }
        self
    }

    /// Ends the line; the next token starts a new one.
    pub fn end_line(&mut self) -> &mut Self {
        self.out.push(b'\n');
        self.joined = false;
        self
    }

    /// The bytes written.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Reads space-separated tokens off one line, tracking the position for
/// error reports.
#[derive(Debug)]
pub struct TokenReader<'a> {
    /// What follows the last token read; `None` once the line is spent.
    rest: Option<&'a str>,
    at: usize,
}

impl<'a> TokenReader<'a> {
    /// A reader at the start of `line`.
    #[must_use]
    pub fn new(line: &'a str) -> TokenReader<'a> {
        TokenReader {
            rest: Some(line),
            at: 0,
        }
    }

    /// A reader over a byte payload, which must be UTF-8.
    ///
    /// # Errors
    ///
    /// [`TokenError::NotUtf8`].
    pub fn from_bytes(payload: &'a [u8]) -> Result<TokenReader<'a>, TokenError> {
        std::str::from_utf8(payload)
            .map(TokenReader::new)
            .map_err(|_| TokenError::NotUtf8)
    }

    /// The next token, without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<&'a str> {
        let rest = self.rest?;
        Some(rest.split_once(' ').map_or(rest, |(token, _)| token))
    }

    /// The next token, verbatim.
    ///
    /// # Errors
    ///
    /// [`TokenError::Truncated`] when the line is spent.
    pub fn token(&mut self) -> Result<&'a str, TokenError> {
        self.at += 1;
        let rest = self.rest.ok_or(TokenError::Truncated { at: self.at })?;
        let (token, rest) = match rest.split_once(' ') {
            Some((token, rest)) => (token, Some(rest)),
            None => (rest, None),
        };
        self.rest = rest;
        Ok(token)
    }

    /// A [`TokenError::Bad`] at the token just read — for callers whose
    /// grammar refuses a token this layer could read.
    #[must_use]
    pub fn bad(&self, what: &'static str, token: &str) -> TokenError {
        TokenError::Bad {
            at: self.at,
            what,
            token: clip(token),
        }
    }

    /// The next token through its `FromStr`: integers, mostly.
    ///
    /// # Errors
    ///
    /// [`TokenError::Truncated`], or [`TokenError::Bad`] naming `what`.
    pub fn parse<T: FromStr>(&mut self, what: &'static str) -> Result<T, TokenError> {
        let token = self.token()?;
        token.parse().map_err(|_| self.bad(what, token))
    }

    /// The bytes of an escaped token.
    ///
    /// # Errors
    ///
    /// [`TokenError::Truncated`], or [`TokenError::Bad`] on a malformed
    /// escape.
    pub fn bytes(&mut self) -> Result<Vec<u8>, TokenError> {
        let token = self.token()?;
        unescape(token).ok_or_else(|| self.bad("escape", token))
    }

    /// The string of an escaped token.
    ///
    /// # Errors
    ///
    /// As [`TokenReader::bytes`]; bytes that are not UTF-8 are a
    /// [`TokenError::Bad`] too.
    pub fn text(&mut self) -> Result<String, TokenError> {
        let token = self.token()?;
        unescape(token)
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .ok_or_else(|| self.bad("text", token))
    }

    /// The `f64` token form.
    ///
    /// # Errors
    ///
    /// As [`TokenReader::parse`].
    pub fn f64(&mut self) -> Result<f64, TokenError> {
        self.parse("float")
    }

    /// The [`Instant`] token form.
    ///
    /// # Errors
    ///
    /// As [`TokenReader::parse`].
    pub fn instant(&mut self) -> Result<Instant, TokenError> {
        match self.token()? {
            "now" => Ok(Instant::FOREVER),
            "dawn" => Ok(Instant::DAWN),
            tick => tick
                .parse()
                .map(Instant::at)
                .map_err(|_| self.bad("instant", tick)),
        }
    }

    /// The [`MeasureMapping`] token form.
    ///
    /// # Errors
    ///
    /// [`TokenError::Truncated`], or [`TokenError::Bad`].
    pub fn mapping(&mut self) -> Result<MeasureMapping, TokenError> {
        let token = self.token()?;
        let parsed = || {
            let (f, cf) = token.rsplit_once('@')?;
            let confidence = Confidence::ALL.into_iter().find(|c| c.code() == cf)?;
            let func = if f == "id" {
                MappingFunction::Identity
            } else if f == "u" {
                MappingFunction::Unknown
            } else if let Some(k) = f.strip_prefix('s') {
                MappingFunction::Scale(k.parse().ok()?)
            } else {
                let (a, b) = f.strip_prefix('a')?.split_once(':')?;
                MappingFunction::Affine {
                    a: a.parse().ok()?,
                    b: b.parse().ok()?,
                }
            };
            Some(MeasureMapping { func, confidence })
        };
        parsed().ok_or_else(|| self.bad("mapping", token))
    }

    /// A list length, checked against the bytes left.
    ///
    /// # Errors
    ///
    /// [`TokenError::Count`] when the line cannot hold that many items,
    /// so a caller never sizes anything from a lying count.
    pub fn count(&mut self) -> Result<usize, TokenError> {
        let token = self.token()?;
        let count: u64 = token.parse().map_err(|_| self.bad("count", token))?;
        let room = self.rest.map_or(0, |rest| rest.len() + 1);
        match usize::try_from(count) {
            Ok(n) if n <= room / 2 => Ok(n),
            _ => Err(TokenError::Count {
                at: self.at,
                count,
                room,
            }),
        }
    }

    /// A counted list: the length, then each item through `item`.
    ///
    /// # Errors
    ///
    /// As [`TokenReader::count`], plus whatever `item` raises.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, TokenError>,
    ) -> Result<Vec<T>, TokenError> {
        let n = self.count()?;
        (0..n).map(|_| item(self)).collect()
    }

    /// Ends the value: any token left over is an error.
    ///
    /// # Errors
    ///
    /// [`TokenError::Trailing`].
    pub fn finish(mut self) -> Result<(), TokenError> {
        match self.rest {
            None => Ok(()),
            Some(_) => {
                let token = clip(self.token()?);
                Err(TokenError::Trailing { at: self.at, token })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(raw: &[u8], escapes: Escapes) -> String {
        let mut out = Vec::new();
        escape(raw, escapes, &mut out);
        String::from_utf8(out).expect("escaped text stays UTF-8 for UTF-8 input")
    }

    #[test]
    fn every_profile_roundtrips_every_byte_and_leaks_no_separator() {
        let all: Vec<u8> = (0..=255u8).collect();
        for escapes in [Escapes::Separators, Escapes::Line, Escapes::Binary] {
            for raw in [
                &all[..0x80],
                b"",
                b"\\0",
                b"\\",
                b" \t\n\r=\\",
                "départ№7".as_bytes(),
            ] {
                let token = escaped(raw, escapes);
                assert!(!token.contains([' ', '\t', '\n']), "{token:?}");
                assert_eq!(
                    unescape(&token).as_deref(),
                    Some(raw),
                    "{escapes:?} {token:?}"
                );
            }
        }
        let mut out = Vec::new();
        escape(&all, Escapes::Binary, &mut out);
        assert!(out.iter().all(|b| (0x21..=0x7e).contains(b)));
        assert_eq!(unescape(std::str::from_utf8(&out).unwrap()), Some(all));
        assert!(!escaped(b"a=b\r", Escapes::Line).contains(['=', '\r']));
    }

    /// The byte-at-a-time escape the tables replace: the reference.
    fn escape_reference(raw: &[u8], escapes: Escapes, out: &mut Vec<u8>) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        if raw.is_empty() {
            out.extend_from_slice(b"\\0");
        }
        for &b in raw {
            match b {
                b'\\' => out.extend_from_slice(b"\\\\"),
                b' ' => out.extend_from_slice(b"\\s"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'=' if escapes == Escapes::Line => out.extend_from_slice(b"\\e"),
                b'\r' if escapes == Escapes::Line => out.extend_from_slice(b"\\r"),
                b if escapes == Escapes::Binary && !(0x21..=0x7e).contains(&b) => {
                    out.extend_from_slice(&[
                        b'\\',
                        b'x',
                        HEX[usize::from(b >> 4)],
                        HEX[usize::from(b & 15)],
                    ]);
                }
                b => out.push(b),
            }
        }
    }

    /// The byte-at-a-time unescape the tables replace: the reference.
    fn unescape_reference(token: &str) -> Option<Vec<u8>> {
        if token == "\\0" {
            return Some(Vec::new());
        }
        let hex = |d: u8| match d {
            b'0'..=b'9' => Some(d - b'0'),
            b'a'..=b'f' => Some(d - b'a' + 10),
            _ => None,
        };
        let mut out = Vec::with_capacity(token.len());
        let mut bytes = token.bytes();
        while let Some(b) = bytes.next() {
            if b != b'\\' {
                out.push(b);
                continue;
            }
            out.push(match bytes.next()? {
                b'\\' => b'\\',
                b's' => b' ',
                b't' => b'\t',
                b'n' => b'\n',
                b'r' => b'\r',
                b'e' => b'=',
                b'x' => hex(bytes.next()?)? << 4 | hex(bytes.next()?)?,
                _ => return None,
            });
        }
        Some(out)
    }

    #[test]
    fn tables_agree_with_the_byte_loops_on_every_byte() {
        let all: Vec<u8> = (0..=255u8).collect();
        for escapes in [Escapes::Separators, Escapes::Line, Escapes::Binary] {
            let mut inputs: Vec<Vec<u8>> = all.iter().map(|&b| vec![b]).collect();
            inputs.extend([Vec::new(), all.clone(), b"a  b\\=\r\n".to_vec()]);
            for raw in &inputs {
                let (mut table, mut reference) = (b"prefix ".to_vec(), b"prefix ".to_vec());
                escape(raw, escapes, &mut table);
                escape_reference(raw, escapes, &mut reference);
                assert_eq!(table, reference, "{escapes:?} {raw:?}");
                let token = String::from_utf8_lossy(&table[7..]).into_owned();
                assert_eq!(unescape(&token), unescape_reference(&token), "{token:?}");
            }
        }
        // Every escape letter and every two hex digits, well-formed or
        // not, at the end of a token and before more text.
        for a in 0..=255u8 {
            for tail in ["", "z"] {
                let token = format!("q\\{}{tail}", char::from(a));
                assert_eq!(unescape(&token), unescape_reference(&token), "{token:?}");
            }
            for b in 0..=255u8 {
                let token = format!("\\x{}{}", char::from(a), char::from(b));
                assert_eq!(unescape(&token), unescape_reference(&token), "{token:?}");
            }
            let token = format!("\\x{}", char::from(a));
            assert_eq!(unescape(&token), unescape_reference(&token), "{token:?}");
        }
    }

    #[test]
    fn malformed_escapes_are_refused() {
        for token in ["\\", "\\q", "\\x4", "\\xzz", "\\xAB", "a\\0", "\\0\\0"] {
            assert_eq!(unescape(token), None, "{token:?}");
        }
    }

    #[test]
    fn reader_reports_positions() {
        let mut r = TokenReader::new("a  7 x");
        assert_eq!(r.token(), Ok("a"));
        assert_eq!(r.token(), Ok(""), "an empty token is a token");
        assert_eq!(r.parse::<u32>("integer"), Ok(7));
        assert_eq!(
            r.parse::<u32>("integer"),
            Err(TokenError::Bad {
                at: 4,
                what: "integer",
                token: "x".into()
            })
        );
        assert_eq!(r.token(), Err(TokenError::Truncated { at: 5 }));
        let mut r = TokenReader::new("a b");
        r.token().unwrap();
        assert_eq!(
            r.finish(),
            Err(TokenError::Trailing {
                at: 2,
                token: "b".into()
            })
        );
        assert_eq!(
            TokenReader::from_bytes(&[0xff]).unwrap_err(),
            TokenError::NotUtf8
        );
    }

    #[test]
    fn a_count_the_line_cannot_hold_is_refused_before_any_item_is_read() {
        let mut r = TokenReader::new("3 a b c");
        assert_eq!(r.count(), Ok(3));
        for (line, count, room) in [("4 a b c", 4, 6), ("1", 1, 0), ("16777216", 16_777_216, 0)] {
            assert_eq!(
                TokenReader::new(line).count(),
                Err(TokenError::Count { at: 1, count, room }),
                "{line}"
            );
        }
        assert!(matches!(
            TokenReader::new("18446744073709551616").count(),
            Err(TokenError::Bad { what: "count", .. })
        ));
        assert_eq!(TokenReader::new("0").list(|r| r.f64()), Ok(vec![]));
    }

    #[test]
    fn shared_token_forms_roundtrip_bit_exact() {
        let floats = [
            0.1,
            1.0 / 3.0,
            -0.0,
            1e-300,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut mappings = vec![MeasureMapping::UNKNOWN, MeasureMapping::EXACT_IDENTITY];
        for (&a, &b) in floats.iter().zip(floats.iter().rev()) {
            for confidence in Confidence::ALL {
                mappings.push(MeasureMapping {
                    func: MappingFunction::Scale(a),
                    confidence,
                });
                mappings.push(MeasureMapping {
                    func: MappingFunction::Affine { a, b },
                    confidence,
                });
            }
        }
        let instants = [
            Instant::FOREVER,
            Instant::DAWN,
            Instant::at(-5),
            Instant::ym(2003, 1),
        ];
        let mut w = TokenWriter::new(Escapes::Separators);
        w.list(&floats, |w, x| {
            w.f64(*x);
        });
        w.list(&mappings, |w, m| {
            w.mapping(m);
        });
        w.list(&instants, |w, t| {
            w.instant(*t);
        });
        let line = w.finish();
        let mut r = TokenReader::from_bytes(&line).unwrap();
        // NaN != NaN, and -0.0 == 0.0: compare what was written.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.list(|r| r.f64()).unwrap()), bits(&floats));
        let back = r.list(|r| r.mapping()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{mappings:?}"));
        assert_eq!(r.list(|r| r.instant()).unwrap(), instants);
        r.finish().unwrap();
        for token in [
            "", "id", "id@", "id@xx", "s@am", "a1@am", "a1:x@am", "z1@am",
        ] {
            assert!(TokenReader::new(token).mapping().is_err(), "{token:?}");
        }
    }
}
