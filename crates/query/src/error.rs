//! Query-language errors with source positions.

use mvolap_core::CoreError;

/// An error raised while lexing, parsing, planning or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// An unexpected character in the input.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Byte offset in the query string.
        at: usize,
    },
    /// The parser expected something else.
    Unexpected {
        /// What was expected.
        expected: String,
        /// What was found (token text or `end of input`).
        found: String,
        /// Byte offset in the query string.
        at: usize,
    },
    /// A number failed to parse or was out of range.
    BadNumber {
        /// The literal text.
        text: String,
        /// Byte offset.
        at: usize,
    },
    /// Name resolution failed during planning.
    Unresolved(String),
    /// The requested aggregate disagrees with the measure's configured
    /// aggregate function.
    AggregatorMismatch {
        /// The measure name.
        measure: String,
        /// Aggregate requested in the query.
        requested: String,
        /// Aggregate the schema defines.
        configured: String,
    },
    /// More than one time key in the `BY` clause.
    MultipleTimeKeys,
    /// Execution failed in the core engine.
    Core(CoreError),
    /// `SHOW STATUS` describes a serving node, and a schema alone has
    /// none.
    NoServer,
    /// An evolution (its keyword) changes the schema; a read cannot.
    NotARead(&'static str),
}

impl From<CoreError> for QueryError {
    fn from(e: CoreError) -> Self {
        QueryError::Core(e)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnexpectedChar { ch, at } => {
                write!(f, "unexpected character `{ch}` at byte {at}")
            }
            QueryError::Unexpected {
                expected,
                found,
                at,
            } => {
                write!(f, "expected {expected}, found `{found}` at byte {at}")
            }
            QueryError::BadNumber { text, at } => {
                write!(f, "bad number `{text}` at byte {at}")
            }
            QueryError::Unresolved(msg) => write!(f, "cannot resolve {msg}"),
            QueryError::AggregatorMismatch {
                measure,
                requested,
                configured,
            } => write!(
                f,
                "measure `{measure}` aggregates with {configured}, not {requested}"
            ),
            QueryError::MultipleTimeKeys => {
                write!(f, "at most one time key (year/instant) is allowed in BY")
            }
            QueryError::Core(e) => write!(f, "execution error: {e}"),
            QueryError::NoServer => write!(f, "SHOW STATUS is answered by a session server"),
            QueryError::NotARead(kw) => {
                write!(f, "{kw} changes the schema, so a read cannot run it")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
