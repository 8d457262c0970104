//! # mvolap-query
//!
//! A small textual query language over the temporal multidimensional
//! model, in the spirit of Mendelzon & Vaisman's TOLAP (which the paper
//! credits for letting "the user choose in his request the way he wants
//! data to be aggregated"): every query names its *temporal mode of
//! presentation* explicitly.
//!
//! ## Syntax
//!
//! ```text
//! SELECT sum(Amount) [, max(Profit) ...]
//! BY year, Org.Division [, ...]
//! [WHERE Org.Division = 'Sales' [AND Org.Department IN ('A', 'B')]]
//! [FOR 2001..2002]
//! IN MODE tcm | VERSION 2 | AT 06/2002
//! IN ALL MODES [WITH WEIGHTS 10,8,5,0]
//!
//! SHOW VERSIONS | DIMENSIONS | MEASURES | LOG
//! SHOW DOT <dimension>
//! SHOW QUALITY <query> | GRID <query>
//! SHOW STATUS
//!
//! SPLIT Org 'Dpt.Smith' INTO 'Dpt.S1' 0.3, 'Dpt.S2' 0.7 UNDER 'R&D' AT 01/2005
//! ```
//!
//! * `BY` accepts `year`, `quarter`, `month`, `instant`, or
//!   `<dimension>.<level>` keys; with no time key the whole period
//!   aggregates together.
//! * `WHERE` slices/dices by member names at any level (conjunctive
//!   `AND`; names are single-quoted, `''` escapes a quote).
//! * `FOR a..b` restricts fact times to whole years `a..=b`.
//! * `IN MODE` selects the temporal mode: `tcm` (temporally consistent),
//!   `VERSION n` (the n-th inferred structure version), or `AT mm/yyyy`
//!   (the structure version valid at that instant). `IN ALL MODES`
//!   evaluates every mode and ranks them by the §5.2 quality factor
//!   (execute with [`run_compare_par`]; [`compare_modes`] scores a planned
//!   query in every mode, in TMP order).
//! * `SHOW` reads the §5 metadata tier: structure versions, dimensions,
//!   measures, the evolution log, a dimension as GraphViz DOT, a
//!   query's quality factor per mode or its answer as a pivot grid.
//!   [`parse_statement`] reads statements, [`parse`] queries only, and
//!   [`render_answer`] renders either; only a server answers `STATUS`.
//! * The evolution statements are Table 11, one row of [`OPERATORS`]
//!   per operator kind of the write-ahead log; [`Evolve::resolve`]
//!   turns one into its record. A backend commits it, a read refuses it.
//!
//! [`CubeView`] navigates a query the way the §5.2 front end does:
//! roll-up and drill-down rewrite its group-by and time levels, slice,
//! dice and rotate act on the rendered rows, and every read re-evaluates
//! the query against the caller's memo.
//!
//! ## Example
//!
//! ```
//! use mvolap_core::case_study::case_study;
//! use mvolap_query::run;
//!
//! let cs = case_study();
//! let rs = run(&cs.tmd, "SELECT sum(Amount) BY year, Org.Division \
//!                        FOR 2001..2002 IN MODE tcm").unwrap();
//! assert_eq!(rs.rows.len(), 4); // paper Table 4
//! ```

pub mod ast;
pub mod error;
pub mod evolve;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod view;

pub use ast::{GroupKey, ModeSpec, Query, Select, Statement};
pub use error::QueryError;
pub use evolve::{Evolve, Named, Operator, OPERATORS};
pub use lexer::{tokenize, Token, TokenKind};
pub use parser::{parse, parse_statement};
pub use plan::{
    compare_modes, is_all_modes, plan, render_answer, render_statement, run, run_compare_par,
    run_with_versions_par, ModeResult,
};
pub use view::CubeView;
