//! # mvolap — MultiVersion OLAP
//!
//! A from-scratch Rust implementation of *Body, Miquel, Bédard &
//! Tchounikine, "Handling Evolutions in Multidimensional Structures",
//! IEEE ICDE 2003*: a temporal multidimensional model whose dimension
//! instances carry valid time, whose structure versions are inferred,
//! and whose mapping relationships keep data comparable across merges,
//! splits and reclassifications — plus the full substrate stack the
//! paper's prototype sat on (relational warehouse engine, ETL with SCD
//! baselines, query language with cube navigation, workload generators).
//!
//! This facade re-exports the workspace crates:
//!
//! | Crate | Role |
//! |---|---|
//! | [`temporal`] | Discrete instants, validity intervals, timeline partition |
//! | [`storage`] | In-memory columnar relational engine ("warehouse server") |
//! | [`exec`] | Morsel-parallel execution engine + generation-keyed memo cache |
//! | [`core`] | The paper's model: Definitions 1–12 + evolution operators |
//! | [`etl`] | Snapshot change detection, loaders, SCD Type 1/2/3 baselines |
//! | [`durable`] | Write-ahead log, checkpointing and crash recovery |
//! | [`replica`] | WAL-shipping replication, divergence detection, failover |
//! | [`server`] | Concurrent session server: group commit, replica read routing |
//! | [`cluster`] | Quorum-replicated commit, leader election, fleet read bounds |
//! | [`query`] | Textual query language with `IN MODE` temporal presentation; cube navigation as query rewrites |
//! | [`workload`] | Seeded evolving-hierarchy and fact generators |
//!
//! ## Quick start
//!
//! ```
//! use mvolap::prelude::*;
//!
//! // The paper's case study: an institution restructured across
//! // 2001-2003 (Smith's department moves, Jones's splits 40/60).
//! let cs = mvolap::core::case_study::case_study();
//!
//! // Ask Q1 under the three interpretations the paper contrasts.
//! for mode in ["tcm", "VERSION 0", "VERSION 1"] {
//!     let rs = mvolap::query::run(
//!         &cs.tmd,
//!         &format!("SELECT sum(Amount) BY year, Org.Division \
//!                   FOR 2001..2002 IN MODE {mode}"),
//!     ).unwrap();
//!     assert_eq!(rs.rows.len(), 4);
//! }
//! ```

pub use mvolap_cluster as cluster;
pub use mvolap_core as core;
pub use mvolap_durable as durable;
pub use mvolap_etl as etl;
pub use mvolap_exec as exec;
pub use mvolap_query as query;
pub use mvolap_replica as replica;
pub use mvolap_server as server;
pub use mvolap_storage as storage;
pub use mvolap_temporal as temporal;
pub use mvolap_workload as workload;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use mvolap_core::{
        evaluate_par, AggregateQuery, Aggregator, Confidence, ConfidenceWeights, DimensionId,
        ExecContext, MeasureDef, MemberVersionId, MemberVersionSpec, MultiVersionFactTable,
        QueryMemo, StructureVersionId, TemporalDimension, TemporalMode, TimeLevel, Tmd,
    };
    pub use mvolap_temporal::{Granularity, Instant, Interval};
}
