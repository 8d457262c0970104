//! # mvolap-core
//!
//! The temporal multidimensional model of *Body, Miquel, Bédard &
//! Tchounikine, "Handling Evolutions in Multidimensional Structures",
//! IEEE ICDE 2003* — a multiversion OLAP model in which dimension
//! instances carry valid time, structure versions are inferred rather
//! than declared, and mapping relationships keep data comparable across
//! merges, splits and reclassifications.
//!
//! ## Model walk-through (paper definitions → modules)
//!
//! | Definition | Concept | Module |
//! |---|---|---|
//! | 1 | Member Version | [`member`] |
//! | 2–3 | Temporal Relationship / Dimension | [`dimension`] |
//! | 4 | Levels | [`levels`] |
//! | 5 | Temporally Consistent Fact Table | [`fact`] |
//! | 6 | Confidence Factor + `⊗cf` | [`confidence`] |
//! | 7 | Mapping Relationship | [`mapping`] |
//! | 8 | Temporal Multidimensional Schema | [`schema`] |
//! | 9 | Structure Version | [`structure_version`] |
//! | 10 | Temporal Mode of Presentation | [`tmp`] |
//! | 11 | MultiVersion Fact Table | [`multiversion`] |
//! | 12 | Data Aggregation | [`aggregate`] |
//! | 11–12 | The one `⊕m`/`⊗cf` cell and ordered group-by under both | [`fold`] |
//! | §3.2 | Evolution operators | [`evolution`] |
//! | §4–5 | Logical adaptation / relational export | [`logical`] |
//! | §5.2 | Metadata | [`metadata`] |
//! | §5.1 | The Temporal DW on disk: snapshot image over the shared token layer | [`persist`], [`token`] |
//!
//! ## Quick start
//!
//! ```
//! use mvolap_core::case_study::case_study;
//! use mvolap_core::aggregate::{evaluate_par, AggregateQuery};
//! use mvolap_core::tmp::TemporalMode;
//! use mvolap_core::{ExecContext, QueryMemo};
//! use mvolap_temporal::Interval;
//!
//! // The paper's running example: an institution whose Organization
//! // dimension evolves across 2001-2003.
//! let cs = case_study();
//! let svs = cs.tmd.structure_versions();
//! assert_eq!(svs.len(), 3);
//!
//! // Q1: total amount by year and division, temporally consistent.
//! let q1 = AggregateQuery::by_year(cs.org, "Division", TemporalMode::Consistent)
//!     .in_range(Interval::years(2001, 2002));
//! let memo = QueryMemo::new();
//! let result = evaluate_par(&cs.tmd, &svs, &q1, &ExecContext::sequential(), &memo).unwrap();
//! assert_eq!(result.rows.len(), 4);
//! assert_eq!(result.rows[0].keys[0], "Sales");
//! assert_eq!(result.rows[0].cells[0].value, Some(150.0));
//! ```

pub mod aggregate;
pub mod case_study;
pub mod confidence;
pub mod dimension;
pub mod error;
pub mod evolution;
pub mod fact;
pub mod fold;
pub mod ids;
pub mod levels;
pub mod logical;
pub mod mapping;
pub mod member;
pub mod memo;
pub mod metadata;
pub mod multiversion;
pub mod persist;
pub mod result;
pub mod schema;
pub mod structure_version;
pub mod tmp;
pub mod token;

pub use aggregate::{evaluate_par, AggregateQuery, ResultRow, ResultSet, TimeLevel};
pub use confidence::{CellColour, Confidence, ConfidenceAlgebra, ConfidenceWeights};
pub use dimension::{DimensionSnapshot, TemporalDimension, TemporalRelationship};
pub use error::{CoreError, Result};
pub use fact::{Aggregator, FactTable, MeasureDef};
pub use ids::{DimensionId, MeasureId, MemberVersionId, StructureVersionId};
pub use mapping::{
    MappingFunction, MappingGraph, MappingRelationship, MeasureMapping, RouteDirection,
};
pub use member::{MemberVersion, MemberVersionSpec};
pub use memo::{MemoStats, QueryMemo, ShardedMemo};
pub use multiversion::{
    present_par, DeltaMvft, MultiVersionFactTable, MvCell, MvRow, PresentedFacts,
};
pub use mvolap_exec::ExecContext;
pub use schema::Tmd;
pub use structure_version::{infer_structure_versions, structure_version_at, StructureVersion};
pub use tmp::{all_modes, TemporalMode};
