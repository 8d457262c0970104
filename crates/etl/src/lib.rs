//! # mvolap-etl
//!
//! The ETL tier of the §5.1 architecture: operational sources deliver
//! periodic *snapshots* of an analysis dimension; change detection
//! derives evolution events; loaders apply them either to the temporal
//! multidimensional schema (the paper's model) or to Kimball-style
//! **Slowly Changing Dimension** tables — the Type 1/2/3 baselines the
//! paper's §1.2 discusses and improves upon.
//!
//! * [`snapshot`] — the source snapshot model and differ;
//! * [`load`] — applying detected changes to any [`EvolutionTarget`];
//! * [`target`] — the load destination abstraction: a bare
//!   [`mvolap_core::Tmd`] or a journaled [`mvolap_durable::DurableTmd`],
//!   plus [`load_facts`] for fact batches;
//! * [`scd`] — SCD Type 1 (overwrite), Type 2 (row versioning) and
//!   Type 3 (previous-value column) dimension maintainers, used as
//!   baselines by the benchmark suite.

pub mod load;
pub mod scd;
pub mod snapshot;
pub mod target;

pub use load::{apply_changes, apply_changes_with_hints, bootstrap, EvolutionHint, LoadReport};
pub use scd::{Scd1Dimension, Scd2Dimension, Scd3Dimension};
pub use snapshot::{diff, ChangeEvent, Snapshot, SnapshotRow};
pub use target::{load_facts, EvolutionTarget, FactRecord};
