//! [`EvolutionTarget`]: the load destination abstraction.
//!
//! The loaders in [`crate::load`] resolve source names against the
//! current schema and spell each detected change as the
//! [`WalRecord`] of its §3.2 evolution operator — the one operator
//! vocabulary the journal, the shell and replication already share. A
//! destination only has to take such a record:
//!
//! * [`Tmd`] — applies it in memory, errors are [`CoreError`];
//! * [`DurableTmd`] — journals it to the write-ahead log, then applies
//!   it; errors are [`DurableError`] (which subsumes `CoreError`).

use mvolap_core::{CoreError, Tmd};
use mvolap_durable::{DurableError, DurableTmd, FactRow, WalRecord};
use mvolap_temporal::Instant;

/// A destination the ETL loaders can apply evolution operators and fact
/// batches to.
pub trait EvolutionTarget {
    /// The error the destination raises; every model violation is a
    /// [`CoreError`] underneath.
    type Error: From<CoreError>;

    /// Read access to the current schema (name resolution, arity).
    fn schema(&self) -> &Tmd;

    /// Applies one evolution operator or fact batch (one WAL record on
    /// a durable destination).
    ///
    /// # Errors
    ///
    /// Evolution-operator and fact-validation violations; journaling
    /// failures for durable destinations.
    fn apply(&mut self, record: WalRecord) -> Result<(), Self::Error>;
}

impl EvolutionTarget for Tmd {
    type Error = CoreError;

    fn schema(&self) -> &Tmd {
        self
    }

    fn apply(&mut self, record: WalRecord) -> Result<(), CoreError> {
        record.apply(self)
    }
}

impl EvolutionTarget for DurableTmd {
    type Error = DurableError;

    fn schema(&self) -> &Tmd {
        DurableTmd::schema(self)
    }

    fn apply(&mut self, record: WalRecord) -> Result<(), DurableError> {
        DurableTmd::apply(self, record).map(|_| ())
    }
}

/// One source fact, addressed by member names (the form operational
/// sources deliver).
#[derive(Debug, Clone, PartialEq)]
pub struct FactRecord {
    /// One member name per dimension.
    pub coords: Vec<String>,
    /// Fact time.
    pub at: Instant,
    /// One value per measure.
    pub values: Vec<f64>,
}

/// Loads a batch of source facts into `target`: every name is resolved
/// to the member version valid at the row's own time, then the whole
/// batch lands as one [`WalRecord::FactBatch`]. Returns the number of
/// rows loaded.
///
/// # Errors
///
/// Name-resolution failures, fact validation (Definition 5), and the
/// destination's journaling errors. Nothing is applied on error: the
/// batch resolves fully before any row lands.
pub fn load_facts<T: EvolutionTarget>(
    target: &mut T,
    records: &[FactRecord],
) -> Result<usize, T::Error> {
    let mut rows = Vec::with_capacity(records.len());
    {
        let tmd = target.schema();
        let dims = tmd.dimensions();
        for record in records {
            if record.coords.len() != dims.len() {
                return Err(CoreError::CoordinateArityMismatch {
                    expected: dims.len(),
                    actual: record.coords.len(),
                }
                .into());
            }
            let mut coords = Vec::with_capacity(record.coords.len());
            for (dim, name) in dims.iter().zip(&record.coords) {
                coords.push(dim.version_named_at(name, record.at)?.id);
            }
            rows.push(FactRow {
                coords,
                at: record.at,
                values: record.values.clone(),
            });
        }
    }
    let n = rows.len();
    target.apply(WalRecord::FactBatch { rows })?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvolap_core::case_study;

    #[test]
    fn load_facts_resolves_names_per_row_time() {
        let mut tmd = case_study::case_study().tmd;
        let before = tmd.facts().len();
        let n = load_facts(
            &mut tmd,
            &[
                FactRecord {
                    coords: vec!["Dpt.Jones".into()],
                    at: Instant::ym(2002, 6),
                    values: vec![12.0],
                },
                FactRecord {
                    coords: vec!["Dpt.Bill".into()],
                    at: Instant::ym(2003, 6),
                    values: vec![34.0],
                },
            ],
        )
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(tmd.facts().len(), before + 2);
    }

    #[test]
    fn load_facts_is_all_or_nothing_on_resolution_failure() {
        let mut tmd = case_study::case_study().tmd;
        let before = tmd.facts().len();
        // Jones is gone by 2003: resolution fails, nothing loads.
        let err = load_facts(
            &mut tmd,
            &[
                FactRecord {
                    coords: vec!["Dpt.Brian".into()],
                    at: Instant::ym(2003, 6),
                    values: vec![1.0],
                },
                FactRecord {
                    coords: vec!["Dpt.Jones".into()],
                    at: Instant::ym(2003, 6),
                    values: vec![2.0],
                },
            ],
        );
        assert!(err.is_err());
        assert_eq!(tmd.facts().len(), before);
    }

    #[test]
    fn durable_target_journals_the_loaders_operations() {
        let dir = std::env::temp_dir().join(format!("mvolap_etl_tgt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cs = case_study::case_study();
        let mut store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
        let lsn0 = store.wal_position();
        load_facts(
            &mut store,
            &[FactRecord {
                coords: vec!["Dpt.Brian".into()],
                at: Instant::ym(2003, 6),
                values: vec![9.0],
            }],
        )
        .unwrap();
        assert_eq!(store.wal_position(), lsn0 + 1, "one batch, one record");
        let n = store.schema().facts().len();
        drop(store);
        let reopened = DurableTmd::open(&dir).unwrap();
        assert_eq!(reopened.schema().facts().len(), n);
        std::fs::remove_dir_all(&dir).ok();
    }
}
