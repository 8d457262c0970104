//! Loading detected changes into a temporal multidimensional schema.
//!
//! Each loader is generic over [`EvolutionTarget`], so the same change
//! stream lands either directly in a [`Tmd`](mvolap_core::Tmd) or —
//! journaled through the write-ahead log — in a
//! [`mvolap_durable::DurableTmd`]. Every change is an evolution
//! statement ([`Evolve`]) of the one operator table,
//! [`mvolap_query::OPERATORS`], whose row resolves the source's names
//! into the operator's record.

use mvolap_core::{CoreError, DimensionId};
use mvolap_query::{Evolve, Named};
use mvolap_temporal::Instant;

use crate::snapshot::{ChangeEvent, Snapshot, SnapshotRow};
use crate::target::EvolutionTarget;

/// Administrator-supplied knowledge about an evolution that a snapshot
/// diff cannot infer: a member that disappeared while others appeared is
/// ambiguous between deletion+creation, a split, and a merge. The paper
/// assumes this knowledge exists ("mapping functions … are based on
/// knowledge around evolution operations"); hints are how the loader
/// receives it.
#[derive(Debug, Clone, PartialEq)]
pub enum EvolutionHint {
    /// `member` split into `parts`, each receiving the given fraction of
    /// every measure (forward approximate; backward exact identity).
    Split {
        /// The disappearing member.
        member: String,
        /// New members with their measure shares (should sum to 1).
        parts: Vec<(String, f64)>,
    },
    /// `sources` merged into `into`; each source maps forward
    /// identically and receives its fraction of the merged member
    /// backward.
    Merge {
        /// Disappearing members with their backward shares.
        sources: Vec<(String, f64)>,
        /// The new merged member.
        into: String,
    },
}

/// What a load pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Members created.
    pub created: usize,
    /// Members excluded.
    pub deleted: usize,
    /// Members reclassified.
    pub reclassified: usize,
    /// Members transformed (attribute changes).
    pub transformed: usize,
}

/// Names without shares.
fn named<'a>(names: impl IntoIterator<Item = &'a String>) -> Vec<Named> {
    names.into_iter().map(|name| (name.clone(), None)).collect()
}

/// The name the statements address `dim` by.
fn name_of<T: EvolutionTarget>(target: &T, dim: DimensionId) -> Result<String, CoreError> {
    Ok(target.schema().dimension(dim)?.name().to_owned())
}

/// Creates `rows` at `at`, in passes: a row whose parent does not
/// resolve yet (a department under a division created in the same
/// batch) waits for the next pass, and a pass that creates nothing
/// fails. Returns the number created.
fn create_rows<T: EvolutionTarget>(
    target: &mut T,
    dim: DimensionId,
    mut rows: Vec<&SnapshotRow>,
    at: Instant,
) -> Result<usize, T::Error> {
    let (created, dimension) = (rows.len(), name_of(target, dim)?);
    while !rows.is_empty() {
        let before = rows.len();
        let mut rest = Vec::new();
        for row in rows {
            let create = Evolve {
                level: row.level.clone(),
                under: named(&row.parent),
                ..Evolve::new("CREATE", &dimension, named([&row.member]), at)
            };
            match create.resolve(target.schema()) {
                Ok(record) => target.apply(record)?,
                Err(_) => rest.push(row),
            }
        }
        if rest.len() == before {
            let names: Vec<&str> = rest.iter().map(|r| r.member.as_str()).collect();
            let msg = format!("members have unresolvable parents: {}", names.join(", "));
            return Err(CoreError::InvalidEvolution(msg).into());
        }
        rows = rest;
    }
    Ok(created)
}

/// Applies snapshot-diff events to a load destination at instant `at`,
/// through the §3.2 evolution operators:
///
/// * `Created` → `CREATE` (Insert), parents first;
/// * `Deleted` → `DELETE` (Exclude);
/// * `Reclassified` → `RECLASSIFY` (the conceptual-model operator,
///   which keeps the member version and re-wires its relationships);
/// * `AttributesChanged` → `RENAME` to the same name (Transform:
///   Exclude + Insert + equivalence Associate).
///
/// # Errors
///
/// Name-resolution failures, evolution-operator violations, and — for a
/// durable destination — journaling failures.
pub fn apply_changes<T: EvolutionTarget>(
    target: &mut T,
    dim: DimensionId,
    events: &[ChangeEvent],
    at: Instant,
) -> Result<LoadReport, T::Error> {
    let rows = events.iter().filter_map(|e| match e {
        ChangeEvent::Created { row } => Some(row),
        _ => None,
    });
    let mut report = LoadReport {
        created: create_rows(target, dim, rows.collect(), at)?,
        ..LoadReport::default()
    };
    let dimension = name_of(target, dim)?;
    let op = |keyword, member| Evolve::new(keyword, &dimension, named([member]), at);
    for event in events {
        let e = match event {
            ChangeEvent::Created { .. } => continue,
            ChangeEvent::Deleted { member } => {
                report.deleted += 1;
                op("DELETE", member)
            }
            ChangeEvent::Reclassified {
                member,
                old_parent,
                new_parent,
            } => {
                report.reclassified += 1;
                Evolve {
                    from: named(old_parent),
                    to: named(new_parent),
                    ..op("RECLASSIFY", member)
                }
            }
            ChangeEvent::AttributesChanged { member, attributes } => {
                report.transformed += 1;
                Evolve {
                    to: named([member]),
                    with: attributes.clone(),
                    ..op("RENAME", member)
                }
            }
        };
        target.apply(e.resolve(target.schema())?)?;
    }
    Ok(report)
}

/// Applies snapshot-diff events with administrator hints: hinted splits
/// and merges consume their matching `Deleted`/`Created` events and run
/// the corresponding high-level operator (wiring mapping relationships);
/// everything left over flows through [`apply_changes`].
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] when a hint references members the
/// diff does not actually report as deleted/created; plus everything
/// [`apply_changes`] raises.
pub fn apply_changes_with_hints<T: EvolutionTarget>(
    target: &mut T,
    dim: DimensionId,
    events: &[ChangeEvent],
    hints: &[EvolutionHint],
    at: Instant,
) -> Result<LoadReport, T::Error> {
    let deleted = |name: &str, what: &str| {
        let mut deletes = events.iter();
        let gone = deletes.any(|e| matches!(e, ChangeEvent::Deleted { member } if member == name));
        let msg = || invalid(format!("{what} `{name}` is not deleted by the snapshot"));
        gone.then_some(()).ok_or_else(msg)
    };
    let created = |name: &str, what: &str| {
        let row = events.iter().find_map(|e| match e {
            ChangeEvent::Created { row } if row.member == name => Some(row),
            _ => None,
        });
        row.ok_or_else(|| invalid(format!("{what} `{name}` is not created by the snapshot")))
    };
    let dimension = name_of(target, dim)?;
    let mut report = LoadReport::default();
    for hint in hints {
        let e = match hint {
            EvolutionHint::Split { member, parts } => {
                deleted(member, "split hint member")?;
                let mut split = Evolve::new("SPLIT", &dimension, named([member]), at);
                for (part, share) in parts {
                    for parent in named(&created(part, "split hint part")?.parent) {
                        if !split.under.contains(&parent) {
                            split.under.push(parent);
                        }
                    }
                    split.to.push((part.clone(), Some(*share)));
                }
                report.deleted += 1;
                report.created += parts.len();
                split
            }
            EvolutionHint::Merge { sources, into } => {
                let row = created(into, "merge hint target")?;
                for (source, _) in sources {
                    deleted(source, "merge hint source")?;
                }
                report.deleted += sources.len();
                report.created += 1;
                let members = sources.iter().map(|(s, k)| (s.clone(), Some(*k))).collect();
                Evolve {
                    to: named([into]),
                    level: row.level.clone(),
                    under: named(&row.parent),
                    ..Evolve::new("MERGE", &dimension, members, at)
                }
            }
        };
        target.apply(e.resolve(target.schema())?)?;
    }

    // Everything not consumed by a hint loads the plain way.
    let hinted = |e: &&ChangeEvent| {
        use ChangeEvent::{Created, Deleted};
        use EvolutionHint::{Merge, Split};
        hints.iter().any(|hint| match (hint, e) {
            (Split { member, .. }, Deleted { member: m }) => member == m,
            (Split { parts, .. }, Created { row }) => parts.iter().any(|(p, _)| *p == row.member),
            (Merge { sources, .. }, Deleted { member }) => sources.iter().any(|(s, _)| s == member),
            (Merge { into, .. }, Created { row }) => *into == row.member,
            _ => false,
        })
    };
    let remaining: Vec<ChangeEvent> = events.iter().filter(|e| !hinted(e)).cloned().collect();
    let rest = apply_changes(target, dim, &remaining, at)?;
    report.created += rest.created;
    report.deleted += rest.deleted;
    report.reclassified += rest.reclassified;
    report.transformed += rest.transformed;
    Ok(report)
}

fn invalid(msg: String) -> CoreError {
    CoreError::InvalidEvolution(msg)
}

/// Bootstraps an empty dimension from its first snapshot: every root
/// first, then children (single-parent snapshots only — the flat source
/// format cannot express multi-parent members).
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] when a parent is missing from the
/// snapshot itself.
pub fn bootstrap<T: EvolutionTarget>(
    target: &mut T,
    dim: DimensionId,
    snapshot: &Snapshot,
) -> Result<LoadReport, T::Error> {
    let rows = snapshot.rows.values().collect();
    Ok(LoadReport {
        created: create_rows(target, dim, rows, snapshot.period)?,
        ..LoadReport::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::diff;
    use crate::target::{load_facts, FactRecord};
    use mvolap_core::Tmd;
    use mvolap_core::{MeasureDef, TemporalDimension};
    use mvolap_durable::DurableTmd;
    use mvolap_temporal::Granularity;

    fn empty_schema() -> (Tmd, DimensionId) {
        let mut tmd = Tmd::new("etl", Granularity::Month);
        let dim = tmd.add_dimension(TemporalDimension::new("Org")).unwrap();
        tmd.add_measure(MeasureDef::summed("Amount")).unwrap();
        (tmd, dim)
    }

    fn org_2001() -> Snapshot {
        Snapshot::new(
            Instant::ym(2001, 1),
            [
                SnapshotRow::new("Sales", None).at_level("Division"),
                SnapshotRow::new("R&D", None).at_level("Division"),
                SnapshotRow::new("Dpt.Jones", Some("Sales")).at_level("Department"),
                SnapshotRow::new("Dpt.Smith", Some("Sales")).at_level("Department"),
                SnapshotRow::new("Dpt.Brian", Some("R&D")).at_level("Department"),
            ],
        )
    }

    fn org_2002() -> Snapshot {
        let mut s = org_2001();
        s.period = Instant::ym(2002, 1);
        s.rows.get_mut("Dpt.Smith").unwrap().parent = Some("R&D".into());
        s
    }

    #[test]
    fn bootstrap_builds_the_2001_org() {
        let (mut tmd, dim) = empty_schema();
        let report = bootstrap(&mut tmd, dim, &org_2001()).unwrap();
        assert_eq!(report.created, 5);
        let d = tmd.dimension(dim).unwrap();
        let smith = d
            .version_named_at("Dpt.Smith", Instant::ym(2001, 6))
            .unwrap()
            .id;
        let sales = d
            .version_named_at("Sales", Instant::ym(2001, 6))
            .unwrap()
            .id;
        assert_eq!(d.parents_at(smith, Instant::ym(2001, 6)), vec![sales]);
    }

    #[test]
    fn bootstrap_rejects_dangling_parents() {
        let (mut tmd, dim) = empty_schema();
        let bad = Snapshot::new(
            Instant::ym(2001, 1),
            [SnapshotRow::new("Dpt.Lost", Some("Ghost"))],
        );
        assert!(matches!(
            bootstrap(&mut tmd, dim, &bad),
            Err(CoreError::InvalidEvolution(_))
        ));
    }

    #[test]
    fn incremental_load_reproduces_smith_reclassification() {
        let (mut tmd, dim) = empty_schema();
        bootstrap(&mut tmd, dim, &org_2001()).unwrap();
        let events = diff(&org_2001(), &org_2002());
        let report = apply_changes(&mut tmd, dim, &events, Instant::ym(2002, 1)).unwrap();
        assert_eq!(report.reclassified, 1);
        let d = tmd.dimension(dim).unwrap();
        let smith = d
            .version_named_at("Dpt.Smith", Instant::ym(2002, 6))
            .unwrap()
            .id;
        let rnd = d.version_named_at("R&D", Instant::ym(2002, 6)).unwrap().id;
        assert_eq!(d.parents_at(smith, Instant::ym(2002, 6)), vec![rnd]);
        // Two structure versions now exist.
        assert_eq!(tmd.structure_versions().len(), 2);
    }

    #[test]
    fn incremental_load_handles_create_and_delete() {
        let (mut tmd, dim) = empty_schema();
        bootstrap(&mut tmd, dim, &org_2001()).unwrap();
        let mut next = org_2001();
        next.period = Instant::ym(2002, 1);
        next.rows.remove("Dpt.Jones");
        next.rows.insert(
            "Dpt.New".into(),
            SnapshotRow::new("Dpt.New", Some("Sales")).at_level("Department"),
        );
        let events = diff(&org_2001(), &next);
        let report = apply_changes(&mut tmd, dim, &events, Instant::ym(2002, 1)).unwrap();
        assert_eq!(report.created, 1);
        assert_eq!(report.deleted, 1);
        let d = tmd.dimension(dim).unwrap();
        assert!(d
            .version_named_at("Dpt.Jones", Instant::ym(2002, 6))
            .is_err());
        assert!(d.version_named_at("Dpt.New", Instant::ym(2002, 6)).is_ok());
    }

    #[test]
    fn split_hint_wires_mapping_relationships() {
        // The paper's 2003 evolution through the ETL path: Jones
        // disappears, Bill/Paul appear, and the administrator supplies
        // the 40/60 split knowledge.
        let (mut tmd, dim) = empty_schema();
        bootstrap(&mut tmd, dim, &org_2001()).unwrap();
        let mut next = org_2001();
        next.period = Instant::ym(2003, 1);
        next.rows.remove("Dpt.Jones");
        for name in ["Dpt.Bill", "Dpt.Paul"] {
            next.rows.insert(
                name.into(),
                SnapshotRow::new(name, Some("Sales")).at_level("Department"),
            );
        }
        let events = diff(&org_2001(), &next);
        let hints = [EvolutionHint::Split {
            member: "Dpt.Jones".into(),
            parts: vec![("Dpt.Bill".into(), 0.4), ("Dpt.Paul".into(), 0.6)],
        }];
        let report =
            apply_changes_with_hints(&mut tmd, dim, &events, &hints, Instant::ym(2003, 1)).unwrap();
        assert_eq!(report.created, 2);
        assert_eq!(report.deleted, 1);
        // Mapping relationships exist — unlike a plain delete+create.
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels.len(), 2);
        // And data is now comparable across the transition, paper
        // Table 10 style.
        tmd.add_fact_by_names(&["Dpt.Jones"], Instant::ym(2002, 6), &[100.0])
            .unwrap();
        let svs = tmd.structure_versions();
        let last = svs.last().unwrap().id;
        let p = mvolap_core::present_par(
            &tmd,
            &svs,
            &mvolap_core::TemporalMode::Version(last),
            &mvolap_core::ExecContext::sequential(),
            &mvolap_core::QueryMemo::new(),
        )
        .unwrap();
        assert_eq!(p.unmapped_rows, 0);
    }

    #[test]
    fn merge_hint_wires_mapping_relationships() {
        let (mut tmd, dim) = empty_schema();
        bootstrap(&mut tmd, dim, &org_2001()).unwrap();
        let mut next = org_2001();
        next.period = Instant::ym(2003, 1);
        next.rows.remove("Dpt.Jones");
        next.rows.remove("Dpt.Smith");
        next.rows.insert(
            "Dpt.Mega".into(),
            SnapshotRow::new("Dpt.Mega", Some("Sales")).at_level("Department"),
        );
        let events = diff(&org_2001(), &next);
        let hints = [EvolutionHint::Merge {
            sources: vec![("Dpt.Jones".into(), 0.7), ("Dpt.Smith".into(), 0.3)],
            into: "Dpt.Mega".into(),
        }];
        let report =
            apply_changes_with_hints(&mut tmd, dim, &events, &hints, Instant::ym(2003, 1)).unwrap();
        assert_eq!(report.created, 1);
        assert_eq!(report.deleted, 2);
        assert_eq!(tmd.mapping_graph(dim).unwrap().relationships().len(), 2);
    }

    #[test]
    fn hints_must_match_the_diff() {
        let (mut tmd, dim) = empty_schema();
        bootstrap(&mut tmd, dim, &org_2001()).unwrap();
        let events = diff(&org_2001(), &org_2002());
        // Smith is reclassified, not deleted: a split hint on it is
        // inconsistent.
        let hints = [EvolutionHint::Split {
            member: "Dpt.Smith".into(),
            parts: vec![("Dpt.X".into(), 1.0)],
        }];
        assert!(matches!(
            apply_changes_with_hints(&mut tmd, dim, &events, &hints, Instant::ym(2002, 1)),
            Err(CoreError::InvalidEvolution(_))
        ));
    }

    #[test]
    fn attribute_change_creates_a_new_version_with_equivalence() {
        let (mut tmd, dim) = empty_schema();
        bootstrap(&mut tmd, dim, &org_2001()).unwrap();
        let mut next = org_2001();
        next.period = Instant::ym(2002, 1);
        next.rows
            .get_mut("Dpt.Brian")
            .unwrap()
            .attributes
            .insert("budget".into(), "high".into());
        let events = diff(&org_2001(), &next);
        let report = apply_changes(&mut tmd, dim, &events, Instant::ym(2002, 1)).unwrap();
        assert_eq!(report.transformed, 1);
        let d = tmd.dimension(dim).unwrap();
        // Two versions of Brian's department now exist.
        assert_eq!(d.versions_named("Dpt.Brian").len(), 2);
        assert_eq!(tmd.mapping_graph(dim).unwrap().relationships().len(), 1);
    }

    /// The full §5.1 pipeline against a durable destination: bootstrap,
    /// facts, a hinted split — every step journaled — then recovery from
    /// disk alone reproduces the identical schema.
    #[test]
    fn etl_pipeline_is_journaled_end_to_end() {
        let dir = std::env::temp_dir().join(format!("mvolap_etl_wal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (tmd, dim) = empty_schema();
        let mut store = DurableTmd::create(&dir, tmd).unwrap();

        bootstrap(&mut store, dim, &org_2001()).unwrap();
        load_facts(
            &mut store,
            &[FactRecord {
                coords: vec!["Dpt.Jones".into()],
                at: Instant::ym(2002, 6),
                values: vec![100.0],
            }],
        )
        .unwrap();
        let mut next = org_2001();
        next.period = Instant::ym(2003, 1);
        next.rows.remove("Dpt.Jones");
        for name in ["Dpt.Bill", "Dpt.Paul"] {
            next.rows.insert(
                name.into(),
                SnapshotRow::new(name, Some("Sales")).at_level("Department"),
            );
        }
        let events = diff(&org_2001(), &next);
        let hints = [EvolutionHint::Split {
            member: "Dpt.Jones".into(),
            parts: vec![("Dpt.Bill".into(), 0.4), ("Dpt.Paul".into(), 0.6)],
        }];
        let report =
            apply_changes_with_hints(&mut store, dim, &events, &hints, Instant::ym(2003, 1))
                .unwrap();
        assert_eq!(report.created, 2);
        assert_eq!(report.deleted, 1);

        let mut before = Vec::new();
        mvolap_core::persist::write_tmd(store.schema(), &mut before).unwrap();
        drop(store);

        let reopened = DurableTmd::open(&dir).unwrap();
        let mut after = Vec::new();
        mvolap_core::persist::write_tmd(reopened.schema(), &mut after).unwrap();
        assert_eq!(after, before);
        assert_eq!(
            reopened
                .schema()
                .mapping_graph(dim)
                .unwrap()
                .relationships()
                .len(),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
