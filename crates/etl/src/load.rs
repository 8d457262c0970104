//! Loading detected changes into a temporal multidimensional schema.
//!
//! Each loader is generic over [`EvolutionTarget`], so the same change
//! stream lands either directly in a [`Tmd`] or — journaled through the
//! write-ahead log — in a [`mvolap_durable::DurableTmd`]. The original
//! `Tmd`-taking entry points remain as thin wrappers.

use mvolap_core::evolution::{MergeSource, SplitPart};
use mvolap_core::{CoreError, DimensionId, MemberVersionId, Result, Tmd};
use mvolap_durable::WalRecord;
use mvolap_temporal::Instant;

use crate::snapshot::ChangeEvent;
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

/// Resolves a member name to its version valid at `t` (or the version
/// valid just before `t`, for members being changed at `t`).
///
/// # Errors
///
/// [`mvolap_core::CoreError`] when no member of that name is valid at
/// either instant.
pub fn resolve(tmd: &Tmd, dim: DimensionId, name: &str, t: Instant) -> Result<MemberVersionId> {
    let d = tmd.dimension(dim)?;
    d.version_named_at(name, t)
        .or_else(|_| d.version_named_at(name, t.pred()))
        .map(|v| v.id)
}

/// Applies snapshot-diff events to a load destination at instant `at`,
/// through the §3.2 evolution operators:
///
/// * `Created` → `create` (Insert);
/// * `Deleted` → `delete` (Exclude);
/// * `Reclassified` → `reclassify` (the conceptual-model operator, which
///   keeps the member version and re-wires its relationships);
/// * `AttributesChanged` → `transform` (Exclude + Insert + equivalence
///   Associate).
///
/// # Errors
///
/// Name-resolution failures, evolution-operator violations, and — for a
/// durable destination — journaling failures.
pub fn apply_changes_in<T: EvolutionTarget>(
    target: &mut T,
    dim: DimensionId,
    events: &[ChangeEvent],
    at: Instant,
) -> std::result::Result<LoadReport, T::Error> {
    let mut report = LoadReport::default();
    // Creations may depend on one another (a department under a division
    // created in the same snapshot); retry until a pass makes no
    // progress.
    let mut pending_creates: Vec<&crate::snapshot::SnapshotRow> = events
        .iter()
        .filter_map(|e| match e {
            ChangeEvent::Created { row } => Some(row),
            _ => None,
        })
        .collect();
    while !pending_creates.is_empty() {
        let before = pending_creates.len();
        let mut rest = Vec::new();
        for row in pending_creates {
            let parents = match &row.parent {
                Some(p) => match resolve(target.schema(), dim, p, at) {
                    Ok(id) => vec![id],
                    Err(_) => {
                        rest.push(row);
                        continue;
                    }
                },
                None => Vec::new(),
            };
            target.apply(WalRecord::Create {
                dim,
                name: row.member.clone(),
                level: row.level.clone(),
                at,
                parents,
            })?;
            report.created += 1;
        }
        if rest.len() == before {
            return Err(CoreError::InvalidEvolution(format!(
                "created members have unresolvable parents: {}",
                rest.iter()
                    .map(|r| r.member.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .into());
        }
        pending_creates = rest;
    }
    for event in events {
        match event {
            ChangeEvent::Created { .. } => {} // handled above
            ChangeEvent::Deleted { member } => {
                let id = resolve(target.schema(), dim, member, at)?;
                target.apply(WalRecord::Delete { dim, id, at })?;
                report.deleted += 1;
            }
            ChangeEvent::Reclassified {
                member,
                old_parent,
                new_parent,
            } => {
                let id = resolve(target.schema(), dim, member, at)?;
                let old_parents = match old_parent {
                    Some(p) => vec![resolve(target.schema(), dim, p, at)?],
                    None => Vec::new(),
                };
                let new_parents = match new_parent {
                    Some(p) => vec![resolve(target.schema(), dim, p, at)?],
                    None => Vec::new(),
                };
                target.apply(WalRecord::Reclassify {
                    dim,
                    id,
                    at,
                    old_parents,
                    new_parents,
                })?;
                report.reclassified += 1;
            }
            ChangeEvent::AttributesChanged { member, attributes } => {
                let id = resolve(target.schema(), dim, member, at)?;
                let new_name = target.schema().dimension(dim)?.version(id)?.name.clone();
                target.apply(WalRecord::Transform {
                    dim,
                    id,
                    new_name,
                    new_attributes: attributes.clone(),
                    at,
                })?;
                report.transformed += 1;
            }
        }
    }
    Ok(report)
}

/// [`apply_changes_in`] for a bare [`Tmd`] — the original entry point.
///
/// # Errors
///
/// As [`apply_changes_in`].
pub fn apply_changes(
    tmd: &mut Tmd,
    dim: DimensionId,
    events: &[ChangeEvent],
    at: Instant,
) -> Result<LoadReport> {
    apply_changes_in(tmd, dim, events, at)
}

/// Applies snapshot-diff events with administrator hints: hinted splits
/// and merges consume their matching `Deleted`/`Created` events and run
/// the corresponding high-level operator (wiring mapping relationships);
/// everything left over flows through [`apply_changes_in`].
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] when a hint references members the
/// diff does not actually report as deleted/created; plus everything
/// [`apply_changes_in`] raises.
pub fn apply_changes_with_hints_in<T: EvolutionTarget>(
    target: &mut T,
    dim: DimensionId,
    events: &[ChangeEvent],
    hints: &[EvolutionHint],
    at: Instant,
) -> std::result::Result<LoadReport, T::Error> {
    let deleted = |events: &[ChangeEvent], name: &str| {
        events
            .iter()
            .any(|e| matches!(e, ChangeEvent::Deleted { member } if member == name))
    };
    let created_row = |events: &[ChangeEvent], name: &str| {
        events.iter().find_map(|e| match e {
            ChangeEvent::Created { row } if row.member == name => Some(row.clone()),
            _ => None,
        })
    };

    let mut consumed_deletes: Vec<String> = Vec::new();
    let mut consumed_creates: Vec<String> = Vec::new();
    let mut report = LoadReport::default();
    let measures = target.schema().measures().len();

    for hint in hints {
        match hint {
            EvolutionHint::Split { member, parts } => {
                if !deleted(events, member) {
                    return Err(CoreError::InvalidEvolution(format!(
                        "split hint for `{member}` but the snapshot does not delete it"
                    ))
                    .into());
                }
                let mut split_parts = Vec::with_capacity(parts.len());
                let mut parents: Vec<MemberVersionId> = Vec::new();
                for (part, share) in parts {
                    let row = created_row(events, part).ok_or_else(|| {
                        CoreError::InvalidEvolution(format!(
                            "split hint part `{part}` is not created by the snapshot"
                        ))
                    })?;
                    if let Some(p) = &row.parent {
                        let id = resolve(target.schema(), dim, p, at)?;
                        if !parents.contains(&id) {
                            parents.push(id);
                        }
                    }
                    split_parts.push(SplitPart::proportional(part.clone(), *share, measures));
                }
                let source = resolve(target.schema(), dim, member, at)?;
                target.apply(WalRecord::Split {
                    dim,
                    source,
                    parts: split_parts,
                    at,
                    parents,
                })?;
                consumed_deletes.push(member.clone());
                consumed_creates.extend(parts.iter().map(|(p, _)| p.clone()));
                report.deleted += 1;
                report.created += parts.len();
            }
            EvolutionHint::Merge { sources, into } => {
                let row = created_row(events, into).ok_or_else(|| {
                    CoreError::InvalidEvolution(format!(
                        "merge hint target `{into}` is not created by the snapshot"
                    ))
                })?;
                let parents: Vec<MemberVersionId> = match &row.parent {
                    Some(p) => vec![resolve(target.schema(), dim, p, at)?],
                    None => Vec::new(),
                };
                let mut merge_sources = Vec::with_capacity(sources.len());
                for (source, share) in sources {
                    if !deleted(events, source) {
                        return Err(CoreError::InvalidEvolution(format!(
                            "merge hint source `{source}` is not deleted by the snapshot"
                        ))
                        .into());
                    }
                    let id = resolve(target.schema(), dim, source, at)?;
                    merge_sources.push(MergeSource::with_share(id, *share, measures));
                }
                target.apply(WalRecord::Merge {
                    dim,
                    sources: merge_sources,
                    new_name: into.clone(),
                    level: row.level.clone(),
                    at,
                    parents,
                })?;
                consumed_deletes.extend(sources.iter().map(|(s, _)| s.clone()));
                consumed_creates.push(into.clone());
                report.deleted += sources.len();
                report.created += 1;
            }
        }
    }

    // Everything not consumed by a hint loads the plain way.
    let remaining: Vec<ChangeEvent> = events
        .iter()
        .filter(|e| match e {
            ChangeEvent::Deleted { member } => !consumed_deletes.contains(member),
            ChangeEvent::Created { row } => !consumed_creates.contains(&row.member),
            _ => true,
        })
        .cloned()
        .collect();
    let rest = apply_changes_in(target, dim, &remaining, at)?;
    report.created += rest.created;
    report.deleted += rest.deleted;
    report.reclassified += rest.reclassified;
    report.transformed += rest.transformed;
    Ok(report)
}

/// [`apply_changes_with_hints_in`] for a bare [`Tmd`] — the original
/// entry point.
///
/// # Errors
///
/// As [`apply_changes_with_hints_in`].
pub fn apply_changes_with_hints(
    tmd: &mut Tmd,
    dim: DimensionId,
    events: &[ChangeEvent],
    hints: &[EvolutionHint],
    at: Instant,
) -> Result<LoadReport> {
    apply_changes_with_hints_in(tmd, dim, events, hints, at)
}

/// Bootstraps an empty dimension from its first snapshot: every root
/// first, then children (single-parent snapshots only — the flat source
/// format cannot express multi-parent members).
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] when a parent is missing from the
/// snapshot itself.
pub fn bootstrap_in<T: EvolutionTarget>(
    target: &mut T,
    dim: DimensionId,
    snapshot: &crate::snapshot::Snapshot,
) -> std::result::Result<LoadReport, T::Error> {
    let mut report = LoadReport::default();
    // Roots first, then repeatedly anything whose parent already exists.
    let mut pending: Vec<&crate::snapshot::SnapshotRow> = snapshot.rows.values().collect();
    let at = snapshot.period;
    while !pending.is_empty() {
        let before = pending.len();
        let mut rest = Vec::new();
        for row in pending {
            let parent_id = match &row.parent {
                None => None,
                Some(p) => match resolve(target.schema(), dim, p, at) {
                    Ok(id) => Some(id),
                    Err(_) => {
                        rest.push(row);
                        continue;
                    }
                },
            };
            target.apply(WalRecord::Create {
                dim,
                name: row.member.clone(),
                level: row.level.clone(),
                at,
                parents: parent_id.into_iter().collect(),
            })?;
            report.created += 1;
        }
        if rest.len() == before {
            return Err(CoreError::InvalidEvolution(format!(
                "snapshot has unresolvable parents for: {}",
                rest.iter()
                    .map(|r| r.member.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .into());
        }
        pending = rest;
    }
    Ok(report)
}

/// [`bootstrap_in`] for a bare [`Tmd`] — the original entry point.
///
/// # Errors
///
/// As [`bootstrap_in`].
pub fn bootstrap(
    tmd: &mut Tmd,
    dim: DimensionId,
    snapshot: &crate::snapshot::Snapshot,
) -> Result<LoadReport> {
    bootstrap_in(tmd, dim, snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{diff, Snapshot, SnapshotRow};
    use crate::target::{load_facts, FactRecord};
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

        bootstrap_in(&mut store, dim, &org_2001()).unwrap();
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
            apply_changes_with_hints_in(&mut store, dim, &events, &hints, Instant::ym(2003, 1))
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
