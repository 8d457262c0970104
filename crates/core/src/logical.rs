//! Logical-level adaptation (paper §4) and relational export (§5).
//!
//! Commercial OLAP servers know only dimensions and fact tables, so the
//! paper maps its conceptual notions down:
//!
//! * the TMP set becomes a **flat dimension** ([`export_tmp_dimension`]);
//! * confidence factors become **measures** (physical codes 3/2/1/4) in
//!   the exported multiversion fact table
//!   ([`export_multiversion_fact`]);
//! * `Reclassify` is **rewritten as a transformation**
//!   ([`reclassify_as_transform`]) because commercial tools store
//!   hierarchy links as foreign keys inside members: the member is
//!   re-versioned with a new hierarchical-link attribute, and all its
//!   descendants are re-versioned recursively (§4.2's acknowledged
//!   downside);
//! * dimensions export to the three physical layouts §5.1 discusses:
//!   **star** (denormalised, [`export_star`]), **snowflake**
//!   (normalised per level, [`export_snowflake`]) and **parent-child**
//!   ([`export_parent_child`], which rejects multiple hierarchies —
//!   the documented limitation of that layout);
//! * the mapping relations export to the §5.2 metadata table, Table 12
//!   ([`export_mapping_relations`]).
//!
//! [`build_multiversion_warehouse`] assembles the whole §5.1 middle tier.

use mvolap_exec::ExecContext;
use mvolap_storage::{Catalog, ColumnDef, DataType, Table, TableSchema, Value};
use mvolap_temporal::Instant;

use crate::dimension::TemporalDimension;
use crate::error::{CoreError, Result};
use crate::evolution::{insert, BasicOp, EvolutionOutcome, Script};
use crate::ids::{DimensionId, MemberVersionId};
use crate::levels::{ancestors_at_level, levels_at};
use crate::mapping::MappingRelationship;
use crate::member::MemberVersionSpec;
use crate::memo::QueryMemo;
use crate::multiversion::MultiVersionFactTable;
use crate::schema::Tmd;
use crate::structure_version::StructureVersion;
use crate::tmp::{all_modes, TemporalMode};

/// Renders an instant for relational storage (month granularity labels,
/// `Now` spelled out).
fn instant_str(t: Instant, tmd: &Tmd) -> String {
    t.display(tmd.granularity())
}

/// §4.2: `Reclassify` re-expressed for tools whose hierarchy is a
/// foreign-key attribute — `Insert` a new version with the new parents
/// (and the same children), `Exclude` the old one, `Associate` them with
/// a source-data identity mapping; then recursively re-version every
/// descendant so its hierarchical-link attribute follows.
///
/// Returns the created version ids (the reclassified member first,
/// descendants in breadth-first order) and the full basic-operator
/// script.
///
/// # Errors
///
/// Propagates basic-operator failures.
pub fn reclassify_as_transform(
    tmd: &mut Tmd,
    dim: DimensionId,
    id: MemberVersionId,
    at: Instant,
    old_parents: &[MemberVersionId],
    new_parents: &[MemberVersionId],
) -> Result<EvolutionOutcome> {
    let measures = tmd.measures().len();
    // Work list of (member to re-version, its new parent set).
    let mut queue: Vec<(MemberVersionId, Vec<MemberVersionId>)> = Vec::new();
    {
        let d = tmd.dimension(dim)?;
        let current: Vec<MemberVersionId> = d.parents_at(id, at.pred());
        let mut parents: Vec<MemberVersionId> = current
            .into_iter()
            .filter(|p| !old_parents.contains(p))
            .collect();
        parents.extend_from_slice(new_parents);
        queue.push((id, parents));
    }

    let mut script = Script::new(tmd);
    while let Some((old_id, parents)) = queue.pop() {
        let (spec, children) = {
            let d = script.tmd.dimension(dim)?;
            let v = d.version(old_id)?;
            let spec = MemberVersionSpec {
                name: v.name.clone(),
                attributes: v.attributes.clone(),
                level: v.level.clone(),
            };
            (spec, d.children_at(old_id, at.pred()))
        };
        // Children are re-versioned below; the fresh parent gets its
        // fresh children wired as their own inserts name it.
        let new_id = script.push(insert(dim, spec, at, parents))?;
        let new_id = new_id.expect("insert returns an id");
        script.push(BasicOp::Exclude {
            dim,
            id: old_id,
            at,
        })?;
        // Only leaf member versions may carry mapping relationships
        // (Definition 7); interior nodes aggregate from their children.
        let d = script.tmd.dimension(dim)?;
        if d.is_ever_leaf(old_id) && d.is_ever_leaf(new_id) {
            let identity = crate::mapping::MeasureMapping::SOURCE_IDENTITY;
            let rel = MappingRelationship::uniform(old_id, new_id, identity, identity, measures);
            script.push(BasicOp::Associate { dim, rel })?;
        }
        // §4.2: every descendant must be re-versioned under the new
        // version of its parent.
        for child in children {
            queue.push((child, vec![new_id]));
        }
    }
    Ok(script.finish())
}

/// Exports one dimension in the **parent-child** layout (§5.1): a single
/// table `(mv_id, member, level, parent_id, valid_from, valid_to)` with
/// one row per (member version, parent spell), `NULL` parent for roots.
///
/// # Errors
///
/// [`CoreError::Storage`] when the dimension uses multiple hierarchies
/// (a member with two simultaneous parents) — the layout's documented
/// limitation — or on storage-schema failures.
pub fn export_parent_child(tmd: &Tmd, dim: DimensionId) -> Result<Table> {
    let d = tmd.dimension(dim)?;
    // Reject simultaneous multi-parent members.
    for v in d.versions() {
        let edges: Vec<_> = d
            .relationships()
            .iter()
            .filter(|r| r.child == v.id)
            .collect();
        for (i, a) in edges.iter().enumerate() {
            for b in &edges[i + 1..] {
                if a.validity.overlaps(b.validity) {
                    return Err(CoreError::Storage(format!(
                        "parent-child layout does not support multiple hierarchies: \
                         member '{}' has simultaneous parents",
                        v.name
                    )));
                }
            }
        }
    }
    let schema = TableSchema::new(vec![
        ColumnDef::required("mv_id", DataType::Int),
        ColumnDef::required("member", DataType::Str),
        ColumnDef::nullable("level", DataType::Str),
        ColumnDef::nullable("parent_id", DataType::Int),
        ColumnDef::required("valid_from", DataType::Str),
        ColumnDef::required("valid_to", DataType::Str),
    ])
    .map_err(CoreError::from)?;
    let mut table = Table::new(format!("dim_{}_parent_child", d.name()), schema);
    for v in d.versions() {
        let edges: Vec<_> = d
            .relationships()
            .iter()
            .filter(|r| r.child == v.id)
            .collect();
        if edges.is_empty() {
            table
                .push_row(vec![
                    (v.id.0 as i64).into(),
                    v.name.clone().into(),
                    v.level.clone().map(Value::from).unwrap_or(Value::Null),
                    Value::Null,
                    instant_str(v.validity.start(), tmd).into(),
                    instant_str(v.validity.end(), tmd).into(),
                ])
                .map_err(CoreError::from)?;
        } else {
            for e in edges {
                table
                    .push_row(vec![
                        (v.id.0 as i64).into(),
                        v.name.clone().into(),
                        v.level.clone().map(Value::from).unwrap_or(Value::Null),
                        (e.parent.0 as i64).into(),
                        instant_str(e.validity.start(), tmd).into(),
                        instant_str(e.validity.end(), tmd).into(),
                    ])
                    .map_err(CoreError::from)?;
            }
        }
    }
    Ok(table)
}

/// Exports one dimension in the **star** (denormalised) layout: one row
/// per *hierarchy spell* of each leaf member version, with one
/// hierarchical-link column per ancestor level — §4.2's representation
/// where a reclassification necessarily becomes a new row.
///
/// # Errors
///
/// [`CoreError::Storage`] on storage-schema failures.
pub fn export_star(tmd: &Tmd, dim: DimensionId) -> Result<Table> {
    let d = tmd.dimension(dim)?;
    // Collect the level names across all of time, top-down, skipping the
    // leaf level itself.
    let mut level_names: Vec<String> = Vec::new();
    for t in boundary_instants(d) {
        let (_, levels) = levels_at(d, t);
        for (i, l) in levels.iter().enumerate() {
            if i + 1 == levels.len() {
                continue; // leaf level holds the members themselves
            }
            if !level_names.contains(&l.name) {
                level_names.push(l.name.clone());
            }
        }
    }
    let mut defs = vec![
        ColumnDef::required("mv_id", DataType::Int),
        ColumnDef::required("member", DataType::Str),
    ];
    for l in &level_names {
        defs.push(ColumnDef::nullable(l.clone(), DataType::Str));
    }
    defs.push(ColumnDef::required("valid_from", DataType::Str));
    defs.push(ColumnDef::required("valid_to", DataType::Str));
    let schema = TableSchema::new(defs).map_err(CoreError::from)?;
    let mut table = Table::new(format!("dim_{}_star", d.name()), schema);

    for &leaf in &d.leaf_versions() {
        let v = d.version(leaf)?;
        // Partition the leaf's validity by its parent-edge boundaries:
        // each spell is one denormalised row.
        let mut spells: Vec<mvolap_temporal::Interval> = vec![v.validity];
        let edge_bounds: Vec<Instant> = d
            .relationships()
            .iter()
            .filter(|r| r.child == leaf)
            .flat_map(|r| [r.validity.start(), r.validity.end().succ()])
            .collect();
        for b in edge_bounds {
            if b.is_forever() {
                continue; // an open edge never closes: no boundary
            }
            let mut next = Vec::with_capacity(spells.len() + 1);
            for s in spells {
                if s.contains(b) && s.start() != b {
                    next.push(mvolap_temporal::Interval::of(s.start(), b.pred()));
                    next.push(mvolap_temporal::Interval::of(b, s.end()));
                } else {
                    next.push(s);
                }
            }
            spells = next;
        }
        spells.sort_by_key(|s| s.start());
        for spell in spells {
            let probe = spell.start();
            let mut row: Vec<Value> = vec![(leaf.0 as i64).into(), v.name.clone().into()];
            for level in &level_names {
                let ancestors = ancestors_at_level(d, leaf, level, probe).unwrap_or_default();
                match ancestors.first() {
                    Some(&a) => row.push(d.version(a)?.name.clone().into()),
                    None => row.push(Value::Null),
                }
            }
            row.push(instant_str(spell.start(), tmd).into());
            row.push(instant_str(spell.end(), tmd).into());
            table.push_row(row).map_err(CoreError::from)?;
        }
    }
    Ok(table)
}

/// Exports one dimension in the **snowflake** (normalised) layout: one
/// table per level, each row `(mv_id, member, parent_id, valid_from,
/// valid_to)` with the parent foreign key pointing into the level above.
///
/// # Errors
///
/// [`CoreError::Storage`] on storage-schema failures.
pub fn export_snowflake(tmd: &Tmd, dim: DimensionId) -> Result<Vec<Table>> {
    let d = tmd.dimension(dim)?;
    let mut level_names: Vec<String> = Vec::new();
    for t in boundary_instants(d) {
        let (_, levels) = levels_at(d, t);
        for l in levels {
            if !level_names.contains(&l.name) {
                level_names.push(l.name.clone());
            }
        }
    }
    let mut tables = Vec::with_capacity(level_names.len());
    for name in &level_names {
        let schema = TableSchema::new(vec![
            ColumnDef::required("mv_id", DataType::Int),
            ColumnDef::required("member", DataType::Str),
            ColumnDef::nullable("parent_id", DataType::Int),
            ColumnDef::required("valid_from", DataType::Str),
            ColumnDef::required("valid_to", DataType::Str),
        ])
        .map_err(CoreError::from)?;
        let mut table = Table::new(format!("dim_{}_{}", d.name(), name), schema);
        for v in d.versions() {
            // A version belongs to the level it carries at its first
            // valid instant.
            let at = v.validity.start();
            let level = crate::levels::level_of(d, v.id, at);
            if level.as_deref() != Some(name.as_str()) {
                continue;
            }
            let parents = d.parents_at(v.id, at);
            let parent = parents
                .first()
                .map(|p| Value::Int(p.0 as i64))
                .unwrap_or(Value::Null);
            table
                .push_row(vec![
                    (v.id.0 as i64).into(),
                    v.name.clone().into(),
                    parent,
                    instant_str(v.validity.start(), tmd).into(),
                    instant_str(v.validity.end(), tmd).into(),
                ])
                .map_err(CoreError::from)?;
        }
        tables.push(table);
    }
    Ok(tables)
}

/// The instants at which a dimension's structure can change (starts of
/// all validities), used to enumerate levels across time.
fn boundary_instants(d: &TemporalDimension) -> Vec<Instant> {
    let mut points: Vec<Instant> = d
        .validity_intervals()
        .into_iter()
        .map(|iv| iv.start())
        .collect();
    points.sort_unstable();
    points.dedup();
    points
}

/// Exports the TMP set as the §4.1 **flat dimension**: one row per
/// temporal mode (`tcm` first), with the structure version's validity.
///
/// # Errors
///
/// [`CoreError::Storage`] on storage-schema failures.
pub fn export_tmp_dimension(tmd: &Tmd, svs: &[StructureVersion]) -> Result<Table> {
    let schema = TableSchema::new(vec![
        ColumnDef::required("tmp_id", DataType::Int),
        ColumnDef::required("label", DataType::Str),
        ColumnDef::nullable("valid_from", DataType::Str),
        ColumnDef::nullable("valid_to", DataType::Str),
    ])
    .map_err(CoreError::from)?;
    let mut table = Table::new("dim_tmp", schema);
    for (i, mode) in all_modes(svs).into_iter().enumerate() {
        let (from, to) = match &mode {
            TemporalMode::Version(v) => {
                let sv = &svs[v.index()];
                (
                    Value::from(instant_str(sv.interval.start(), tmd)),
                    Value::from(instant_str(sv.interval.end(), tmd)),
                )
            }
            _ => (Value::Null, Value::Null),
        };
        table
            .push_row(vec![(i as i64).into(), mode.label().into(), from, to])
            .map_err(CoreError::from)?;
    }
    Ok(table)
}

/// Exports the inferred multiversion fact table with the §4.1 logical
/// encoding: the TMP as a flat dimension key, confidence factors as
/// physically coded measures (3/2/1/4).
///
/// # Errors
///
/// [`CoreError::Storage`] on storage-schema failures.
pub fn export_multiversion_fact(tmd: &Tmd, mvft: &MultiVersionFactTable) -> Result<Table> {
    let mut defs = vec![ColumnDef::required("tmp_id", DataType::Int)];
    for d in tmd.dimensions() {
        defs.push(ColumnDef::required(
            format!("{}_id", d.name()),
            DataType::Int,
        ));
        defs.push(ColumnDef::required(
            format!("{}_member", d.name()),
            DataType::Str,
        ));
    }
    defs.push(ColumnDef::required("time", DataType::Str));
    for m in tmd.measures() {
        defs.push(ColumnDef::nullable(m.name.clone(), DataType::Float));
        defs.push(ColumnDef::required(format!("{}_cf", m.name), DataType::Int));
    }
    let schema = TableSchema::new(defs).map_err(CoreError::from)?;
    let mut table = Table::new("fact_multiversion", schema);
    for (tmp_id, p) in mvft.presentations().iter().enumerate() {
        for row in &p.rows {
            let mut values: Vec<Value> = vec![(tmp_id as i64).into()];
            for (d, &c) in tmd.dimensions().iter().zip(&row.coords) {
                values.push((c.0 as i64).into());
                values.push(d.version(c)?.name.clone().into());
            }
            values.push(instant_str(row.time, tmd).into());
            for cell in &row.cells {
                values.push(cell.value.map(Value::Float).unwrap_or(Value::Null));
                values.push(cell.confidence.physical_code().into());
            }
            table.push_row(values).map_err(CoreError::from)?;
        }
    }
    Ok(table)
}

/// Exports the §5.2 mapping-relations metadata table — paper Table 12:
/// one row per mapping relationship with the linear factor `k` of each
/// measure in both directions and the physically coded confidence of
/// each direction.
///
/// # Errors
///
/// [`CoreError::Storage`] on storage-schema failures.
pub fn export_mapping_relations(tmd: &Tmd, dim: DimensionId) -> Result<Table> {
    let d = tmd.dimension(dim)?;
    let mut defs = vec![
        ColumnDef::required("From", DataType::Str),
        ColumnDef::required("To", DataType::Str),
    ];
    for m in tmd.measures() {
        defs.push(ColumnDef::nullable(
            format!("k for {}", m.name),
            DataType::Float,
        ));
    }
    for m in tmd.measures() {
        defs.push(ColumnDef::nullable(
            format!("k-1 for {}", m.name),
            DataType::Float,
        ));
    }
    defs.push(ColumnDef::required("Confidence", DataType::Int));
    defs.push(ColumnDef::required("Confidence-1", DataType::Int));
    let schema = TableSchema::new(defs).map_err(CoreError::from)?;
    let mut table = Table::new(format!("mapping_relations_{}", d.name()), schema);
    for rel in tmd.mapping_graph(dim)?.relationships() {
        let mut row: Vec<Value> = vec![
            d.version(rel.from)?.name.clone().into(),
            d.version(rel.to)?.name.clone().into(),
        ];
        for m in &rel.forward {
            row.push(
                m.func
                    .linear_factor()
                    .map(Value::Float)
                    .unwrap_or(Value::Null),
            );
        }
        for m in &rel.backward {
            row.push(
                m.func
                    .linear_factor()
                    .map(Value::Float)
                    .unwrap_or(Value::Null),
            );
        }
        // The prototype stores one confidence per relation direction.
        let fwd_cf =
            crate::confidence::Confidence::combine_all(rel.forward.iter().map(|m| m.confidence));
        let bwd_cf =
            crate::confidence::Confidence::combine_all(rel.backward.iter().map(|m| m.confidence));
        row.push(fwd_cf.physical_code().into());
        row.push(bwd_cf.physical_code().into());
        table.push_row(row).map_err(CoreError::from)?;
    }
    Ok(table)
}

/// Exports the evolution log as a metadata table (§5.2's textual
/// descriptions of transformations).
///
/// # Errors
///
/// [`CoreError::Storage`] on storage-schema failures.
pub fn export_evolution_log(tmd: &Tmd) -> Result<Table> {
    let schema = TableSchema::new(vec![
        ColumnDef::required("dimension", DataType::Str),
        ColumnDef::required("at", DataType::Str),
        ColumnDef::required("operator", DataType::Str),
        ColumnDef::required("description", DataType::Str),
    ])
    .map_err(CoreError::from)?;
    let mut table = Table::new("meta_evolutions", schema);
    for e in tmd.evolution_log().entries() {
        let dname = tmd
            .dimension(e.dimension)
            .map(|d| d.name().to_owned())
            .unwrap_or_else(|_| format!("D{}", e.dimension.0));
        table
            .push_row(vec![
                dname.into(),
                instant_str(e.at, tmd).into(),
                e.operator.into(),
                e.description.clone().into(),
            ])
            .map_err(CoreError::from)?;
    }
    Ok(table)
}

/// Builds the §5.1 **MultiVersion Data Warehouse**: a catalog holding the
/// star dimension tables, the flat TMP dimension, the exported
/// multiversion fact table, the mapping-relations metadata and the
/// evolution log.
///
/// # Errors
///
/// Propagates inference and export failures.
pub fn build_multiversion_warehouse(tmd: &Tmd) -> Result<Catalog> {
    let svs = tmd.structure_versions();
    let mvft =
        MultiVersionFactTable::infer_par(tmd, &ExecContext::sequential(), &QueryMemo::new())?;
    let mut catalog = Catalog::new();
    for (i, _) in tmd.dimensions().iter().enumerate() {
        let dim = DimensionId(i as u32);
        catalog
            .create(export_star(tmd, dim)?)
            .map_err(CoreError::from)?;
        catalog
            .create(export_mapping_relations(tmd, dim)?)
            .map_err(CoreError::from)?;
    }
    catalog
        .create(export_tmp_dimension(tmd, &svs)?)
        .map_err(CoreError::from)?;
    catalog
        .create(export_multiversion_fact(tmd, &mvft)?)
        .map_err(CoreError::from)?;
    catalog
        .create(export_evolution_log(tmd)?)
        .map_err(CoreError::from)?;
    Ok(catalog)
}

/// Helper for building a fresh member-version spec during §4.2 rewrites.
#[allow(dead_code)]
fn respec(v: &crate::member::MemberVersion) -> MemberVersionSpec {
    MemberVersionSpec {
        name: v.name.clone(),
        attributes: v.attributes.clone(),
        level: v.level.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::{case_study, case_study_two_measures};
    use crate::confidence::Confidence;
    use mvolap_storage::Value;
    use mvolap_temporal::{Granularity, Interval};

    #[test]
    fn parent_child_export_rows() {
        let cs = case_study();
        let t = export_parent_child(&cs.tmd, cs.org).unwrap();
        // 2 divisions (no parent) + Jones(1 edge) + Smith(2 edges) +
        // Brian(1) + Bill(1) + Paul(1) = 8 rows.
        assert_eq!(t.len(), 8);
        // Roots carry NULL parents.
        let sales_row = t.rows().find(|r| r[1] == Value::from("Sales")).unwrap();
        assert_eq!(sales_row[3], Value::Null);
        // Smith has two parent spells.
        let smith_rows = t
            .rows()
            .filter(|r| r[1] == Value::from("Dpt.Smith"))
            .count();
        assert_eq!(smith_rows, 2);
    }

    #[test]
    fn parent_child_rejects_multi_hierarchy() {
        let mut tmd = Tmd::new("t", Granularity::Month);
        let mut d = TemporalDimension::new("M");
        let all = Interval::since(Instant::ym(2001, 1));
        let a = d.add_version(MemberVersionSpec::named("A"), all);
        let b = d.add_version(MemberVersionSpec::named("B"), all);
        let m = d.add_version(MemberVersionSpec::named("M"), all);
        d.add_relationship(m, a, all).unwrap();
        d.add_relationship(m, b, all).unwrap();
        let dim = tmd.add_dimension(d).unwrap();
        assert!(matches!(
            export_parent_child(&tmd, dim),
            Err(CoreError::Storage(_))
        ));
    }

    #[test]
    fn star_export_splits_smith_into_two_spells() {
        let cs = case_study();
        let t = export_star(&cs.tmd, cs.org).unwrap();
        assert_eq!(
            t.schema().names(),
            vec!["mv_id", "member", "Division", "valid_from", "valid_to"]
        );
        let smith: Vec<Vec<Value>> = t
            .rows()
            .filter(|r| r[1] == Value::from("Dpt.Smith"))
            .collect();
        // §4.2: the reclassification shows as two rows with different
        // hierarchical-link attributes.
        assert_eq!(smith.len(), 2);
        assert_eq!(smith[0][2], Value::from("Sales"));
        assert_eq!(smith[0][4], Value::from("12/2001"));
        assert_eq!(smith[1][2], Value::from("R&D"));
        assert_eq!(smith[1][3], Value::from("01/2002"));
        // Stable members keep a single row.
        let brian = t
            .rows()
            .filter(|r| r[1] == Value::from("Dpt.Brian"))
            .count();
        assert_eq!(brian, 1);
    }

    #[test]
    fn snowflake_export_one_table_per_level() {
        let cs = case_study();
        let tables = export_snowflake(&cs.tmd, cs.org).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].name(), "dim_Org_Division");
        assert_eq!(tables[1].name(), "dim_Org_Department");
        assert_eq!(tables[0].len(), 2);
        assert_eq!(tables[1].len(), 5);
        // Departments carry a parent FK into divisions.
        let jones = tables[1]
            .rows()
            .find(|r| r[1] == Value::from("Dpt.Jones"))
            .unwrap();
        assert_eq!(jones[2], Value::Int(cs.sales.0 as i64));
    }

    #[test]
    fn tmp_dimension_is_flat_with_tcm_first() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let t = export_tmp_dimension(&cs.tmd, &svs).unwrap();
        assert_eq!(t.len(), 4);
        let first = t.row(0).unwrap();
        assert_eq!(first[1], Value::from("tcm"));
        assert_eq!(first[2], Value::Null);
        let second = t.row(1).unwrap();
        assert_eq!(second[1], Value::from("VS0"));
        assert_eq!(second[2], Value::from("01/2001"));
    }

    #[test]
    fn multiversion_fact_export_codes_confidence() {
        let cs = case_study();
        let mvft = MultiVersionFactTable::infer_par(
            &cs.tmd,
            &ExecContext::sequential(),
            &QueryMemo::new(),
        )
        .unwrap();
        let t = export_multiversion_fact(&cs.tmd, &mvft).unwrap();
        assert_eq!(t.len(), mvft.total_rows());
        // tcm rows carry the source code 3.
        let tcm_rows: Vec<Vec<Value>> = t.rows().filter(|r| r[0] == Value::Int(0)).collect();
        assert_eq!(tcm_rows.len(), 10);
        assert!(tcm_rows.iter().all(|r| r[5] == Value::Int(3)));
        // Mapped rows exist with codes 2 (exact) and 1 (approx).
        let codes: Vec<i64> = t.rows().filter_map(|r| r[5].as_int()).collect();
        assert!(codes.contains(&2));
        assert!(codes.contains(&1));
    }

    #[test]
    fn mapping_relations_reproduce_table_12() {
        // Paper Table 12 with m1 = Turnover (0.6/0.4), m2 = Profit
        // (0.8/0.2), k-1 = 1, confidence 1 (am) / 2 (em).
        let cs = case_study_two_measures();
        let t = export_mapping_relations(&cs.tmd, cs.org).unwrap();
        assert_eq!(t.len(), 2);
        let rows: Vec<Vec<Value>> = t.rows().collect();
        // Row to Bill: k m1 = 0.4, k m2 = 0.2.
        let bill = rows
            .iter()
            .find(|r| r[1] == Value::from("Dpt.Bill"))
            .unwrap();
        assert_eq!(bill[0], Value::from("Dpt.Jones"));
        assert_eq!(bill[2], Value::Float(0.4));
        assert_eq!(bill[3], Value::Float(0.2));
        assert_eq!(bill[4], Value::Float(1.0));
        assert_eq!(bill[5], Value::Float(1.0));
        assert_eq!(bill[6], Value::Int(1)); // am
        assert_eq!(bill[7], Value::Int(2)); // em
        let paul = rows
            .iter()
            .find(|r| r[1] == Value::from("Dpt.Paul"))
            .unwrap();
        assert_eq!(paul[2], Value::Float(0.6));
        assert_eq!(paul[3], Value::Float(0.8));
    }

    #[test]
    fn reclassify_as_transform_reversions_descendants() {
        // Build Div1 > DeptA > {TeamX, TeamY}; reclassify DeptA under
        // Div2: DeptA, TeamX and TeamY all get new versions.
        let mut tmd = Tmd::new("t", Granularity::Month);
        let mut d = TemporalDimension::new("Org");
        let all = Interval::since(Instant::ym(2001, 1));
        let div1 = d.add_version(MemberVersionSpec::named("Div1").at_level("Division"), all);
        let div2 = d.add_version(MemberVersionSpec::named("Div2").at_level("Division"), all);
        let dept = d.add_version(
            MemberVersionSpec::named("DeptA").at_level("Department"),
            all,
        );
        let tx = d.add_version(MemberVersionSpec::named("TeamX").at_level("Team"), all);
        let ty = d.add_version(MemberVersionSpec::named("TeamY").at_level("Team"), all);
        d.add_relationship(dept, div1, all).unwrap();
        d.add_relationship(tx, dept, all).unwrap();
        d.add_relationship(ty, dept, all).unwrap();
        let dim = tmd.add_dimension(d).unwrap();
        tmd.add_measure(crate::fact::MeasureDef::summed("m"))
            .unwrap();

        let at = Instant::ym(2002, 1);
        let out = reclassify_as_transform(&mut tmd, dim, dept, at, &[div1], &[div2]).unwrap();
        // Three new versions: DeptA', TeamX', TeamY'.
        assert_eq!(out.created.len(), 3);
        let d = tmd.dimension(dim).unwrap();
        // Old versions closed at 12/2001.
        assert_eq!(
            d.version(dept).unwrap().validity.end(),
            Instant::ym(2001, 12)
        );
        assert_eq!(d.version(tx).unwrap().validity.end(), Instant::ym(2001, 12));
        // New DeptA sits under Div2.
        let new_dept = out.created[0];
        assert_eq!(d.parents_at(new_dept, at), vec![div2]);
        // New teams sit under the new DeptA.
        for &team in &out.created[1..] {
            assert_eq!(d.parents_at(team, at), vec![new_dept]);
        }
        // Leaf re-versions carry source-identity mappings.
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels.len(), 2); // the two teams (leaves); DeptA is interior
        assert!(rels
            .iter()
            .all(|r| r.forward[0].confidence == Confidence::Source));
    }

    #[test]
    fn warehouse_assembles_all_tables() {
        let cs = case_study();
        let wh = build_multiversion_warehouse(&cs.tmd).unwrap();
        let names = wh.table_names();
        assert!(names.contains(&"dim_Org_star"));
        assert!(names.contains(&"dim_tmp"));
        assert!(names.contains(&"fact_multiversion"));
        assert!(names.contains(&"mapping_relations_Org"));
        assert!(names.contains(&"meta_evolutions"));
        assert!(wh.get("fact_multiversion").unwrap().len() > 10);
    }

    #[test]
    fn evolution_log_exports() {
        let mut cs = case_study();
        crate::evolution::delete(&mut cs.tmd, cs.org, cs.brian, Instant::ym(2004, 1)).unwrap();
        let t = export_evolution_log(&cs.tmd).unwrap();
        assert_eq!(t.len(), 1);
        let row = t.row(0).unwrap();
        assert_eq!(row[0], Value::from("Org"));
        assert_eq!(row[2], Value::from("exclude"));
    }
}
