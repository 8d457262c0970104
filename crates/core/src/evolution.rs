//! Structural evolution operators (paper §3.2).
//!
//! Four basic operators — `Insert`, `Exclude`, `Associate`, `Reclassify`
//! — through which the administrator integrates every change. Simple
//! operations (creation, deletion, transformation, merge, split,
//! reclassification) and complex operations (increase, decrease, partial
//! annexation) compile to sequences of basic operators, exactly as paper
//! Table 11 illustrates.
//!
//! Every operation compiles through one script builder, which applies a
//! basic operator and records it in the [`EvolutionOutcome`]. The six
//! operations that replace members (transformation, merge, split,
//! increase, decrease, partial annexation) are calls to one compiler,
//! `replace`: exclude the sources, insert the successors in order, then
//! associate the mapping relationships. That order is Table 11's, and it
//! decides the member version ids, so the snapshot bytes. Each operation
//! checks its own preconditions first, as typed
//! [`CoreError::InvalidEvolution`] errors.

use std::collections::BTreeMap;

use mvolap_temporal::{Instant, Interval};

use crate::error::{CoreError, Result};
use crate::ids::{DimensionId, MemberVersionId};
use crate::mapping::{MappingRelationship, MeasureMapping};
use crate::member::MemberVersionSpec;
use crate::metadata::EvolutionEntry;
use crate::schema::Tmd;

/// One of the four basic evolution operators.
#[derive(Debug, Clone, PartialEq)]
pub enum BasicOp {
    /// `Insert(Did, mvID, mName, [A], [level], ti, [tf], P, C)`: a new
    /// member version wired under parents `P` and over children `C`.
    Insert {
        /// Target dimension.
        dim: DimensionId,
        /// New member name.
        name: String,
        /// User attributes.
        attributes: BTreeMap<String, String>,
        /// Optional explicit level.
        level: Option<String>,
        /// Validity start.
        ti: Instant,
        /// Validity end; `None` means `Now`.
        tf: Option<Instant>,
        /// Parent member versions.
        parents: Vec<MemberVersionId>,
        /// Child member versions.
        children: Vec<MemberVersionId>,
    },
    /// `Exclude(Did, mvID, tf)`: ends a member version (and its
    /// relationships) at `tf − 1`.
    Exclude {
        /// Target dimension.
        dim: DimensionId,
        /// The version to exclude.
        id: MemberVersionId,
        /// Exclusion instant.
        at: Instant,
    },
    /// `Associate(Rmap)`: registers a mapping relationship.
    Associate {
        /// Target dimension.
        dim: DimensionId,
        /// The mapping relationship.
        rel: MappingRelationship,
    },
    /// `Reclassify(Did, mvID, ti, [tf], OldParents, NewParents)`.
    Reclassify {
        /// Target dimension.
        dim: DimensionId,
        /// The version to reclassify.
        id: MemberVersionId,
        /// Reclassification start.
        ti: Instant,
        /// Optional end of the new placement.
        tf: Option<Instant>,
        /// Parents to detach from `ti` on.
        old_parents: Vec<MemberVersionId>,
        /// Parents to attach from `ti` on.
        new_parents: Vec<MemberVersionId>,
    },
}

impl BasicOp {
    /// The operator name for logs and Table 11 rendering.
    pub fn operator(&self) -> &'static str {
        match self {
            BasicOp::Insert { .. } => "Insert",
            BasicOp::Exclude { .. } => "Exclude",
            BasicOp::Associate { .. } => "Associate",
            BasicOp::Reclassify { .. } => "Reclassify",
        }
    }

    /// Applies the operator to a schema; `Insert` returns the new id.
    ///
    /// # Errors
    ///
    /// Propagates dimension/graph validation failures; the schema may be
    /// partially modified when a multi-edge `Insert` fails midway (the
    /// operators are administrator tools, not transactions — mirror of
    /// the paper's prototype).
    pub fn apply(&self, tmd: &mut Tmd) -> Result<Option<MemberVersionId>> {
        // Every evolution operator invalidates derived caches (mapping
        // routes, roll-up paths). The inner mutators bump the schema
        // generation on their own, but the contract of the operators is
        // explicit: one application, at least one bump — even if a
        // future mutator forgets.
        tmd.bump_generation();
        match self {
            BasicOp::Insert {
                dim,
                name,
                attributes,
                level,
                ti,
                tf,
                parents,
                children,
            } => {
                let validity =
                    Interval::new(*ti, tf.unwrap_or(Instant::FOREVER)).map_err(CoreError::from)?;
                let spec = MemberVersionSpec {
                    name: name.clone(),
                    attributes: attributes.clone(),
                    level: level.clone(),
                };
                let id = tmd.add_version(*dim, spec, validity)?;
                // Parents first, then children: each edge spans the
                // overlap of the new version and the other end.
                let up = parents.iter().map(|&p| (id, p, p));
                for (child, parent, other) in up.chain(children.iter().map(|&c| (c, id, c))) {
                    let ov = tmd.dimension(*dim)?.version(other)?.validity;
                    let edge = validity.intersect(ov).ok_or({
                        CoreError::RelationshipOutsideMemberValidity {
                            child,
                            parent,
                            validity,
                        }
                    })?;
                    tmd.add_relationship(*dim, child, parent, edge)?;
                }
                tmd.record_evolution(EvolutionEntry {
                    dimension: *dim,
                    subjects: vec![id],
                    at: *ti,
                    operator: "insert",
                    description: format!("inserted member version '{name}'"),
                });
                Ok(Some(id))
            }
            BasicOp::Exclude { dim, id, at } => {
                let name = tmd.dimension(*dim)?.version(*id)?.name.clone();
                tmd.dimension_mut(*dim)?.exclude(*id, *at)?;
                tmd.record_evolution(EvolutionEntry {
                    dimension: *dim,
                    subjects: vec![*id],
                    at: *at,
                    operator: "exclude",
                    description: format!("excluded member version '{name}'"),
                });
                Ok(None)
            }
            BasicOp::Associate { dim, rel } => {
                let d = tmd.dimension(*dim)?;
                let from_name = d.version(rel.from)?.name.clone();
                let to_name = d.version(rel.to)?.name.clone();
                let subjects = vec![rel.from, rel.to];
                let at = tmd.dimension(*dim)?.version(rel.to)?.validity.start();
                tmd.add_mapping(*dim, rel.clone())?;
                tmd.record_evolution(EvolutionEntry {
                    dimension: *dim,
                    subjects,
                    at,
                    operator: "associate",
                    description: format!("mapping relationship '{from_name}' -> '{to_name}'"),
                });
                Ok(None)
            }
            BasicOp::Reclassify {
                dim,
                id,
                ti,
                tf,
                old_parents,
                new_parents,
            } => {
                let name = tmd.dimension(*dim)?.version(*id)?.name.clone();
                tmd.dimension_mut(*dim)?
                    .reclassify(*id, *ti, *tf, old_parents, new_parents)?;
                tmd.record_evolution(EvolutionEntry {
                    dimension: *dim,
                    subjects: vec![*id],
                    at: *ti,
                    operator: "reclassify",
                    description: format!("reclassified member version '{name}'"),
                });
                Ok(None)
            }
        }
    }

    /// Renders the operator in the paper's Table 11 notation, resolving
    /// ids to names against `tmd` where possible.
    pub fn render(&self, tmd: &Tmd) -> String {
        let name_of = |dim: DimensionId, id: MemberVersionId| -> String {
            tmd.dimension(dim)
                .ok()
                .and_then(|d| d.version(id).ok())
                .map(|v| format!("id{}", v.name))
                .unwrap_or_else(|| format!("mv{}", id.0))
        };
        let set = |dim: DimensionId, ids: &[MemberVersionId]| -> String {
            if ids.is_empty() {
                "∅".to_owned()
            } else {
                let names: Vec<String> = ids.iter().map(|&i| name_of(dim, i)).collect();
                format!("{{{}}}", names.join(","))
            }
        };
        let dim_name = |dim: DimensionId| {
            tmd.dimension(dim)
                .map(|d| d.name().to_owned())
                .unwrap_or_else(|_| format!("D{}", dim.0))
        };
        match self {
            BasicOp::Insert {
                dim,
                name,
                ti,
                parents,
                children,
                ..
            } => format!(
                "Insert({}, id{name}, {name}, {ti}, {}, {})",
                dim_name(*dim),
                set(*dim, parents),
                set(*dim, children)
            ),
            BasicOp::Exclude { dim, id, at } => {
                format!("Exclude({}, {}, {at})", dim_name(*dim), name_of(*dim, *id))
            }
            BasicOp::Associate { dim, rel } => {
                let fwd: Vec<String> = rel
                    .forward
                    .iter()
                    .map(|m| format!("({},{})", m.func, m.confidence))
                    .collect();
                let bwd: Vec<String> = rel
                    .backward
                    .iter()
                    .map(|m| format!("({},{})", m.func, m.confidence))
                    .collect();
                format!(
                    "Associate({}, {}, {{{}}}, {{{}}})",
                    name_of(*dim, rel.from),
                    name_of(*dim, rel.to),
                    fwd.join(","),
                    bwd.join(",")
                )
            }
            BasicOp::Reclassify {
                dim,
                id,
                ti,
                old_parents,
                new_parents,
                ..
            } => format!(
                "Reclassify({}, {}, {ti}, {}, {})",
                dim_name(*dim),
                name_of(*dim, *id),
                set(*dim, old_parents),
                set(*dim, new_parents)
            ),
        }
    }
}

/// The record of a high-level operation: ids created plus the concrete
/// basic-operator script that was applied (Table 11's right-hand side).
#[derive(Debug, Clone)]
pub struct EvolutionOutcome {
    /// Member versions created by the operation, in creation order.
    pub created: Vec<MemberVersionId>,
    /// The basic operators applied, in order.
    pub script: Vec<BasicOp>,
}

impl EvolutionOutcome {
    /// Renders the script in Table 11 notation, one operator per line.
    pub fn render(&self, tmd: &Tmd) -> String {
        self.script
            .iter()
            .map(|op| format!("- {}", op.render(tmd)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Specification of one part created by a [`split`]: its name and the
/// per-measure mapping in each direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPart {
    /// Name of the new member.
    pub name: String,
    /// `F`: old data onto this part (per measure).
    pub forward: Vec<MeasureMapping>,
    /// `F⁻¹`: this part's data back onto the old member (per measure).
    pub backward: Vec<MeasureMapping>,
}

impl SplitPart {
    /// A part receiving fraction `k` of every measure (approximate
    /// forward, exact identity backward) — the paper's Example 6 pattern.
    pub fn proportional(name: impl Into<String>, k: f64, measures: usize) -> Self {
        SplitPart {
            name: name.into(),
            forward: vec![MeasureMapping::approx_scale(k); measures],
            backward: vec![MeasureMapping::EXACT_IDENTITY; measures],
        }
    }
}

/// Specification of one source consumed by a [`merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct MergeSource {
    /// The member version being merged away.
    pub id: MemberVersionId,
    /// `F`: this source's data onto the merged member (per measure).
    pub forward: Vec<MeasureMapping>,
    /// `F⁻¹`: merged data back onto this source (per measure).
    pub backward: Vec<MeasureMapping>,
}

impl MergeSource {
    /// A source contributing identically forward and receiving fraction
    /// `k` (approximate) of the merged member backward — Table 11's merge
    /// pattern for known shares.
    pub fn with_share(id: MemberVersionId, k: f64, measures: usize) -> Self {
        MergeSource {
            id,
            forward: vec![MeasureMapping::EXACT_IDENTITY; measures],
            backward: vec![MeasureMapping::approx_scale(k); measures],
        }
    }

    /// A source whose backward mapping is unknown (`(-, uk)`).
    pub fn with_unknown_share(id: MemberVersionId, measures: usize) -> Self {
        MergeSource {
            id,
            forward: vec![MeasureMapping::EXACT_IDENTITY; measures],
            backward: vec![MeasureMapping::UNKNOWN; measures],
        }
    }
}

/// Applies basic operators in order and keeps what they did: each
/// operator joins the script, each inserted id joins `created`. Every
/// operation compiles through it, so no operator is applied unrecorded.
pub(crate) struct Script<'t> {
    pub(crate) tmd: &'t mut Tmd,
    outcome: EvolutionOutcome,
}

impl<'t> Script<'t> {
    pub(crate) fn new(tmd: &'t mut Tmd) -> Self {
        let outcome = EvolutionOutcome {
            created: Vec::new(),
            script: Vec::new(),
        };
        Script { tmd, outcome }
    }

    /// Applies `op` and records it; an `Insert` returns its new id.
    pub(crate) fn push(&mut self, op: BasicOp) -> Result<Option<MemberVersionId>> {
        let id = op.apply(self.tmd)?;
        self.outcome.created.extend(id);
        self.outcome.script.push(op);
        Ok(id)
    }

    pub(crate) fn finish(self) -> EvolutionOutcome {
        self.outcome
    }

    /// The script of one operator.
    fn one(tmd: &mut Tmd, op: BasicOp) -> Result<EvolutionOutcome> {
        let mut script = Script::new(tmd);
        script.push(op)?;
        Ok(script.finish())
    }
}

/// An `Insert` of `spec` from `at` on, under `parents` and over no
/// children.
pub(crate) fn insert(
    dim: DimensionId,
    spec: MemberVersionSpec,
    at: Instant,
    parents: Vec<MemberVersionId>,
) -> BasicOp {
    let MemberVersionSpec {
        name,
        attributes,
        level,
    } = spec;
    BasicOp::Insert {
        dim,
        name,
        attributes,
        level,
        ti: at,
        tf: None,
        parents,
        children: Vec::new(),
    }
}

/// The one compiler of the operations that replace members
/// (transformation, merge, split, increase, decrease, partial
/// annexation): exclude `sources` at `at`, insert `successors` in order
/// under `parents`, then associate the relationships `links` builds from
/// the successors' new ids. This order is Table 11's, and it decides the
/// member version ids the operation creates.
fn replace(
    tmd: &mut Tmd,
    dim: DimensionId,
    at: Instant,
    sources: &[MemberVersionId],
    successors: Vec<MemberVersionSpec>,
    parents: &[MemberVersionId],
    links: impl FnOnce(&[MemberVersionId]) -> Vec<MappingRelationship>,
) -> Result<EvolutionOutcome> {
    let mut script = Script::new(tmd);
    for &id in sources {
        script.push(BasicOp::Exclude { dim, id, at })?;
    }
    for spec in successors {
        script.push(insert(dim, spec, at, parents.to_vec()))?;
    }
    for rel in links(&script.outcome.created) {
        script.push(BasicOp::Associate { dim, rel })?;
    }
    Ok(script.finish())
}

/// *Creation of a dimension member* at `at` under `parents`
/// (Table 11, first pattern).
///
/// # Errors
///
/// Propagates basic-operator failures.
pub fn create(
    tmd: &mut Tmd,
    dim: DimensionId,
    name: impl Into<String>,
    level: Option<String>,
    at: Instant,
    parents: &[MemberVersionId],
) -> Result<EvolutionOutcome> {
    let spec = named_at(name, level);
    Script::one(tmd, insert(dim, spec, at, parents.to_vec()))
}

/// *Deletion of a dimension member* at `at`.
///
/// # Errors
///
/// Propagates basic-operator failures.
pub fn delete(
    tmd: &mut Tmd,
    dim: DimensionId,
    id: MemberVersionId,
    at: Instant,
) -> Result<EvolutionOutcome> {
    Script::one(tmd, BasicOp::Exclude { dim, id, at })
}

/// *Transformation of a member* (change of name, attribute or meaning)
/// at `at`: the old version closes, an equivalent new version opens under
/// the same parents, linked by an exact-identity equivalence mapping
/// (Table 11, second pattern).
///
/// # Errors
///
/// Propagates basic-operator failures.
pub fn transform(
    tmd: &mut Tmd,
    dim: DimensionId,
    id: MemberVersionId,
    new_name: impl Into<String>,
    new_attributes: BTreeMap<String, String>,
    at: Instant,
) -> Result<EvolutionOutcome> {
    let measures = tmd.measures().len();
    let (level, parents) = {
        let d = tmd.dimension(dim)?;
        (d.version(id)?.level.clone(), d.parents_at(id, at.pred()))
    };
    let successor = MemberVersionSpec {
        name: new_name.into(),
        attributes: new_attributes,
        level,
    };
    replace(tmd, dim, at, &[id], vec![successor], &parents, |new| {
        vec![MappingRelationship::equivalence(id, new[0], measures)]
    })
}

/// *Merging of n members into one member* at `at` (Table 11, third
/// pattern): sources are excluded, the merged member inserted under
/// `parents`, and one mapping relationship associated per source.
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] on an empty source list; otherwise
/// propagates basic-operator failures.
pub fn merge(
    tmd: &mut Tmd,
    dim: DimensionId,
    sources: &[MergeSource],
    new_name: impl Into<String>,
    level: Option<String>,
    at: Instant,
    parents: &[MemberVersionId],
) -> Result<EvolutionOutcome> {
    if sources.is_empty() {
        return Err(CoreError::InvalidEvolution(
            "merge requires at least one source".into(),
        ));
    }
    let ids: Vec<MemberVersionId> = sources.iter().map(|s| s.id).collect();
    let merged = vec![named_at(new_name, level)];
    replace(tmd, dim, at, &ids, merged, parents, |new| {
        let link = |s: &MergeSource| MappingRelationship {
            from: s.id,
            to: new[0],
            forward: s.forward.clone(),
            backward: s.backward.clone(),
        };
        sources.iter().map(link).collect()
    })
}

/// *Splitting of one member into n members* at `at` — the paper's 2003
/// case-study evolution.
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] on an empty part list; otherwise
/// propagates basic-operator failures.
pub fn split(
    tmd: &mut Tmd,
    dim: DimensionId,
    source: MemberVersionId,
    parts: &[SplitPart],
    at: Instant,
    parents: &[MemberVersionId],
) -> Result<EvolutionOutcome> {
    if parts.is_empty() {
        return Err(CoreError::InvalidEvolution(
            "split requires at least one part".into(),
        ));
    }
    // Parts inherit the level of the source.
    let level = tmd.dimension(dim)?.version(source)?.level.clone();
    let part = |p: &SplitPart| named_at(p.name.clone(), level.clone());
    let successors = parts.iter().map(part).collect();
    replace(tmd, dim, at, &[source], successors, parents, |new| {
        let link = |(p, &to): (&SplitPart, _)| MappingRelationship {
            from: source,
            to,
            forward: p.forward.clone(),
            backward: p.backward.clone(),
        };
        parts.iter().zip(new).map(link).collect()
    })
}

/// *Reclassification of a member* (a pure structure change — same member
/// version, new parents).
///
/// # Errors
///
/// Propagates basic-operator failures.
pub fn reclassify(
    tmd: &mut Tmd,
    dim: DimensionId,
    id: MemberVersionId,
    at: Instant,
    old_parents: &[MemberVersionId],
    new_parents: &[MemberVersionId],
) -> Result<EvolutionOutcome> {
    let op = BasicOp::Reclassify {
        dim,
        id,
        ti: at,
        tf: None,
        old_parents: old_parents.to_vec(),
        new_parents: new_parents.to_vec(),
    };
    Script::one(tmd, op)
}

/// *Confidence change*: revises the per-measure mappings (functions
/// and/or confidence factors) of an existing mapping relationship
/// `from → to`. The paper treats mapping functions as "based on knowledge
/// around evolution operations"; that knowledge improves over time — an
/// unknown backward share becomes an estimate, an approximation becomes
/// exact — and this operator records the revision in the evolution log
/// without touching the structure.
///
/// # Errors
///
/// [`CoreError::MappingNotFound`] when the relationship does not exist,
/// [`CoreError::MappingArityMismatch`] on a wrong per-measure arity.
pub fn change_confidence(
    tmd: &mut Tmd,
    dim: DimensionId,
    from: MemberVersionId,
    to: MemberVersionId,
    forward: Vec<MeasureMapping>,
    backward: Vec<MeasureMapping>,
) -> Result<()> {
    let (from_name, to_name, at) = {
        let d = tmd.dimension(dim)?;
        (
            d.version(from)?.name.clone(),
            d.version(to)?.name.clone(),
            d.version(to)?.validity.start(),
        )
    };
    tmd.set_mapping(dim, from, to, forward, backward)?;
    tmd.record_evolution(EvolutionEntry {
        dimension: dim,
        subjects: vec![from, to],
        at,
        operator: "confidence",
        description: format!("revised mapping '{from_name}' -> '{to_name}'"),
    });
    Ok(())
}

/// Complex operation *Increase* (Table 11): member `id` becomes a larger
/// `new_name`, values scaling by `factor` (approximate both ways).
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] for a non-positive factor; otherwise
/// propagates basic-operator failures.
pub fn increase(
    tmd: &mut Tmd,
    dim: DimensionId,
    id: MemberVersionId,
    new_name: impl Into<String>,
    factor: f64,
    at: Instant,
    parents: &[MemberVersionId],
) -> Result<EvolutionOutcome> {
    if factor <= 0.0 {
        return Err(CoreError::InvalidEvolution(format!(
            "increase factor must be positive, got {factor}"
        )));
    }
    let measures = tmd.measures().len();
    let level = tmd.dimension(dim)?.version(id)?.level.clone();
    let successor = vec![named_at(new_name, level)];
    replace(tmd, dim, at, &[id], successor, parents, |new| {
        let approx = MeasureMapping::approx_scale;
        let (forward, backward) = (approx(factor), approx(1.0 / factor));
        let rel = MappingRelationship::uniform(id, new[0], forward, backward, measures);
        vec![rel]
    })
}

/// Complex operation *Decrease* (splitting followed by a deletion): the
/// member shrinks to `kept_fraction` of itself under a new name; the
/// severed remainder simply disappears.
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] for a fraction outside `(0, 1]`;
/// otherwise propagates basic-operator failures.
pub fn decrease(
    tmd: &mut Tmd,
    dim: DimensionId,
    id: MemberVersionId,
    new_name: impl Into<String>,
    kept_fraction: f64,
    at: Instant,
    parents: &[MemberVersionId],
) -> Result<EvolutionOutcome> {
    if !(kept_fraction > 0.0 && kept_fraction <= 1.0) {
        return Err(CoreError::InvalidEvolution(format!(
            "kept fraction must be in (0, 1], got {kept_fraction}"
        )));
    }
    let measures = tmd.measures().len();
    let part = SplitPart {
        name: new_name.into(),
        forward: vec![MeasureMapping::approx_scale(kept_fraction); measures],
        backward: vec![MeasureMapping::EXACT_IDENTITY; measures],
    };
    split(tmd, dim, id, std::slice::from_ref(&part), at, parents)
}

/// Parameters of a [`partial_annexation`]: fractions in the Table 11
/// example read `PartialAnnexationSpec { moved: 0.1, target_growth: 0.2 }`
/// ("10 % of the measure of V1 will go for V2, what is an increasing of
/// 20 % for V2").
#[derive(Debug, Clone, Copy)]
pub struct PartialAnnexationSpec {
    /// Fraction of the source member's measures moved away.
    pub moved: f64,
    /// Relative growth of the target member.
    pub target_growth: f64,
}

/// Complex operation *Partial annexation* (splitting followed by a
/// merging, Table 11's last pattern): a portion of `v1` moves into `v2`,
/// producing successors `v1_minus_name` and `v2_plus_name`.
///
/// # Errors
///
/// [`CoreError::InvalidEvolution`] for fractions outside `(0, 1)` /
/// non-positive growth; otherwise propagates basic-operator failures.
#[allow(clippy::too_many_arguments)]
pub fn partial_annexation(
    tmd: &mut Tmd,
    dim: DimensionId,
    v1: MemberVersionId,
    v2: MemberVersionId,
    v1_minus_name: impl Into<String>,
    v2_plus_name: impl Into<String>,
    spec: PartialAnnexationSpec,
    at: Instant,
    parents: &[MemberVersionId],
) -> Result<EvolutionOutcome> {
    if !(spec.moved > 0.0 && spec.moved < 1.0) || spec.target_growth <= 0.0 {
        return Err(CoreError::InvalidEvolution(format!(
            "invalid partial annexation fractions: moved {}, growth {}",
            spec.moved, spec.target_growth
        )));
    }
    let measures = tmd.measures().len();
    let successors = {
        let d = tmd.dimension(dim)?;
        let (level1, level2) = (d.version(v1)?.level.clone(), d.version(v2)?.level.clone());
        vec![
            named_at(v1_minus_name, level1),
            named_at(v2_plus_name, level2),
        ]
    };
    // Table 11: V1 keeps (1 - moved) of itself (exact backward); V2 maps
    // identically into V2+ whose backward shrinks by the growth; the
    // annexed share crosses from V1 to V2+.
    replace(tmd, dim, at, &[v1, v2], successors, parents, |new| {
        let (v1m, v2p, growth) = (new[0], new[1], spec.target_growth);
        let (exact, approx) = (MeasureMapping::EXACT_IDENTITY, MeasureMapping::approx_scale);
        let link = |from, to, forward, backward| {
            MappingRelationship::uniform(from, to, forward, backward, measures)
        };
        vec![
            link(v1, v1m, approx(1.0 - spec.moved), exact),
            link(v2, v2p, exact, approx(1.0 / (1.0 + growth))),
            link(v1, v2p, approx(spec.moved), approx(growth / (1.0 + growth))),
        ]
    })
}

/// A successor named `name` at `level`, with no attributes.
fn named_at(name: impl Into<String>, level: Option<String>) -> MemberVersionSpec {
    MemberVersionSpec {
        level,
        ..MemberVersionSpec::named(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::MeasureDef;
    use mvolap_temporal::Granularity;

    /// A minimal one-dimension schema with a root division and two leaf
    /// departments.
    fn base() -> (
        Tmd,
        DimensionId,
        MemberVersionId,
        MemberVersionId,
        MemberVersionId,
    ) {
        let mut tmd = Tmd::new("t", Granularity::Month);
        let mut d = crate::dimension::TemporalDimension::new("Org");
        let all = Interval::since(Instant::ym(2001, 1));
        let p = d.add_version(MemberVersionSpec::named("P1").at_level("Division"), all);
        let v1 = d.add_version(MemberVersionSpec::named("V1").at_level("Department"), all);
        let v2 = d.add_version(MemberVersionSpec::named("V2").at_level("Department"), all);
        d.add_relationship(v1, p, all).unwrap();
        d.add_relationship(v2, p, all).unwrap();
        let dim = tmd.add_dimension(d).unwrap();
        tmd.add_measure(MeasureDef::summed("m1")).unwrap();
        (tmd, dim, p, v1, v2)
    }

    #[test]
    fn create_inserts_under_parent() {
        let (mut tmd, dim, p, ..) = base();
        let t = Instant::ym(2003, 1);
        let out = create(&mut tmd, dim, "V", Some("Department".into()), t, &[p]).unwrap();
        assert_eq!(out.script.len(), 1);
        let id = out.created[0];
        assert_eq!(tmd.dimension(dim).unwrap().parents_at(id, t), vec![p]);
        assert_eq!(tmd.evolution_log().entries().len(), 1);
    }

    #[test]
    fn transform_closes_old_opens_new_with_equivalence() {
        let (mut tmd, dim, p, v1, _) = base();
        let t = Instant::ym(2003, 1);
        let out = transform(&mut tmd, dim, v1, "V1'", BTreeMap::new(), t).unwrap();
        assert_eq!(out.script.len(), 3);
        let new_id = out.created[0];
        let d = tmd.dimension(dim).unwrap();
        assert_eq!(d.version(v1).unwrap().validity.end(), Instant::ym(2002, 12));
        assert_eq!(d.version(new_id).unwrap().name, "V1'");
        assert_eq!(d.parents_at(new_id, t), vec![p]);
        // Equivalence mapping registered.
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].forward[0], MeasureMapping::EXACT_IDENTITY);
    }

    #[test]
    fn merge_matches_table_11_pattern() {
        // Table 11: merge V1 and V2 into V12; half of V12's values map
        // back to V1 approximately, V12 -> V2 unknown.
        let (mut tmd, dim, p, v1, v2) = base();
        let t = Instant::ym(2003, 1);
        let sources = [
            MergeSource::with_share(v1, 0.5, 1),
            MergeSource::with_unknown_share(v2, 1),
        ];
        let out = merge(
            &mut tmd,
            dim,
            &sources,
            "V12",
            Some("Department".into()),
            t,
            &[p],
        )
        .unwrap();
        // Exclude, Exclude, Insert, Associate, Associate.
        assert_eq!(out.script.len(), 5);
        let ops: Vec<&str> = out.script.iter().map(BasicOp::operator).collect();
        assert_eq!(
            ops,
            vec!["Exclude", "Exclude", "Insert", "Associate", "Associate"]
        );
        let d = tmd.dimension(dim).unwrap();
        assert_eq!(d.version(v1).unwrap().validity.end(), Instant::ym(2002, 12));
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels.len(), 2);
        assert_eq!(rels[0].backward[0], MeasureMapping::approx_scale(0.5));
        assert_eq!(rels[1].backward[0], MeasureMapping::UNKNOWN);
    }

    #[test]
    fn split_reproduces_case_study_evolution() {
        let (mut tmd, dim, p, v1, _) = base();
        let t = Instant::ym(2003, 1);
        let parts = [
            SplitPart::proportional("V1a", 0.4, 1),
            SplitPart::proportional("V1b", 0.6, 1),
        ];
        let out = split(&mut tmd, dim, v1, &parts, t, &[p]).unwrap();
        assert_eq!(out.created.len(), 2);
        assert_eq!(out.script.len(), 5);
        let d = tmd.dimension(dim).unwrap();
        // New parts inherit the level of the source.
        assert_eq!(
            d.version(out.created[0]).unwrap().level.as_deref(),
            Some("Department")
        );
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels[0].forward[0], MeasureMapping::approx_scale(0.4));
        assert_eq!(rels[1].forward[0], MeasureMapping::approx_scale(0.6));
    }

    #[test]
    fn increase_scales_both_ways() {
        let (mut tmd, dim, p, v1, _) = base();
        let t = Instant::ym(2003, 1);
        let out = increase(&mut tmd, dim, v1, "V1+", 2.0, t, &[p]).unwrap();
        assert_eq!(out.script.len(), 3);
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels[0].forward[0], MeasureMapping::approx_scale(2.0));
        assert_eq!(rels[0].backward[0], MeasureMapping::approx_scale(0.5));
        assert!(increase(&mut tmd, dim, v1, "x", 0.0, t, &[p]).is_err());
    }

    #[test]
    fn decrease_is_split_then_delete() {
        let (mut tmd, dim, p, v1, _) = base();
        let t = Instant::ym(2003, 1);
        let out = decrease(&mut tmd, dim, v1, "V1-", 0.9, t, &[p]).unwrap();
        assert_eq!(out.created.len(), 1);
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels[0].forward[0], MeasureMapping::approx_scale(0.9));
        assert!(decrease(&mut tmd, dim, v1, "x", 1.5, t, &[p]).is_err());
    }

    #[test]
    fn partial_annexation_matches_table_11() {
        let (mut tmd, dim, p, v1, v2) = base();
        let t = Instant::ym(2003, 1);
        let out = partial_annexation(
            &mut tmd,
            dim,
            v1,
            v2,
            "V1-",
            "V2+",
            PartialAnnexationSpec {
                moved: 0.1,
                target_growth: 0.2,
            },
            t,
            &[p],
        )
        .unwrap();
        assert_eq!(out.script.len(), 7);
        let ops: Vec<&str> = out.script.iter().map(BasicOp::operator).collect();
        assert_eq!(
            ops,
            vec![
                "Exclude",
                "Exclude",
                "Insert",
                "Insert",
                "Associate",
                "Associate",
                "Associate"
            ]
        );
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels.len(), 3);
        // V1 -> V1-: 0.9 approx forward, identity exact backward.
        assert_eq!(rels[0].forward[0], MeasureMapping::approx_scale(0.9));
        assert_eq!(rels[0].backward[0], MeasureMapping::EXACT_IDENTITY);
        // V2 -> V2+: identity exact fwd, ~0.83 approx backward (the paper
        // rounds to 0.8).
        assert_eq!(rels[1].forward[0], MeasureMapping::EXACT_IDENTITY);
        let bwd = rels[1].backward[0];
        assert!(
            matches!(bwd.func, crate::mapping::MappingFunction::Scale(k) if (k - 1.0/1.2).abs() < 1e-12)
        );
        // V1 -> V2+: 0.1 approx forward, ~0.167 approx backward.
        assert_eq!(rels[2].forward[0], MeasureMapping::approx_scale(0.1));
    }

    #[test]
    fn change_confidence_revises_mapping_in_place() {
        let (mut tmd, dim, p, v1, _) = base();
        let t = Instant::ym(2003, 1);
        let sources = [MergeSource::with_unknown_share(v1, 1)];
        let out = merge(&mut tmd, dim, &sources, "V12", None, t, &[p]).unwrap();
        let merged = out.created[0];
        // Knowledge improves: the unknown backward share becomes a 0.5
        // approximation.
        change_confidence(
            &mut tmd,
            dim,
            v1,
            merged,
            vec![MeasureMapping::EXACT_IDENTITY],
            vec![MeasureMapping::approx_scale(0.5)],
        )
        .unwrap();
        let rels = tmd.mapping_graph(dim).unwrap().relationships();
        assert_eq!(rels[0].backward[0], MeasureMapping::approx_scale(0.5));
        let log = tmd.evolution_log().entries();
        assert_eq!(log.last().unwrap().operator, "confidence");
        // Arity and existence are validated.
        assert!(matches!(
            change_confidence(&mut tmd, dim, v1, merged, vec![], vec![]),
            Err(CoreError::MappingArityMismatch { .. })
        ));
        assert!(matches!(
            change_confidence(
                &mut tmd,
                dim,
                merged,
                v1,
                vec![MeasureMapping::EXACT_IDENTITY],
                vec![MeasureMapping::EXACT_IDENTITY],
            ),
            Err(CoreError::MappingNotFound { .. })
        ));
    }

    #[test]
    fn reclassify_records_log() {
        let (mut tmd, dim, p, v1, _) = base();
        // Add a second division to move into.
        let p2 = tmd
            .add_version(
                dim,
                MemberVersionSpec::named("P2").at_level("Division"),
                Interval::since(Instant::ym(2001, 1)),
            )
            .unwrap();
        reclassify(&mut tmd, dim, v1, Instant::ym(2002, 1), &[p], &[p2]).unwrap();
        let d = tmd.dimension(dim).unwrap();
        assert_eq!(d.parents_at(v1, Instant::ym(2002, 6)), vec![p2]);
        let log = tmd.evolution_log().describe(dim, v1);
        assert!(log.contains("[reclassify]"));
    }

    #[test]
    fn script_rendering_is_table_11_style() {
        let (mut tmd, dim, p, v1, _) = base();
        let t = Instant::ym(2003, 1);
        let parts = [
            SplitPart::proportional("V1a", 0.4, 1),
            SplitPart::proportional("V1b", 0.6, 1),
        ];
        let out = split(&mut tmd, dim, v1, &parts, t, &[p]).unwrap();
        let text = out.render(&tmd);
        assert!(text.contains("- Exclude(Org, idV1, 01/2003)"));
        assert!(text.contains("- Insert(Org, idV1a, V1a, 01/2003, {idP1}, ∅)"));
        assert!(text.contains("Associate(idV1, idV1a, {(x->0.4*x,am)}, {(x->x,em)})"));
    }
}
