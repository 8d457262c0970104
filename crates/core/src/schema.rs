//! The Temporal Multidimensional Schema (paper Definition 8).
//!
//! `TMD = <{D1, …, Dn, T}, MR, f>`: temporal dimensions, a time
//! dimension, mapping relationships and a temporally consistent fact
//! table. In this implementation the time dimension `T` is the discrete
//! [`Instant`] axis itself (grouped through
//! [`TimeLevel`](crate::aggregate::TimeLevel) at query time), which
//! matches the paper's treatment of time as a distinguished, non-evolving
//! dimension.

use std::sync::atomic::{AtomicU64, Ordering};

use mvolap_temporal::{Granularity, Instant, Interval};

use crate::dimension::TemporalDimension;
use crate::error::{CoreError, Result};
use crate::fact::{FactTable, MeasureDef};
use crate::ids::{DimensionId, MeasureId, MemberVersionId};
use crate::mapping::{MappingGraph, MappingRelationship};
use crate::member::MemberVersionSpec;
use crate::metadata::{EvolutionEntry, EvolutionLog};
use crate::structure_version::{infer_structure_versions, StructureVersion};

/// Source of [`Tmd::stamp`]: one process-wide counter, so no two schema
/// instances (or structural states of one) ever share a stamp.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A Temporal Multidimensional Schema: the root object of the model.
#[derive(Debug)]
pub struct Tmd {
    name: String,
    granularity: Granularity,
    dimensions: Vec<TemporalDimension>,
    measures: Vec<MeasureDef>,
    /// One mapping graph per dimension (mapping relationships never cross
    /// dimensions).
    mappings: Vec<MappingGraph>,
    facts: FactTable,
    log: EvolutionLog,
    /// Structural-mutation counter: bumped by every schema change that
    /// can invalidate derived lookups (new versions, relationships,
    /// mappings, dimensions, measures — and explicitly by the evolution
    /// operators). Fact appends do *not* bump it: mapping routes and
    /// roll-up paths never depend on fact rows.
    generation: u64,
    /// Process-unique name of this instance in its current structural
    /// state; see [`Tmd::stamp`].
    stamp: u64,
}

impl Clone for Tmd {
    /// A copy with a stamp of its own: the two may evolve apart.
    fn clone(&self) -> Self {
        Tmd {
            name: self.name.clone(),
            granularity: self.granularity,
            dimensions: self.dimensions.clone(),
            measures: self.measures.clone(),
            mappings: self.mappings.clone(),
            facts: self.facts.clone(),
            log: self.log.clone(),
            generation: self.generation,
            stamp: next_stamp(),
        }
    }
}

impl Tmd {
    /// Creates an empty schema.
    pub fn new(name: impl Into<String>, granularity: Granularity) -> Self {
        Tmd {
            name: name.into(),
            granularity,
            dimensions: Vec::new(),
            measures: Vec::new(),
            mappings: Vec::new(),
            facts: FactTable::new(0, 0),
            log: EvolutionLog::new(),
            generation: 0,
            stamp: next_stamp(),
        }
    }

    /// The current structural generation. Any change to dimensions,
    /// member versions, relationships, mappings or measures moves it.
    /// It counts per instance — two schemas can share a number while
    /// holding different structures — so caches key on
    /// [`Tmd::stamp`]; checkpoint file names use this.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A process-unique name for this instance in its current
    /// structural state: drawn from one global counter by
    /// [`Tmd::new`], by `clone` and by every [`Tmd::bump_generation`].
    /// Within one stamp the structure is fixed and facts only grow,
    /// which is what [`crate::QueryMemo`] keys its caches on.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Explicitly advances the structural generation (and draws a new
    /// stamp), invalidating every cache keyed on the schema. The
    /// evolution operators call this on completion; callers holding
    /// external derived state may too.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
        self.stamp = next_stamp();
    }

    /// Schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The time granularity used for rendering instants.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Adds a dimension. Only possible while the fact table is empty —
    /// the paper's "creation of a dimension" schema evolution; with facts
    /// present it would leave existing rows without coordinates.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEvolution`] when facts already exist.
    pub fn add_dimension(&mut self, dimension: TemporalDimension) -> Result<DimensionId> {
        if !self.facts.is_empty() {
            return Err(CoreError::InvalidEvolution(
                "cannot add a dimension to a schema that already holds facts".into(),
            ));
        }
        let id = DimensionId(self.dimensions.len() as u32);
        self.dimensions.push(dimension);
        self.mappings.push(MappingGraph::new());
        self.facts = FactTable::new(self.dimensions.len(), self.measures.len());
        self.bump_generation();
        Ok(id)
    }

    /// Adds a measure, under the same restriction as [`Tmd::add_dimension`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEvolution`] when facts or mappings already
    /// exist (their per-measure arity would go stale).
    pub fn add_measure(&mut self, measure: MeasureDef) -> Result<MeasureId> {
        if !self.facts.is_empty() {
            return Err(CoreError::InvalidEvolution(
                "cannot add a measure to a schema that already holds facts".into(),
            ));
        }
        if self.mappings.iter().any(|g| !g.relationships().is_empty()) {
            return Err(CoreError::InvalidEvolution(
                "cannot add a measure once mapping relationships exist".into(),
            ));
        }
        let id = MeasureId(self.measures.len() as u16);
        self.measures.push(measure);
        self.facts = FactTable::new(self.dimensions.len(), self.measures.len());
        self.bump_generation();
        Ok(id)
    }

    /// Looks up a dimension by id.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`].
    pub fn dimension(&self, id: DimensionId) -> Result<&TemporalDimension> {
        self.dimensions
            .get(id.index())
            .ok_or(CoreError::UnknownDimension(id))
    }

    /// Mutable dimension access for evolution operators.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`].
    pub(crate) fn dimension_mut(&mut self, id: DimensionId) -> Result<&mut TemporalDimension> {
        // Handing out mutable access means the dimension may change
        // structurally; conservatively advance the generation.
        self.bump_generation();
        self.dimensions
            .get_mut(id.index())
            .ok_or(CoreError::UnknownDimension(id))
    }

    /// Looks up a dimension id by name.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimensionName`].
    pub fn dimension_by_name(&self, name: &str) -> Result<DimensionId> {
        self.dimensions
            .iter()
            .position(|d| d.name() == name)
            .map(|i| DimensionId(i as u32))
            .ok_or_else(|| CoreError::UnknownDimensionName(name.to_owned()))
    }

    /// All dimensions, in id order.
    pub fn dimensions(&self) -> &[TemporalDimension] {
        &self.dimensions
    }

    /// All measures, in id order.
    pub fn measures(&self) -> &[MeasureDef] {
        &self.measures
    }

    /// Looks up a measure id by name.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownMeasureName`].
    pub fn measure_by_name(&self, name: &str) -> Result<MeasureId> {
        self.measures
            .iter()
            .position(|m| m.name == name)
            .map(|i| MeasureId(i as u16))
            .ok_or_else(|| CoreError::UnknownMeasureName(name.to_owned()))
    }

    /// The temporally consistent fact table.
    pub fn facts(&self) -> &FactTable {
        &self.facts
    }

    /// The mapping graph of one dimension.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`].
    pub fn mapping_graph(&self, dim: DimensionId) -> Result<&MappingGraph> {
        self.mappings
            .get(dim.index())
            .ok_or(CoreError::UnknownDimension(dim))
    }

    /// The evolution log.
    pub fn evolution_log(&self) -> &EvolutionLog {
        &self.log
    }

    /// Records an evolution event (used by the evolution operators).
    pub(crate) fn record_evolution(&mut self, entry: EvolutionEntry) {
        self.log.record(entry);
    }

    /// Appends a fact row after full Definition 5 validation
    /// ([`Tmd::check_fact`]).
    ///
    /// # Errors
    ///
    /// Arity, validity or leaf violations — see [`CoreError`].
    pub fn add_fact(
        &mut self,
        coords: &[MemberVersionId],
        t: Instant,
        values: &[f64],
    ) -> Result<()> {
        self.check_fact(coords, t, values)?;
        self.facts.push(coords, t, values)
    }

    /// Definition 5's checks on a fact row, without appending it: one
    /// coordinate per dimension, each existing, valid at `t` and a leaf
    /// member version at `t`, then one value per measure.
    ///
    /// # Errors
    ///
    /// Arity, validity or leaf violations — see [`CoreError`].
    pub fn check_fact(&self, coords: &[MemberVersionId], t: Instant, values: &[f64]) -> Result<()> {
        if coords.len() != self.dimensions.len() {
            return Err(CoreError::CoordinateArityMismatch {
                expected: self.dimensions.len(),
                actual: coords.len(),
            });
        }
        for (dim, &c) in self.dimensions.iter().zip(coords) {
            dim.version(c)?;
            if !dim.is_valid_at(c, t) {
                return Err(CoreError::CoordinateNotValid {
                    dimension: dim.name().to_owned(),
                    id: c,
                    at: t,
                });
            }
            if !dim.is_leaf_at(c, t) {
                return Err(CoreError::CoordinateNotLeaf {
                    dimension: dim.name().to_owned(),
                    id: c,
                });
            }
        }
        if values.len() != self.measures.len() {
            return Err(CoreError::MeasureArityMismatch {
                expected: self.measures.len(),
                actual: values.len(),
            });
        }
        Ok(())
    }

    /// Convenience: appends a fact addressed by member names (resolved to
    /// the version valid at `t`).
    ///
    /// # Errors
    ///
    /// Name resolution failures plus everything [`Tmd::add_fact`] raises.
    pub fn add_fact_by_names(&mut self, names: &[&str], t: Instant, values: &[f64]) -> Result<()> {
        if names.len() != self.dimensions.len() {
            return Err(CoreError::CoordinateArityMismatch {
                expected: self.dimensions.len(),
                actual: names.len(),
            });
        }
        let mut coords = Vec::with_capacity(names.len());
        for (dim, &name) in self.dimensions.iter().zip(names) {
            coords.push(dim.version_named_at(name, t)?.id);
        }
        self.add_fact(&coords, t, values)
    }

    /// Adds a mapping relationship to dimension `dim` after Definition 7
    /// validation: per-measure arity matches the schema, endpoints exist,
    /// differ, and are leaf member versions.
    ///
    /// # Errors
    ///
    /// See [`CoreError`] variants for each violated rule.
    pub fn add_mapping(&mut self, dim: DimensionId, rel: MappingRelationship) -> Result<()> {
        let dimension = self.dimension(dim)?;
        if rel.forward.len() != self.measures.len() || rel.backward.len() != self.measures.len() {
            return Err(CoreError::MappingArityMismatch {
                expected: self.measures.len(),
                actual: rel.forward.len(),
            });
        }
        for endpoint in [rel.from, rel.to] {
            dimension.version(endpoint)?;
            if !dimension.is_ever_leaf(endpoint) {
                return Err(CoreError::MappingEndpointNotLeaf(endpoint));
            }
        }
        self.mappings[dim.index()].add(rel)?;
        self.bump_generation();
        Ok(())
    }

    /// Replaces the per-measure mappings of an existing relationship
    /// `from → to` of dimension `dim` — the mutation underlying the
    /// *confidence change* evolution
    /// ([`crate::evolution::change_confidence`]). Arity is re-validated
    /// against the schema's measures; the structural generation advances
    /// because composed mapping routes change.
    ///
    /// # Errors
    ///
    /// [`CoreError::MappingArityMismatch`] or
    /// [`CoreError::MappingNotFound`].
    pub fn set_mapping(
        &mut self,
        dim: DimensionId,
        from: MemberVersionId,
        to: MemberVersionId,
        forward: Vec<crate::mapping::MeasureMapping>,
        backward: Vec<crate::mapping::MeasureMapping>,
    ) -> Result<()> {
        self.dimension(dim)?;
        if forward.len() != self.measures.len() || backward.len() != self.measures.len() {
            return Err(CoreError::MappingArityMismatch {
                expected: self.measures.len(),
                actual: forward.len(),
            });
        }
        self.mappings[dim.index()].reweigh(from, to, forward, backward)?;
        self.bump_generation();
        Ok(())
    }

    /// Infers the structure versions of the schema (Definition 9).
    pub fn structure_versions(&self) -> Vec<StructureVersion> {
        infer_structure_versions(&self.dimensions)
    }

    /// Shorthand: adds a member version to a dimension.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`].
    pub fn add_version(
        &mut self,
        dim: DimensionId,
        spec: MemberVersionSpec,
        validity: Interval,
    ) -> Result<MemberVersionId> {
        Ok(self.dimension_mut(dim)?.add_version(spec, validity))
    }

    /// Shorthand: adds a temporal relationship to a dimension.
    ///
    /// # Errors
    ///
    /// Propagates [`TemporalDimension::add_relationship`] errors.
    pub fn add_relationship(
        &mut self,
        dim: DimensionId,
        child: MemberVersionId,
        parent: MemberVersionId,
        validity: Interval,
    ) -> Result<()> {
        self.dimension_mut(dim)?
            .add_relationship(child, parent, validity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::Confidence;
    use crate::mapping::MeasureMapping;

    fn base_schema() -> (Tmd, DimensionId) {
        let mut tmd = Tmd::new("test", Granularity::Month);
        let mut d = TemporalDimension::new("Org");
        let all = Interval::since(Instant::ym(2001, 1));
        let sales = d.add_version(MemberVersionSpec::named("Sales").at_level("Division"), all);
        let jones = d.add_version(
            MemberVersionSpec::named("Dpt.Jones").at_level("Department"),
            all,
        );
        d.add_relationship(jones, sales, all).unwrap();
        let dim = tmd.add_dimension(d).unwrap();
        tmd.add_measure(MeasureDef::summed("Amount")).unwrap();
        (tmd, dim)
    }

    #[test]
    fn fact_validation_leaf_and_validity() {
        let (mut tmd, dim) = base_schema();
        let t = Instant::ym(2001, 6);
        let jones = tmd
            .dimension(dim)
            .unwrap()
            .version_named_at("Dpt.Jones", t)
            .unwrap()
            .id;
        let sales = tmd
            .dimension(dim)
            .unwrap()
            .version_named_at("Sales", t)
            .unwrap()
            .id;
        tmd.add_fact(&[jones], t, &[100.0]).unwrap();
        assert_eq!(tmd.facts().len(), 1);
        // Non-leaf coordinate rejected.
        assert!(matches!(
            tmd.add_fact(&[sales], t, &[1.0]),
            Err(CoreError::CoordinateNotLeaf { .. })
        ));
        // Out-of-validity time rejected.
        assert!(matches!(
            tmd.add_fact(&[jones], Instant::ym(1999, 1), &[1.0]),
            Err(CoreError::CoordinateNotValid { .. })
        ));
        // Arity rejected.
        assert!(matches!(
            tmd.add_fact(&[], t, &[1.0]),
            Err(CoreError::CoordinateArityMismatch { .. })
        ));
    }

    #[test]
    fn fact_by_names() {
        let (mut tmd, _) = base_schema();
        tmd.add_fact_by_names(&["Dpt.Jones"], Instant::ym(2001, 6), &[42.0])
            .unwrap();
        assert_eq!(tmd.facts().len(), 1);
        assert!(tmd
            .add_fact_by_names(&["Dpt.Ghost"], Instant::ym(2001, 6), &[1.0])
            .is_err());
    }

    #[test]
    fn schema_frozen_after_facts() {
        let (mut tmd, _) = base_schema();
        tmd.add_fact_by_names(&["Dpt.Jones"], Instant::ym(2001, 6), &[1.0])
            .unwrap();
        assert!(matches!(
            tmd.add_dimension(TemporalDimension::new("X")),
            Err(CoreError::InvalidEvolution(_))
        ));
        assert!(matches!(
            tmd.add_measure(MeasureDef::summed("m2")),
            Err(CoreError::InvalidEvolution(_))
        ));
    }

    #[test]
    fn mapping_validation() {
        let (mut tmd, dim) = base_schema();
        let t = Instant::ym(2001, 6);
        let jones = tmd
            .dimension(dim)
            .unwrap()
            .version_named_at("Dpt.Jones", t)
            .unwrap()
            .id;
        let sales = tmd
            .dimension(dim)
            .unwrap()
            .version_named_at("Sales", t)
            .unwrap()
            .id;
        // Add a second leaf to map to.
        let bill = tmd
            .add_version(
                dim,
                MemberVersionSpec::named("Dpt.Bill").at_level("Department"),
                Interval::since(Instant::ym(2003, 1)),
            )
            .unwrap();
        // Wrong arity (2 measure mappings for a 1-measure schema).
        let bad = MappingRelationship::uniform(
            jones,
            bill,
            MeasureMapping::EXACT_IDENTITY,
            MeasureMapping::EXACT_IDENTITY,
            2,
        );
        assert!(matches!(
            tmd.add_mapping(dim, bad),
            Err(CoreError::MappingArityMismatch { .. })
        ));
        // Non-leaf endpoint.
        let non_leaf = MappingRelationship::equivalence(jones, sales, 1);
        assert!(matches!(
            tmd.add_mapping(dim, non_leaf),
            Err(CoreError::MappingEndpointNotLeaf(_))
        ));
        // Valid mapping accepted.
        let good = MappingRelationship::uniform(
            jones,
            bill,
            MeasureMapping {
                func: crate::mapping::MappingFunction::Scale(0.4),
                confidence: Confidence::Approx,
            },
            MeasureMapping::EXACT_IDENTITY,
            1,
        );
        tmd.add_mapping(dim, good).unwrap();
        assert_eq!(tmd.mapping_graph(dim).unwrap().relationships().len(), 1);
    }

    #[test]
    fn measure_frozen_after_mappings() {
        let (mut tmd, dim) = base_schema();
        let t = Instant::ym(2001, 6);
        let jones = tmd
            .dimension(dim)
            .unwrap()
            .version_named_at("Dpt.Jones", t)
            .unwrap()
            .id;
        let bill = tmd
            .add_version(
                dim,
                MemberVersionSpec::named("Dpt.Bill"),
                Interval::since(Instant::ym(2003, 1)),
            )
            .unwrap();
        tmd.add_mapping(dim, MappingRelationship::equivalence(jones, bill, 1))
            .unwrap();
        assert!(matches!(
            tmd.add_measure(MeasureDef::summed("m2")),
            Err(CoreError::InvalidEvolution(_))
        ));
    }

    #[test]
    fn lookups_by_name() {
        let (tmd, dim) = base_schema();
        assert_eq!(tmd.dimension_by_name("Org").unwrap(), dim);
        assert!(tmd.dimension_by_name("Nope").is_err());
        assert_eq!(tmd.measure_by_name("Amount").unwrap(), MeasureId(0));
        assert!(tmd.measure_by_name("Profit").is_err());
    }
}
