//! Logical WAL records — one per evolution operator, plus fact batches.
//!
//! A record captures the *intent* of one §3.2 evolution operation
//! (insert/create, exclude/delete, transform, merge, split, reclassify,
//! associate, confidence change, and the complex increase / decrease /
//! partial-annexation compilations) or one batch of fact-table appends.
//! Replay goes through the **validated construction API**
//! (`mvolap_core::evolution` and `Tmd::add_fact`), exactly like
//! `core::persist` does on load: a tampered or corrupted log can never
//! yield a cyclic `D(t)`, dangling edges or non-leaf facts — replay
//! refuses instead.
//!
//! Payloads are space-separated tokens over [`mvolap_core::token`]
//! (escapes, instant/float/mapping forms, counted lists); this module
//! owns only the grammar of each record kind.

use std::collections::BTreeMap;

use mvolap_core::evolution::{self, BasicOp, MergeSource, SplitPart};
use mvolap_core::token::{Escapes, TokenError, TokenReader, TokenWriter};
use mvolap_core::{
    CoreError, DimensionId, MappingRelationship, MeasureMapping, MemberVersionId, Tmd,
};
use mvolap_temporal::Instant;

use crate::error::DurableError;

/// One row of a fact batch.
#[derive(Debug, Clone, PartialEq)]
pub struct FactRow {
    /// Leaf coordinates, one per dimension.
    pub coords: Vec<MemberVersionId>,
    /// Fact time.
    pub at: Instant,
    /// One value per measure.
    pub values: Vec<f64>,
}

/// A logical write-ahead-log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Store bootstrap: the seed schema, serialised with
    /// `core::persist::write_tmd`. Always the first record of a fresh
    /// store, so recovery works even before the first checkpoint.
    Bootstrap {
        /// `write_tmd` bytes of the seed schema.
        snapshot: Vec<u8>,
    },
    /// *Creation of a dimension member* (Insert).
    Create {
        /// Target dimension.
        dim: DimensionId,
        /// New member name.
        name: String,
        /// Optional explicit level.
        level: Option<String>,
        /// Creation instant.
        at: Instant,
        /// Parents to wire under.
        parents: Vec<MemberVersionId>,
    },
    /// *Deletion of a dimension member* (Exclude).
    Delete {
        /// Target dimension.
        dim: DimensionId,
        /// The member version to exclude.
        id: MemberVersionId,
        /// Exclusion instant.
        at: Instant,
    },
    /// *Transformation of a member* (rename / attribute change).
    Transform {
        /// Target dimension.
        dim: DimensionId,
        /// The member version to transform.
        id: MemberVersionId,
        /// Successor name.
        new_name: String,
        /// Successor attributes.
        new_attributes: BTreeMap<String, String>,
        /// Transformation instant.
        at: Instant,
    },
    /// *Merging of n members into one*.
    Merge {
        /// Target dimension.
        dim: DimensionId,
        /// Sources with their per-measure mappings.
        sources: Vec<MergeSource>,
        /// Name of the merged member.
        new_name: String,
        /// Optional level of the merged member.
        level: Option<String>,
        /// Merge instant.
        at: Instant,
        /// Parents of the merged member.
        parents: Vec<MemberVersionId>,
    },
    /// *Splitting of one member into n*.
    Split {
        /// Target dimension.
        dim: DimensionId,
        /// The member version being split.
        source: MemberVersionId,
        /// Parts with their per-measure mappings.
        parts: Vec<SplitPart>,
        /// Split instant.
        at: Instant,
        /// Parents of the parts.
        parents: Vec<MemberVersionId>,
    },
    /// *Reclassification of a member*.
    Reclassify {
        /// Target dimension.
        dim: DimensionId,
        /// The member version to reclassify.
        id: MemberVersionId,
        /// Reclassification instant.
        at: Instant,
        /// Parents to detach.
        old_parents: Vec<MemberVersionId>,
        /// Parents to attach.
        new_parents: Vec<MemberVersionId>,
    },
    /// Bare *Associate*: registers a mapping relationship.
    Associate {
        /// Target dimension.
        dim: DimensionId,
        /// The mapping relationship.
        rel: MappingRelationship,
    },
    /// *Confidence change*: revises an existing mapping relationship.
    Confidence {
        /// Target dimension.
        dim: DimensionId,
        /// Source endpoint.
        from: MemberVersionId,
        /// Target endpoint.
        to: MemberVersionId,
        /// Revised forward mappings.
        forward: Vec<MeasureMapping>,
        /// Revised backward mappings.
        backward: Vec<MeasureMapping>,
    },
    /// Complex *Increase*.
    Increase {
        /// Target dimension.
        dim: DimensionId,
        /// The member version growing.
        id: MemberVersionId,
        /// Successor name.
        new_name: String,
        /// Growth factor.
        factor: f64,
        /// Instant.
        at: Instant,
        /// Parents of the successor.
        parents: Vec<MemberVersionId>,
    },
    /// Complex *Decrease*.
    Decrease {
        /// Target dimension.
        dim: DimensionId,
        /// The member version shrinking.
        id: MemberVersionId,
        /// Successor name.
        new_name: String,
        /// Kept fraction in `(0, 1]`.
        kept: f64,
        /// Instant.
        at: Instant,
        /// Parents of the successor.
        parents: Vec<MemberVersionId>,
    },
    /// A batch of fact-table appends.
    FactBatch {
        /// The rows, in append order.
        rows: Vec<FactRow>,
    },
    /// A cluster membership change, journaled and quorum-committed
    /// like any commit. Single-change: one add *or* one remove. The
    /// new voting-group size takes effect exactly at this record's
    /// LSN. The record is a no-op for the schema — it evolves the
    /// *replication group*, not the multidimensional structure — but
    /// riding the WAL gives it the same durability, ordering and
    /// recovery guarantees as every evolution operator.
    Reconfig {
        /// Epoch the reconfiguration was issued under.
        epoch: u64,
        /// `true` = add `member`, `false` = remove it.
        add: bool,
        /// The member id joining or leaving.
        member: String,
        /// The member's read-server address (empty for removals).
        addr: String,
    },
}

/// The record-level token forms the operators share, written over the
/// shared writer.
trait RecordWriter {
    fn level(&mut self, level: &Option<String>) -> &mut Self;
    fn ids(&mut self, ids: &[MemberVersionId]) -> &mut Self;
    fn mappings(&mut self, ms: &[MeasureMapping]) -> &mut Self;
}

impl RecordWriter for TokenWriter {
    fn level(&mut self, level: &Option<String>) -> &mut Self {
        match level {
            Some(l) => self.raw(1).text(l),
            None => self.raw(0),
        }
    }

    fn ids(&mut self, ids: &[MemberVersionId]) -> &mut Self {
        self.list(ids, |w, id| {
            w.raw(id.0);
        })
    }

    fn mappings(&mut self, ms: &[MeasureMapping]) -> &mut Self {
        self.list(ms, |w, m| {
            w.mapping(m);
        })
    }
}

/// The same forms, read back.
trait RecordReader {
    fn dim(&mut self) -> Result<DimensionId, TokenError>;
    fn id(&mut self) -> Result<MemberVersionId, TokenError>;
    fn level(&mut self) -> Result<Option<String>, TokenError>;
    fn ids(&mut self) -> Result<Vec<MemberVersionId>, TokenError>;
    fn mappings(&mut self) -> Result<Vec<MeasureMapping>, TokenError>;
}

impl RecordReader for TokenReader<'_> {
    fn dim(&mut self) -> Result<DimensionId, TokenError> {
        self.parse("dimension").map(DimensionId)
    }

    fn id(&mut self) -> Result<MemberVersionId, TokenError> {
        self.parse("member version id").map(MemberVersionId)
    }

    fn level(&mut self) -> Result<Option<String>, TokenError> {
        match self.token()? {
            "0" => Ok(None),
            "1" => self.text().map(Some),
            flag => Err(self.bad("level flag", flag)),
        }
    }

    fn ids(&mut self) -> Result<Vec<MemberVersionId>, TokenError> {
        self.list(Self::id)
    }

    fn mappings(&mut self) -> Result<Vec<MeasureMapping>, TokenError> {
        self.list(Self::mapping)
    }
}

impl WalRecord {
    /// The record's operator tag (for logs and stats).
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Bootstrap { .. } => "bootstrap",
            WalRecord::Create { .. } => "create",
            WalRecord::Delete { .. } => "delete",
            WalRecord::Transform { .. } => "transform",
            WalRecord::Merge { .. } => "merge",
            WalRecord::Split { .. } => "split",
            WalRecord::Reclassify { .. } => "reclassify",
            WalRecord::Associate { .. } => "associate",
            WalRecord::Confidence { .. } => "confidence",
            WalRecord::Increase { .. } => "increase",
            WalRecord::Decrease { .. } => "decrease",
            WalRecord::FactBatch { .. } => "facts",
            WalRecord::Reconfig { .. } => "reconfig",
        }
    }

    /// Serialises the record into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = TokenWriter::new(Escapes::Separators);
        match self {
            WalRecord::Bootstrap { snapshot } => {
                // The snapshot is an opaque blob; frame it after a single
                // tag token so the payload needs no escaping.
                let mut out = b"bootstrap ".to_vec();
                out.extend_from_slice(snapshot);
                return out;
            }
            WalRecord::Create {
                dim,
                name,
                level,
                at,
                parents,
            } => {
                e.raw("create").raw(dim.0).text(name).level(level);
                e.instant(*at).ids(parents);
            }
            WalRecord::Delete { dim, id, at } => {
                e.raw("delete").raw(dim.0).raw(id.0).instant(*at);
            }
            WalRecord::Transform {
                dim,
                id,
                new_name,
                new_attributes,
                at,
            } => {
                e.raw("transform").raw(dim.0).raw(id.0).text(new_name);
                e.instant(*at).raw(new_attributes.len());
                for (k, v) in new_attributes {
                    e.text(k).text(v);
                }
            }
            WalRecord::Merge {
                dim,
                sources,
                new_name,
                level,
                at,
                parents,
            } => {
                e.raw("merge").raw(dim.0).text(new_name).level(level);
                e.instant(*at).ids(parents).list(sources, |e, s| {
                    e.raw(s.id.0).mappings(&s.forward).mappings(&s.backward);
                });
            }
            WalRecord::Split {
                dim,
                source,
                parts,
                at,
                parents,
            } => {
                e.raw("split").raw(dim.0).raw(source.0).instant(*at);
                e.ids(parents).list(parts, |e, p| {
                    e.text(&p.name).mappings(&p.forward).mappings(&p.backward);
                });
            }
            WalRecord::Reclassify {
                dim,
                id,
                at,
                old_parents,
                new_parents,
            } => {
                e.raw("reclassify").raw(dim.0).raw(id.0);
                e.instant(*at).ids(old_parents).ids(new_parents);
            }
            WalRecord::Associate { dim, rel } => {
                e.raw("associate").raw(dim.0).raw(rel.from.0).raw(rel.to.0);
                e.mappings(&rel.forward).mappings(&rel.backward);
            }
            WalRecord::Confidence {
                dim,
                from,
                to,
                forward,
                backward,
            } => {
                e.raw("confidence").raw(dim.0).raw(from.0).raw(to.0);
                e.mappings(forward).mappings(backward);
            }
            WalRecord::Increase {
                dim,
                id,
                new_name,
                factor,
                at,
                parents,
            } => {
                e.raw("increase").raw(dim.0).raw(id.0).text(new_name);
                e.f64(*factor).instant(*at).ids(parents);
            }
            WalRecord::Decrease {
                dim,
                id,
                new_name,
                kept,
                at,
                parents,
            } => {
                e.raw("decrease").raw(dim.0).raw(id.0).text(new_name);
                e.f64(*kept).instant(*at).ids(parents);
            }
            WalRecord::FactBatch { rows } => {
                e.raw("facts").list(rows, |e, r| {
                    e.instant(r.at).ids(&r.coords).list(&r.values, |e, v| {
                        e.f64(*v);
                    });
                });
            }
            WalRecord::Reconfig {
                epoch,
                add,
                member,
                addr,
            } => {
                e.raw("reconfig")
                    .raw(epoch)
                    .raw(if *add { "add" } else { "remove" });
                e.text(member).text(addr);
            }
        }
        e.finish()
    }

    /// Deserialises a record from a frame payload.
    ///
    /// # Errors
    ///
    /// [`DurableError::Corrupt`] on any malformed payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, DurableError> {
        if let Some(snapshot) = payload.strip_prefix(b"bootstrap ") {
            return Ok(WalRecord::Bootstrap {
                snapshot: snapshot.to_vec(),
            });
        }
        Ok(WalRecord::decode_tokens(payload)?)
    }

    fn decode_tokens(payload: &[u8]) -> Result<WalRecord, TokenError> {
        let mut d = TokenReader::from_bytes(payload)?;
        let record = match d.token()? {
            "create" => WalRecord::Create {
                dim: d.dim()?,
                name: d.text()?,
                level: d.level()?,
                at: d.instant()?,
                parents: d.ids()?,
            },
            "delete" => WalRecord::Delete {
                dim: d.dim()?,
                id: d.id()?,
                at: d.instant()?,
            },
            "transform" => {
                let dim = d.dim()?;
                let id = d.id()?;
                let new_name = d.text()?;
                let at = d.instant()?;
                let new_attributes = d.list(|d| Ok((d.text()?, d.text()?)))?;
                WalRecord::Transform {
                    dim,
                    id,
                    new_name,
                    new_attributes: new_attributes.into_iter().collect(),
                    at,
                }
            }
            "merge" => {
                let dim = d.dim()?;
                let new_name = d.text()?;
                let level = d.level()?;
                let at = d.instant()?;
                let parents = d.ids()?;
                let sources = d.list(|d| {
                    Ok(MergeSource {
                        id: d.id()?,
                        forward: d.mappings()?,
                        backward: d.mappings()?,
                    })
                })?;
                WalRecord::Merge {
                    dim,
                    sources,
                    new_name,
                    level,
                    at,
                    parents,
                }
            }
            "split" => {
                let dim = d.dim()?;
                let source = d.id()?;
                let at = d.instant()?;
                let parents = d.ids()?;
                let parts = d.list(|d| {
                    Ok(SplitPart {
                        name: d.text()?,
                        forward: d.mappings()?,
                        backward: d.mappings()?,
                    })
                })?;
                WalRecord::Split {
                    dim,
                    source,
                    parts,
                    at,
                    parents,
                }
            }
            "reclassify" => WalRecord::Reclassify {
                dim: d.dim()?,
                id: d.id()?,
                at: d.instant()?,
                old_parents: d.ids()?,
                new_parents: d.ids()?,
            },
            "associate" => WalRecord::Associate {
                dim: d.dim()?,
                rel: MappingRelationship {
                    from: d.id()?,
                    to: d.id()?,
                    forward: d.mappings()?,
                    backward: d.mappings()?,
                },
            },
            "confidence" => WalRecord::Confidence {
                dim: d.dim()?,
                from: d.id()?,
                to: d.id()?,
                forward: d.mappings()?,
                backward: d.mappings()?,
            },
            "increase" => WalRecord::Increase {
                dim: d.dim()?,
                id: d.id()?,
                new_name: d.text()?,
                factor: d.f64()?,
                at: d.instant()?,
                parents: d.ids()?,
            },
            "decrease" => WalRecord::Decrease {
                dim: d.dim()?,
                id: d.id()?,
                new_name: d.text()?,
                kept: d.f64()?,
                at: d.instant()?,
                parents: d.ids()?,
            },
            "facts" => WalRecord::FactBatch {
                rows: d.list(|d| {
                    Ok(FactRow {
                        at: d.instant()?,
                        coords: d.ids()?,
                        values: d.list(TokenReader::f64)?,
                    })
                })?,
            },
            "reconfig" => {
                let epoch = d.parse("epoch")?;
                let add = match d.token()? {
                    "add" => true,
                    "remove" => false,
                    t => return Err(d.bad("reconfig direction", t)),
                };
                WalRecord::Reconfig {
                    epoch,
                    add,
                    member: d.text()?,
                    addr: d.text()?,
                }
            }
            other => return Err(d.bad("record kind", other)),
        };
        d.finish()?;
        Ok(record)
    }

    /// Applies the record to a schema through the validated construction
    /// API. Replay of a committed record on the state it was journaled
    /// against always succeeds; on any other state the model validation
    /// rejects inconsistencies instead of constructing them.
    ///
    /// # Errors
    ///
    /// Propagates the evolution-operator / fact-validation errors.
    pub fn apply(&self, tmd: &mut Tmd) -> Result<(), CoreError> {
        match self {
            WalRecord::Bootstrap { snapshot } => {
                if !tmd.dimensions().is_empty()
                    || !tmd.measures().is_empty()
                    || !tmd.facts().is_empty()
                {
                    return Err(CoreError::InvalidEvolution(
                        "bootstrap record replayed onto a non-empty schema".into(),
                    ));
                }
                *tmd = mvolap_core::persist::read_tmd(&mut snapshot.as_slice())
                    .map_err(|e| CoreError::InvalidEvolution(format!("bad bootstrap: {e}")))?;
                Ok(())
            }
            WalRecord::Create {
                dim,
                name,
                level,
                at,
                parents,
            } => {
                evolution::create(tmd, *dim, name.clone(), level.clone(), *at, parents).map(|_| ())
            }
            WalRecord::Delete { dim, id, at } => evolution::delete(tmd, *dim, *id, *at).map(|_| ()),
            WalRecord::Transform {
                dim,
                id,
                new_name,
                new_attributes,
                at,
            } => evolution::transform(
                tmd,
                *dim,
                *id,
                new_name.clone(),
                new_attributes.clone(),
                *at,
            )
            .map(|_| ()),
            WalRecord::Merge {
                dim,
                sources,
                new_name,
                level,
                at,
                parents,
            } => evolution::merge(
                tmd,
                *dim,
                sources,
                new_name.clone(),
                level.clone(),
                *at,
                parents,
            )
            .map(|_| ()),
            WalRecord::Split {
                dim,
                source,
                parts,
                at,
                parents,
            } => evolution::split(tmd, *dim, *source, parts, *at, parents).map(|_| ()),
            WalRecord::Reclassify {
                dim,
                id,
                at,
                old_parents,
                new_parents,
            } => evolution::reclassify(tmd, *dim, *id, *at, old_parents, new_parents).map(|_| ()),
            WalRecord::Associate { dim, rel } => BasicOp::Associate {
                dim: *dim,
                rel: rel.clone(),
            }
            .apply(tmd)
            .map(|_| ()),
            WalRecord::Confidence {
                dim,
                from,
                to,
                forward,
                backward,
            } => evolution::change_confidence(
                tmd,
                *dim,
                *from,
                *to,
                forward.clone(),
                backward.clone(),
            ),
            WalRecord::Increase {
                dim,
                id,
                new_name,
                factor,
                at,
                parents,
            } => evolution::increase(tmd, *dim, *id, new_name.clone(), *factor, *at, parents)
                .map(|_| ()),
            WalRecord::Decrease {
                dim,
                id,
                new_name,
                kept,
                at,
                parents,
            } => evolution::decrease(tmd, *dim, *id, new_name.clone(), *kept, *at, parents)
                .map(|_| ()),
            WalRecord::FactBatch { rows } => {
                for r in rows {
                    tmd.add_fact(&r.coords, r.at, &r.values)?;
                }
                Ok(())
            }
            // Membership changes do not touch the schema; the group
            // layer reads them back out of the log (and the membership
            // sidecar) instead.
            WalRecord::Reconfig { .. } => Ok(()),
        }
    }

    /// Read-only validation of a fact batch against the current schema:
    /// the exact Definition 5 checks `Tmd::add_fact` performs, without
    /// mutating anything. Lets the hot load path journal-then-apply
    /// without cloning the schema.
    ///
    /// # Errors
    ///
    /// The same errors `Tmd::add_fact` would raise for the first
    /// offending row.
    pub fn validate_facts(tmd: &Tmd, rows: &[FactRow]) -> Result<(), CoreError> {
        let dims = tmd.dimensions();
        let measures = tmd.measures().len();
        for r in rows {
            if r.coords.len() != dims.len() {
                return Err(CoreError::CoordinateArityMismatch {
                    expected: dims.len(),
                    actual: r.coords.len(),
                });
            }
            if r.values.len() != measures {
                return Err(CoreError::MeasureArityMismatch {
                    expected: measures,
                    actual: r.values.len(),
                });
            }
            for (dim, &c) in dims.iter().zip(&r.coords) {
                dim.version(c)?;
                if !dim.is_valid_at(c, r.at) {
                    return Err(CoreError::CoordinateNotValid {
                        dimension: dim.name().to_owned(),
                        id: c,
                        at: r.at,
                    });
                }
                if !dim.is_leaf_at(c, r.at) {
                    return Err(CoreError::CoordinateNotLeaf {
                        dimension: dim.name().to_owned(),
                        id: c,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvolap_core::{Confidence, MappingFunction};

    fn roundtrip(r: &WalRecord) -> WalRecord {
        let payload = r.encode();
        let back = WalRecord::decode(&payload).expect("decode");
        // Structural equality via re-encoding (records hold f64s and
        // foreign types without PartialEq).
        assert_eq!(back.encode(), payload);
        back
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        let dim = DimensionId(0);
        let mm = MeasureMapping::approx_scale(0.4);
        let records = vec![
            WalRecord::Create {
                dim,
                name: "Dpt. = weird \\name".into(),
                level: Some("Department level".into()),
                at: Instant::ym(2003, 1),
                parents: vec![MemberVersionId(1), MemberVersionId(2)],
            },
            WalRecord::Create {
                dim,
                name: String::new(),
                level: None,
                at: Instant::DAWN,
                parents: vec![],
            },
            WalRecord::Delete {
                dim,
                id: MemberVersionId(7),
                at: Instant::ym(2004, 12),
            },
            WalRecord::Transform {
                dim,
                id: MemberVersionId(3),
                new_name: "renamed dept".into(),
                new_attributes: [("budget".to_owned(), "hi gh".to_owned())].into(),
                at: Instant::ym(2002, 6),
            },
            WalRecord::Merge {
                dim,
                sources: vec![
                    MergeSource::with_share(MemberVersionId(1), 0.5, 2),
                    MergeSource::with_unknown_share(MemberVersionId(2), 2),
                ],
                new_name: "Merged".into(),
                level: None,
                at: Instant::ym(2003, 1),
                parents: vec![MemberVersionId(0)],
            },
            WalRecord::Split {
                dim,
                source: MemberVersionId(4),
                parts: vec![
                    SplitPart::proportional("A", 0.4, 1),
                    SplitPart::proportional("B", 0.6, 1),
                ],
                at: Instant::ym(2003, 1),
                parents: vec![],
            },
            WalRecord::Reclassify {
                dim,
                id: MemberVersionId(5),
                at: Instant::ym(2002, 1),
                old_parents: vec![MemberVersionId(0)],
                new_parents: vec![MemberVersionId(9)],
            },
            WalRecord::Associate {
                dim,
                rel: MappingRelationship {
                    from: MemberVersionId(1),
                    to: MemberVersionId(2),
                    forward: vec![mm, MeasureMapping::UNKNOWN],
                    backward: vec![
                        MeasureMapping::EXACT_IDENTITY,
                        MeasureMapping {
                            func: MappingFunction::Affine { a: 0.1, b: -2.5 },
                            confidence: Confidence::Source,
                        },
                    ],
                },
            },
            WalRecord::Confidence {
                dim,
                from: MemberVersionId(1),
                to: MemberVersionId(2),
                forward: vec![mm],
                backward: vec![MeasureMapping::approx_scale(1.0 / 3.0)],
            },
            WalRecord::Increase {
                dim,
                id: MemberVersionId(3),
                new_name: "Bigger".into(),
                factor: 1.25,
                at: Instant::ym(2004, 2),
                parents: vec![MemberVersionId(0)],
            },
            WalRecord::Decrease {
                dim,
                id: MemberVersionId(3),
                new_name: "Smaller".into(),
                kept: 0.75,
                at: Instant::ym(2004, 3),
                parents: vec![MemberVersionId(0)],
            },
            WalRecord::FactBatch {
                rows: vec![
                    FactRow {
                        coords: vec![MemberVersionId(1)],
                        at: Instant::ym(2001, 6),
                        values: vec![100.0, -0.0],
                    },
                    FactRow {
                        coords: vec![MemberVersionId(2)],
                        at: Instant::ym(2001, 7),
                        values: vec![0.1 + 0.2, 1e-300],
                    },
                ],
            },
            WalRecord::Bootstrap {
                snapshot: b"mvolap-tmd v1\nschema t month\n".to_vec(),
            },
            WalRecord::Reconfig {
                epoch: 7,
                add: true,
                member: "m3 with space".into(),
                addr: "127.0.0.1:9001".into(),
            },
            WalRecord::Reconfig {
                epoch: u64::MAX,
                add: false,
                member: "m1".into(),
                addr: String::new(),
            },
        ];
        for r in &records {
            roundtrip(r);
        }
    }

    #[test]
    fn fact_values_roundtrip_bit_exact() {
        let r = WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![MemberVersionId(0)],
                at: Instant::at(42),
                values: vec![0.1, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE / 2.0, 1e300],
            }],
        };
        match roundtrip(&r) {
            WalRecord::FactBatch { rows } => {
                let orig = match &r {
                    WalRecord::FactBatch { rows } => &rows[0].values,
                    _ => unreachable!(),
                };
                for (a, b) in orig.iter().zip(&rows[0].values) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalRecord::decode(b"").is_err());
        assert!(WalRecord::decode(b"nonsense 1 2 3").is_err());
        assert!(WalRecord::decode(b"delete 0 zero 5").is_err());
        assert!(WalRecord::decode(b"delete 0 1").is_err()); // truncated
        assert!(WalRecord::decode(b"delete 0 1 5 extra").is_err()); // trailing
        assert!(WalRecord::decode(&[0xFF, 0xFE, b' ']).is_err()); // not UTF-8
                                                                  // A count field claiming 2^30 parents must not allocate.
        assert!(WalRecord::decode(b"create 0 x 0 5 1073741824").is_err());
        // Reconfig: bad direction, truncation, trailing garbage.
        assert!(WalRecord::decode(b"reconfig 3 sideways m1 \\0").is_err());
        assert!(WalRecord::decode(b"reconfig 3 add m1").is_err());
        assert!(WalRecord::decode(b"reconfig 3 add m1 \\0 extra").is_err());
        assert!(WalRecord::decode(b"reconfig -1 add m1 \\0").is_err());
    }

    #[test]
    fn reconfig_applies_as_a_schema_noop() {
        let mut tmd = Tmd::new("empty", Default::default());
        let before = format!("{tmd:?}");
        WalRecord::Reconfig {
            epoch: 1,
            add: true,
            member: "m3".into(),
            addr: "127.0.0.1:0".into(),
        }
        .apply(&mut tmd)
        .expect("reconfig is a schema no-op");
        assert_eq!(format!("{tmd:?}"), before);
    }
}
