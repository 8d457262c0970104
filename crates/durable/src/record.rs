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
//! owns only the grammar. Each field type has one token form (`Field`),
//! and each record kind is one row of one table (`records!`): its tag,
//! its fields in wire order and the `evolution::*` call that applies it.
//! `kind`, `encode`, `decode` and `apply` are generated from that table.
//! Only `Bootstrap` (a raw blob) and `Reconfig` (its `add`/`remove`
//! word) are written out by hand.

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

/// One field type's token form: written by `put`, read back by `get`.
trait Field: Sized {
    fn put(&self, w: &mut TokenWriter);
    fn get(r: &mut TokenReader<'_>) -> Result<Self, TokenError>;
}

/// A field type whose token form is one writer call and one reader
/// call.
macro_rules! token_fields {
    ($($ty:ty => |$v:ident, $w:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Field for $ty {
            fn put(&self, $w: &mut TokenWriter) {
                let $v = self;
                $put;
            }
            fn get($r: &mut TokenReader<'_>) -> Result<Self, TokenError> {
                $get
            }
        }
    )*};
}

token_fields! {
    DimensionId => |v, w| w.raw(v.0), |r| r.parse("dimension").map(DimensionId);
    MemberVersionId => |v, w| w.raw(v.0), |r| r.parse("member version id").map(MemberVersionId);
    String => |v, w| w.text(v), |r| r.text();
    Instant => |v, w| w.instant(*v), |r| r.instant();
    f64 => |v, w| w.f64(*v), |r| r.f64();
    MeasureMapping => |v, w| w.mapping(v), |r| r.mapping();
}

/// A level: `0`, or `1` and the level's text.
impl Field for Option<String> {
    fn put(&self, w: &mut TokenWriter) {
        match self {
            Some(l) => w.raw(1).text(l),
            None => w.raw(0),
        };
    }
    fn get(r: &mut TokenReader<'_>) -> Result<Self, TokenError> {
        match r.token()? {
            "0" => Ok(None),
            "1" => r.text().map(Some),
            flag => Err(r.bad("level flag", flag)),
        }
    }
}

/// A counted list.
impl<T: Field> Field for Vec<T> {
    fn put(&self, w: &mut TokenWriter) {
        w.list(self, |w, item| item.put(w));
    }
    fn get(r: &mut TokenReader<'_>) -> Result<Self, TokenError> {
        r.list(T::get)
    }
}

/// Attributes: a count, then each key and value.
impl Field for BTreeMap<String, String> {
    fn put(&self, w: &mut TokenWriter) {
        w.raw(self.len());
        for (k, v) in self {
            w.text(k).text(v);
        }
    }
    fn get(r: &mut TokenReader<'_>) -> Result<Self, TokenError> {
        let pairs = r.list(|r| Ok((r.text()?, r.text()?)))?;
        Ok(pairs.into_iter().collect())
    }
}

/// A struct's token form: its fields in the order listed.
macro_rules! struct_fields {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Field for $ty {
            fn put(&self, w: &mut TokenWriter) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut TokenReader<'_>) -> Result<Self, TokenError> {
                Ok($ty { $($field: Field::get(r)?),* })
            }
        }
    )*};
}

struct_fields! {
    MergeSource { id, forward, backward }
    SplitPart { name, forward, backward }
    MappingRelationship { from, to, forward, backward }
    FactRow { at, coords, values }
}

/// The record grammar, one row per kind: the variant, its tag, its
/// fields in wire order and the model call that applies it. A row's
/// field order is both its encode order and its decode order (struct
/// expressions evaluate their fields as written). `Bootstrap`, a raw
/// blob, and `Reconfig`, with its `add`/`remove` word, are written out
/// by hand.
macro_rules! records {
    (|$tmd:ident| $($kind:ident $tag:literal { $($field:ident),* } => $apply:expr;)*) => {
        impl WalRecord {
            /// The record's operator tag (for logs and stats).
            pub fn kind(&self) -> &'static str {
                match self {
                    WalRecord::Bootstrap { .. } => "bootstrap",
                    WalRecord::Reconfig { .. } => "reconfig",
                    $(WalRecord::$kind { .. } => $tag,)*
                }
            }

            /// Serialises the record into a frame payload.
            pub fn encode(&self) -> Vec<u8> {
                let mut w = TokenWriter::new(Escapes::Separators);
                match self {
                    WalRecord::Bootstrap { snapshot } => {
                        // The snapshot is an opaque blob; frame it after a
                        // single tag token so the payload needs no escaping.
                        let mut out = b"bootstrap ".to_vec();
                        out.extend_from_slice(snapshot);
                        return out;
                    }
                    WalRecord::Reconfig { epoch, add, member, addr } => {
                        let direction = if *add { "add" } else { "remove" };
                        w.raw("reconfig").raw(epoch).raw(direction);
                        w.text(member).text(addr);
                    }
                    $(WalRecord::$kind { $($field),* } => {
                        w.raw($tag);
                        $($field.put(&mut w);)*
                    })*
                }
                w.finish()
            }

            fn decode_tokens(payload: &[u8]) -> Result<WalRecord, TokenError> {
                let mut r = TokenReader::from_bytes(payload)?;
                let record = match r.token()? {
                    "reconfig" => {
                        let epoch = r.parse("epoch")?;
                        let add = match r.token()? {
                            "add" => true,
                            "remove" => false,
                            t => return Err(r.bad("reconfig direction", t)),
                        };
                        let (member, addr) = (r.text()?, r.text()?);
                        WalRecord::Reconfig { epoch, add, member, addr }
                    }
                    $($tag => WalRecord::$kind { $($field: Field::get(&mut r)?),* },)*
                    other => return Err(r.bad("record kind", other)),
                };
                r.finish()?;
                Ok(record)
            }

            /// Applies the record to a schema through the validated
            /// construction API. Replay of a committed record on the state
            /// it was journaled against always succeeds; on any other state
            /// the model validation rejects inconsistencies instead of
            /// constructing them.
            ///
            /// # Errors
            ///
            /// Propagates the evolution-operator / fact-validation errors.
            pub fn apply(&self, $tmd: &mut Tmd) -> Result<(), CoreError> {
                match self {
                    WalRecord::Bootstrap { snapshot } => bootstrap($tmd, snapshot),
                    // Membership changes do not touch the schema; the group
                    // layer reads them back out of the log (and the
                    // membership sidecar) instead.
                    WalRecord::Reconfig { .. } => Ok(()),
                    $(WalRecord::$kind { $($field),* } => $apply.map(drop),)*
                }
            }
        }
    };
}

records! { |tmd|
    Create "create" { dim, name, level, at, parents } =>
        evolution::create(tmd, *dim, name.clone(), level.clone(), *at, parents);
    Delete "delete" { dim, id, at } => evolution::delete(tmd, *dim, *id, *at);
    Transform "transform" { dim, id, new_name, at, new_attributes } =>
        evolution::transform(tmd, *dim, *id, new_name.clone(), new_attributes.clone(), *at);
    Merge "merge" { dim, new_name, level, at, parents, sources } =>
        evolution::merge(tmd, *dim, sources, new_name.clone(), level.clone(), *at, parents);
    Split "split" { dim, source, at, parents, parts } =>
        evolution::split(tmd, *dim, *source, parts, *at, parents);
    Reclassify "reclassify" { dim, id, at, old_parents, new_parents } =>
        evolution::reclassify(tmd, *dim, *id, *at, old_parents, new_parents);
    Associate "associate" { dim, rel } =>
        BasicOp::Associate { dim: *dim, rel: rel.clone() }.apply(tmd);
    Confidence "confidence" { dim, from, to, forward, backward } =>
        evolution::change_confidence(tmd, *dim, *from, *to, forward.clone(), backward.clone());
    Increase "increase" { dim, id, new_name, factor, at, parents } =>
        evolution::increase(tmd, *dim, *id, new_name.clone(), *factor, *at, parents);
    Decrease "decrease" { dim, id, new_name, kept, at, parents } =>
        evolution::decrease(tmd, *dim, *id, new_name.clone(), *kept, *at, parents);
    FactBatch "facts" { rows } =>
        rows.iter().try_for_each(|r| tmd.add_fact(&r.coords, r.at, &r.values).map(drop));
}

/// Replays a `Bootstrap` record: only onto an empty schema.
fn bootstrap(tmd: &mut Tmd, snapshot: &[u8]) -> Result<(), CoreError> {
    if !tmd.dimensions().is_empty() || !tmd.measures().is_empty() || !tmd.facts().is_empty() {
        return Err(CoreError::InvalidEvolution(
            "bootstrap record replayed onto a non-empty schema".into(),
        ));
    }
    *tmd = mvolap_core::persist::read_tmd(&mut &snapshot[..])
        .map_err(|e| CoreError::InvalidEvolution(format!("bad bootstrap: {e}")))?;
    Ok(())
}

impl WalRecord {
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

    /// Read-only validation of a fact batch against the current schema:
    /// [`Tmd::check_fact`], the checks `Tmd::add_fact` performs, on
    /// every row, without mutating anything. Lets the hot load path
    /// journal-then-apply without cloning the schema.
    ///
    /// # Errors
    ///
    /// The first offending row's error.
    pub fn validate_facts(tmd: &Tmd, rows: &[FactRow]) -> Result<(), CoreError> {
        rows.iter()
            .try_for_each(|r| tmd.check_fact(&r.coords, r.at, &r.values))
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
