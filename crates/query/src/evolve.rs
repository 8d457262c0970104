//! Table 11 as statements: one row per evolution operator kind of the
//! write-ahead log, the only code that turns member names into an
//! operator's parameters.
//!
//! A row's grammar is what the parser reads after the keyword: a
//! dimension, quoted member names (as `WHERE` takes them), then one
//! clause per upper-case word, optional when bracketed. A placeholder
//! with `…` takes a comma list, one naming `share` a number after each
//! name (`[share]`: optional). `AT mm/yyyy` reads as `IN MODE AT` does;
//! a quoted mapping in the log's form (`'s0.5@am'`) applies to every
//! measure. Names resolve by [`Evolve::resolve`]'s one rule; the model
//! validates the record when it is applied.

use std::collections::BTreeMap;

use mvolap_core::evolution::{MergeSource, SplitPart};
use mvolap_core::Tmd;
use mvolap_core::{CoreError, DimensionId, MappingRelationship, MeasureMapping, MemberVersionId};
use mvolap_durable::WalRecord;
use mvolap_temporal::Instant;

/// A member name and the share written after it, if any.
pub type Named = (String, Option<f64>);

/// One evolution operator: its statement and the record it builds.
#[derive(Debug)]
pub struct Operator {
    /// The statement keyword.
    pub keyword: &'static str,
    /// The answer's verb (`created`, `merged`, …).
    pub done: &'static str,
    /// The arguments after the keyword, as the parser reads them.
    pub grammar: &'static str,
    build: fn(&Evolve, &Scope) -> Result<WalRecord, CoreError>,
}

impl PartialEq for Operator {
    fn eq(&self, other: &Operator) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Operator {
    /// The grammar's clauses in order: the keyword (`""` for the names
    /// after the dimension), whether it is optional, and its
    /// placeholder.
    #[must_use]
    pub(crate) fn clauses(&self) -> Vec<(&'static str, bool, String)> {
        let mut clauses = vec![("", false, String::new())];
        for word in self.grammar.split(' ').skip(1) {
            let keyword = word.trim_start_matches('[');
            if keyword.bytes().all(|b| b.is_ascii_uppercase()) {
                clauses.push((keyword, keyword.len() < word.len(), String::new()));
            } else if let Some((.., placeholder)) = clauses.last_mut() {
                *placeholder += word;
            }
        }
        clauses
    }
}

/// Where a row resolves names: a dimension of a schema at an instant.
struct Scope<'a> {
    tmd: &'a Tmd,
    dim: DimensionId,
    at: Instant,
    measures: usize,
}

impl Scope<'_> {
    /// The version of the first name valid at `at`, or else just before
    /// it (a member that changes at `t` is valid until `t.pred()`).
    fn one(&self, names: &[Named]) -> Result<MemberVersionId, CoreError> {
        let (d, name) = (self.tmd.dimension(self.dim)?, first(names));
        let find = |t| d.version_named_at(name, t);
        Ok(find(self.at).or_else(|_| find(self.at.pred()))?.id)
    }

    fn ids(&self, names: &[Named]) -> Result<Vec<MemberVersionId>, CoreError> {
        names.chunks(1).map(|name| self.one(name)).collect()
    }
}

/// The first name of a clause (`""` when it has none).
fn first(names: &[Named]) -> &str {
    names.first().map_or("", |(name, _)| name)
}

/// Every evolution operator kind of [`WalRecord`], one row each. A
/// keyword names its Table 11 operator, but for `CREATE` (Insert),
/// `DELETE` (Exclude), `RENAME` (Transform) and `CONFIDENCE`
/// (confidence change).
#[rustfmt::skip]
pub static OPERATORS: [Operator; 10] = [
    Operator { keyword: "CREATE", done: "created",
        grammar: "dim 'name' [LEVEL level] [UNDER 'parent',…] AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Create { dim: s.dim, name: first(&e.members).into(),
            level: e.level.clone(), at: e.at, parents: s.ids(&e.under)? }) },
    Operator { keyword: "DELETE", done: "deleted",
        grammar: "dim 'member' AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Delete { dim: s.dim, id: s.one(&e.members)?, at: e.at }) },
    Operator { keyword: "RENAME", done: "renamed",
        grammar: "dim 'member' TO 'name' [WITH key = 'value',…] AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Transform { dim: s.dim, id: s.one(&e.members)?,
            new_name: first(&e.to).into(), new_attributes: e.with.clone(), at: e.at }) },
    Operator { keyword: "MERGE", done: "merged",
        grammar: "dim 'member' [share],… INTO 'name' [LEVEL level] [UNDER 'parent',…] AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Merge { dim: s.dim,
            sources: e.members.chunks(1).map(|m| Ok(match m[0].1 {
                Some(k) => MergeSource::with_share(s.one(m)?, k, s.measures),
                None => MergeSource::with_unknown_share(s.one(m)?, s.measures),
            })).collect::<Result<_, CoreError>>()?,
            new_name: first(&e.to).into(), level: e.level.clone(), at: e.at, parents: s.ids(&e.under)? }) },
    Operator { keyword: "SPLIT", done: "split",
        grammar: "dim 'member' INTO 'part' share,… [UNDER 'parent',…] AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Split { dim: s.dim, source: s.one(&e.members)?,
            parts: e.to.iter().map(|(name, k)| SplitPart::proportional(name, k.unwrap_or(0.0), s.measures))
                .collect(),
            at: e.at, parents: s.ids(&e.under)? }) },
    Operator { keyword: "RECLASSIFY", done: "reclassified",
        grammar: "dim 'member' [FROM 'parent',…] [TO 'parent',…] AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Reclassify { dim: s.dim, id: s.one(&e.members)?, at: e.at,
            old_parents: s.ids(&e.from)?, new_parents: s.ids(&e.to)? }) },
    Operator { keyword: "ASSOCIATE", done: "associated",
        grammar: "dim 'member' TO 'member' FORWARD 'mapping' BACKWARD 'mapping' AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Associate { dim: s.dim, rel: MappingRelationship::uniform(
            s.one(&e.members)?, s.one(&e.to)?, e.forward, e.backward, s.measures) }) },
    Operator { keyword: "CONFIDENCE", done: "revised",
        grammar: "dim 'member' TO 'member' FORWARD 'mapping' BACKWARD 'mapping' AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Confidence { dim: s.dim, from: s.one(&e.members)?, to: s.one(&e.to)?,
            forward: vec![e.forward; s.measures], backward: vec![e.backward; s.measures] }) },
    Operator { keyword: "INCREASE", done: "increased",
        grammar: "dim 'member' TO 'name' BY factor [UNDER 'parent',…] AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Increase { dim: s.dim, id: s.one(&e.members)?,
            new_name: first(&e.to).into(), factor: e.factor, at: e.at, parents: s.ids(&e.under)? }) },
    Operator { keyword: "DECREASE", done: "decreased",
        grammar: "dim 'member' TO 'name' KEEP fraction [UNDER 'parent',…] AT mm/yyyy",
        build: |e, s| Ok(WalRecord::Decrease { dim: s.dim, id: s.one(&e.members)?,
            new_name: first(&e.to).into(), kept: e.factor, at: e.at, parents: s.ids(&e.under)? }) },
];

/// An evolution statement: a row of [`OPERATORS`] and its arguments,
/// names unresolved. A clause the row's grammar lacks stays empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Evolve {
    /// The operator.
    pub op: &'static Operator,
    /// The dimension evolved.
    pub dimension: String,
    /// The names after the dimension.
    pub members: Vec<Named>,
    /// `TO` or `INTO`.
    pub to: Vec<Named>,
    /// `UNDER`: the parents of what the operator creates.
    pub under: Vec<Named>,
    /// `FROM`: the parents a reclassified member leaves.
    pub from: Vec<Named>,
    /// `LEVEL`.
    pub level: Option<String>,
    /// `BY` (a growth factor) or `KEEP` (a kept fraction).
    pub factor: f64,
    /// `FORWARD`.
    pub forward: MeasureMapping,
    /// `BACKWARD`.
    pub backward: MeasureMapping,
    /// `WITH`: the successor's attributes.
    pub with: BTreeMap<String, String>,
    /// `AT`: when the evolution takes effect, and names resolve.
    pub at: Instant,
}

impl Evolve {
    /// `keyword`'s statement on `members` of `dimension` at `at`, its
    /// other clauses empty.
    ///
    /// # Panics
    ///
    /// When `keyword` is not one of [`OPERATORS`].
    #[must_use]
    pub fn new(keyword: &str, dimension: &str, members: Vec<Named>, at: Instant) -> Evolve {
        Evolve {
            op: OPERATORS
                .iter()
                .find(|op| op.keyword == keyword)
                .expect("an operator keyword"),
            dimension: dimension.to_owned(),
            members,
            to: Vec::new(),
            under: Vec::new(),
            from: Vec::new(),
            level: None,
            factor: 0.0,
            forward: MeasureMapping::UNKNOWN,
            backward: MeasureMapping::UNKNOWN,
            with: BTreeMap::new(),
            at,
        }
    }

    /// Resolves the names against `tmd` into the operator's record.
    ///
    /// # Errors
    ///
    /// An unknown dimension, or a name with no version valid at `at`
    /// or just before it.
    pub fn resolve(&self, tmd: &Tmd) -> Result<WalRecord, CoreError> {
        let (dim, measures) = (
            tmd.dimension_by_name(&self.dimension)?,
            tmd.measures().len(),
        );
        let at = self.at;
        (self.op.build)(
            self,
            &Scope {
                tmd,
                dim,
                at,
                measures,
            },
        )
    }

    /// What the statement did, for its answer: ``merged `A`, `B` into `C` ``.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = format!("{} {}", self.op.done, quoted(&self.members));
        if !self.to.is_empty() {
            let to = if self.op.grammar.contains(" INTO ") {
                "into"
            } else {
                "to"
            };
            out += &format!(" {to} {}", quoted(&self.to));
        }
        out
    }
}

/// Names as an answer lists them: `` `A`, `B` ``.
fn quoted(names: &[Named]) -> String {
    let names: Vec<String> = names.iter().map(|(name, _)| format!("`{name}`")).collect();
    names.join(", ")
}
