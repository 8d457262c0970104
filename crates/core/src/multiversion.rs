//! The MultiVersion Fact Table (paper Definition 11).
//!
//! `f' : D1 × … × Dn × T × TMP → dom(m1) × … × dom(mm) × CF^m` — the fact
//! table extended with a temporal-mode axis and per-measure confidence
//! factors. It is *inferred*, never authored: "it can be automatically
//! calculated from the temporal dimensions, Mapping Relationships and the
//! Temporally Consistent Fact Table".
//!
//! For the temporally consistent mode every fact is source data. For a
//! structure-version mode `VMi`, a fact whose coordinates are valid in
//! `Vi` stays source data; otherwise each invalid coordinate is routed
//! through the mapping closure to the member versions valid in `Vi`,
//! scaling values and downgrading confidence along the way. Facts with no
//! route at all are counted as unmapped (the "impossible cross-points" a
//! red cell flags in the prototype).
//!
//! Two materialisations exist: the full [`MultiVersionFactTable`]
//! (duplicating values in every version — the redundancy §5.1 concedes)
//! and the [`DeltaMvft`] extension that stores only mapped rows per
//! version and reconstructs the rest from the consistent fact table.
//! The served path keeps a third: one presented table per mode in
//! [`QueryMemo`]'s presentation store, extended in place as facts are
//! appended (§5.1's MultiVersion DW tier).

use std::sync::Arc;

use mvolap_exec::ExecContext;
use mvolap_temporal::Instant;

use crate::confidence::Confidence;
use crate::error::{CoreError, Result};
use crate::fold::{next_combination, Cell, Groups};
use crate::ids::{DimensionId, MemberVersionId};
use crate::mapping::{MappingRoute, MeasureMapping};
use crate::memo::{Cached, CachedPresentation, QueryMemo};
use crate::schema::Tmd;
use crate::structure_version::StructureVersion;
use crate::tmp::TemporalMode;

/// One cell value of the multiversion fact table: a possibly-unknown
/// value plus its confidence factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvCell {
    /// The mapped value; `None` when an unknown mapping contributed.
    pub value: Option<f64>,
    /// The combined confidence factor.
    pub confidence: Confidence,
}

impl MvCell {
    /// A source-data cell.
    pub fn source(value: f64) -> Self {
        MvCell {
            value: Some(value),
            confidence: Confidence::Source,
        }
    }
}

/// One row of the multiversion fact table, within one temporal mode.
#[derive(Debug, Clone, PartialEq)]
pub struct MvRow {
    /// One leaf member version per dimension.
    pub coords: Vec<MemberVersionId>,
    /// The fact time.
    pub time: Instant,
    /// One cell per measure.
    pub cells: Vec<MvCell>,
}

/// The facts of a schema presented under one temporal mode.
#[derive(Debug, Clone)]
pub struct PresentedFacts {
    /// The mode these rows are presented in.
    pub mode: TemporalMode,
    /// The presented rows, one per distinct `(coords, time)` cell,
    /// in first-contribution order.
    pub rows: Vec<MvRow>,
    /// Source fact rows that could not be presented in this mode (no
    /// mapping route for some coordinate).
    pub unmapped_rows: usize,
}

/// The presentation fold's state: cells keyed by `(coords, t)` (see
/// [`cell_key`]) plus the fact rows no route could present.
#[derive(Debug, Clone, Default)]
pub(crate) struct Presentation {
    cells: Groups,
    unmapped: usize,
}

impl Presentation {
    /// Merges the partial of a later morsel in.
    fn merge(&mut self, later: Presentation) {
        self.cells.merge(later.cells);
        self.unmapped += later.unmapped;
    }

    fn finish(self, mode: &TemporalMode) -> PresentedFacts {
        PresentedFacts {
            mode: mode.clone(),
            rows: rows_of(&self.cells),
            unmapped_rows: self.unmapped,
        }
    }
}

/// One [`Cell`] per measure, each folding with the measure's `⊕m`.
fn measure_cells(tmd: &Tmd) -> Vec<Cell> {
    tmd.measures()
        .iter()
        .map(|m| Cell::new(m.aggregator))
        .collect()
}

/// The [`Groups`] key of presented cell `(coords, t)`: each coordinate's
/// id, then `t`'s tick.
fn cell_key(key: &mut Vec<i64>, coords: &[MemberVersionId], t: Instant) {
    key.clear();
    key.extend(coords.iter().map(|c| i64::from(c.0)));
    key.push(t.tick());
}

/// Presented rows in first-contribution order.
fn rows_of(cells: &Groups) -> Vec<MvRow> {
    cells
        .iter()
        .map(|(key, cells)| {
            let (time, coords) = key.split_last().expect("a cell key ends in its time");
            MvRow {
                coords: coords.iter().map(|&c| MemberVersionId(c as u32)).collect(),
                time: Instant::at(*time),
                cells: cells.iter().map(Cell::finish).collect(),
            }
        })
        .collect()
}

/// Presents the schema's facts under `mode`, resolving mappings against
/// the supplied structure versions (obtain them once via
/// [`Tmd::structure_versions`] and reuse across modes). Fact rows are
/// folded in fixed-size morsels and the per-worker partials merged in
/// morsel order, so the result is bit-identical for every
/// `ctx.threads` (a sequential presentation is
/// `ExecContext::sequential()`).
///
/// `memo` caches mapping-closure routes per `(dimension, member
/// version, structure version)` keyed to [`Tmd::stamp`]; share one
/// [`QueryMemo`] across calls to reuse routes between modes and
/// queries, evolution operators invalidate it automatically. The
/// presentation itself is always folded afresh here; the served path
/// ([`crate::evaluate_par`]) reads the same fold through the memo's
/// presentation store instead.
///
/// # Errors
///
/// [`CoreError::UnknownStructureVersion`] when the mode references a
/// version id outside `structure_versions`.
pub fn present_par(
    tmd: &Tmd,
    structure_versions: &[StructureVersion],
    mode: &TemporalMode,
    ctx: &ExecContext,
    memo: &QueryMemo,
) -> Result<PresentedFacts> {
    let targets = targets(tmd, structure_versions, mode)?;
    let (_, presented) = fold_facts(tmd, &targets, ctx, memo, Presentation::default(), 0, false);
    Ok(presented.finish(mode))
}

/// [`present_par`] through `memo`'s presentation store — the
/// MultiVersion tier [`crate::evaluate_par`] reads. `tcm` and `Version`
/// tables are kept per schema stamp, mode and morsel size: a table over
/// the current facts is served as is; one over fewer facts (appends
/// never draw a new stamp) is extended by folding only the morsels from
/// its last whole one on. `Mixed` modes are presented afresh, so the
/// store holds at most one table per structure version plus `tcm`.
pub(crate) fn present_cached(
    tmd: &Tmd,
    structure_versions: &[StructureVersion],
    mode: &TemporalMode,
    ctx: &ExecContext,
    memo: &QueryMemo,
) -> Result<Arc<PresentedFacts>> {
    if let TemporalMode::Mixed(_) = mode {
        return present_par(tmd, structure_versions, mode, ctx, memo).map(Arc::new);
    }
    let targets = targets(tmd, structure_versions, mode)?;
    let (state, from) = match memo.cached_presentation(tmd, mode, ctx.morsel_size) {
        Cached::Hit(table) => return Ok(table),
        Cached::Extend(whole, rows) => (whole, rows),
        Cached::Miss => (Presentation::default(), 0),
    };
    let (whole, presented) = fold_facts(tmd, &targets, ctx, memo, state, from, true);
    let table = Arc::new(presented.finish(mode));
    if let Some(whole) = whole {
        memo.keep_presentation(
            tmd,
            CachedPresentation {
                morsel_size: ctx.morsel_size,
                whole,
                facts: tmd.facts().len(),
                table: Arc::clone(&table),
            },
        );
    }
    Ok(table)
}

/// The structure version `mode` presents each dimension in (`None`:
/// temporally consistent).
fn targets<'a>(
    tmd: &Tmd,
    structure_versions: &'a [StructureVersion],
    mode: &TemporalMode,
) -> Result<Vec<Option<&'a StructureVersion>>> {
    (0..tmd.dimensions().len())
        .map(|d| match mode.version_for(DimensionId(d as u32)) {
            None => Ok(None),
            Some(svid) => structure_versions
                .get(svid.index())
                .filter(|sv| sv.id == svid)
                .map(Some)
                .ok_or(CoreError::UnknownStructureVersion(svid.index())),
        })
        .collect()
}

/// Folds fact rows `from..` onto `state`, the fold of rows `..from`
/// (a whole number of morsels): one partial per morsel, each merged
/// onto `state` on its own and in morsel order. That is the association
/// tree [`ExecContext::parallel_fold`] builds from row 0, so resuming a
/// kept state is bit-identical to folding afresh at every thread count.
/// Returns the state after the last whole morsel (when `keep_whole`)
/// and the state after every row.
fn fold_facts(
    tmd: &Tmd,
    targets: &[Option<&StructureVersion>],
    ctx: &ExecContext,
    memo: &QueryMemo,
    mut state: Presentation,
    from: usize,
    keep_whole: bool,
) -> (Option<Presentation>, Presentation) {
    // The morsels walk row indices; the markers only set the length.
    let rows = vec![(); tmd.facts().len() - from];
    let mut partials = ctx.map_morsels(&rows, |start, morsel| {
        let mut partial = Presentation::default();
        let mut buffers = MorselBuffers::new(tmd, targets.len());
        for row in from + start..from + start + morsel.len() {
            present_row(tmd, targets, memo, &mut buffers, &mut partial, row);
        }
        partial
    });
    let tail = if rows.len().is_multiple_of(ctx.morsel_size) {
        None
    } else {
        partials.pop()
    };
    for partial in partials {
        state.merge(partial);
    }
    let whole = keep_whole.then(|| state.clone());
    if let Some(tail) = tail {
        state.merge(tail);
    }
    (whole, state)
}

/// One morsel's working state for [`present_row`], reused by every row
/// of the morsel.
struct MorselBuffers {
    /// Per dimension, indexed by [`MemberVersionId`]: the routes of each
    /// leaf this morsel has met (empty for a temporally consistent
    /// dimension, which presents a fact's own coordinate).
    routes: Vec<Vec<Option<Arc<Vec<MappingRoute>>>>>,
    /// The presented cell key of the current fan-out combination: a
    /// coordinate per dimension, then the fact's time ([`cell_key`]).
    key: Vec<i64>,
    /// The current fan-out combination: a route index per dimension.
    combo: Vec<usize>,
    /// A new cell's measure cells.
    init: Vec<Cell>,
}

impl MorselBuffers {
    fn new(tmd: &Tmd, n_dims: usize) -> Self {
        MorselBuffers {
            routes: vec![Vec::new(); n_dims],
            key: vec![0; n_dims + 1],
            combo: vec![0; n_dims],
            init: measure_cells(tmd),
        }
    }
}

/// Presents fact row `row` into `partial`: each coordinate is routed
/// into its target structure version, the route product fans out
/// (position 0 fastest), and every measure folds its mapped value with
/// its mapped confidence, composing the dimensions' mappings left to
/// right from [`MeasureMapping::SOURCE_IDENTITY`].
///
/// Only a leaf's first row in the morsel reads the shared memo (its
/// routes are kept in `buffers`). Every other row takes no lock,
/// touches no atomic and allocates nothing but a cell's first
/// contribution: the cell key and fan-out combination live in
/// `buffers`, rewritten in place.
fn present_row(
    tmd: &Tmd,
    targets: &[Option<&StructureVersion>],
    memo: &QueryMemo,
    buffers: &mut MorselBuffers,
    partial: &mut Presentation,
    row: usize,
) {
    let facts = tmd.facts();
    let n_measures = tmd.measures().len();
    for (d, target) in targets.iter().enumerate() {
        let Some(sv) = target else { continue };
        let c = facts.coord(row, d);
        let table = &mut buffers.routes[d];
        if table.len() <= c.index() {
            table.resize(c.index() + 1, None);
        }
        let rs = table[c.index()].get_or_insert_with(|| {
            let dim_id = DimensionId(d as u32);
            memo.routes(tmd, (dim_id, c, sv.id), || {
                // Routes must move monotonically through time toward
                // the target structure version: forward edges for
                // data older than it, backward edges for newer data
                // (see `RouteDirection`).
                let validity = tmd
                    .dimension(dim_id)
                    .and_then(|dim| dim.version(c))
                    .expect("fact coordinates are validated on insert")
                    .validity;
                let direction = if validity.end() < sv.interval.start() {
                    crate::mapping::RouteDirection::Forward
                } else if sv.interval.end() < validity.start() {
                    crate::mapping::RouteDirection::Backward
                } else {
                    // Valid coordinates short-circuit in `resolve`;
                    // partial overlap cannot occur because structure
                    // versions refine every validity interval.
                    crate::mapping::RouteDirection::Any
                };
                tmd.mapping_graph(dim_id)
                    .expect("dimension exists")
                    .resolve(c, n_measures, direction, |id| sv.contains(dim_id, id))
            })
        });
        if rs.is_empty() {
            partial.unmapped += 1;
            return;
        }
    }

    // The row's routes in dimension `d`; `None` when `d` is temporally
    // consistent (facts were validated at insert time to be valid at
    // their own time, so the coordinate presents as itself).
    let MorselBuffers {
        routes,
        key,
        combo,
        init,
    } = buffers;
    let routed = |d: usize| {
        targets[d].map(|_| {
            let rs = routes[d][facts.coord(row, d).index()].as_deref();
            rs.expect("resolved above").as_slice()
        })
    };
    let n_dims = targets.len();
    key[n_dims] = facts.time(row).tick();
    // Cartesian product of per-dimension routes (splits fan out);
    // `combo` is all zeros between rows.
    loop {
        for (d, target) in key[..n_dims].iter_mut().enumerate() {
            let coord = routed(d).map_or(facts.coord(row, d), |rs| rs[combo[d]].target);
            *target = i64::from(coord.0);
        }
        let row_cells = partial.cells.cells(key, init);
        for (m, cell) in row_cells.iter_mut().enumerate() {
            // Compose this measure's mapping across dimensions and
            // apply it to the source value.
            let mut mapping = MeasureMapping::SOURCE_IDENTITY;
            for (d, &i) in combo.iter().enumerate() {
                let step =
                    routed(d).map_or(MeasureMapping::SOURCE_IDENTITY, |rs| rs[i].per_measure[m]);
                mapping = mapping.compose(step);
            }
            let value = mapping.func.apply(facts.value(row, m));
            cell.add(value, mapping.confidence);
        }
        if !next_combination(combo, |d| routed(d).map_or(1, <[MappingRoute]>::len)) {
            break;
        }
    }
}

/// The fully materialised MultiVersion Fact Table: every temporal mode's
/// presentation, as the prototype stored it ("we have to duplicate the
/// values in all versions", §5.1).
#[derive(Debug, Clone)]
pub struct MultiVersionFactTable {
    presentations: Vec<PresentedFacts>,
}

impl MultiVersionFactTable {
    /// Infers the full table: `tcm` plus one presentation per structure
    /// version (Definition 11), each mode through [`present_par`],
    /// sharing `memo`'s route cache across modes. Bit-identical for
    /// every thread count.
    ///
    /// # Errors
    ///
    /// Propagates presentation errors.
    pub fn infer_par(tmd: &Tmd, ctx: &ExecContext, memo: &QueryMemo) -> Result<Self> {
        let svs = tmd.structure_versions();
        let modes = crate::tmp::all_modes(&svs);
        let mut presentations = Vec::with_capacity(modes.len());
        for mode in &modes {
            presentations.push(present_par(tmd, &svs, mode, ctx, memo)?);
        }
        Ok(MultiVersionFactTable { presentations })
    }

    /// All per-mode presentations, `tcm` first.
    pub fn presentations(&self) -> &[PresentedFacts] {
        &self.presentations
    }

    /// The presentation for one mode.
    pub fn for_mode(&self, mode: &TemporalMode) -> Option<&PresentedFacts> {
        self.presentations.iter().find(|p| &p.mode == mode)
    }

    /// The function `f'` itself: the cells at `(coords, t, mode)`.
    pub fn lookup(
        &self,
        coords: &[MemberVersionId],
        t: Instant,
        mode: &TemporalMode,
    ) -> Option<&[MvCell]> {
        self.for_mode(mode)?
            .rows
            .iter()
            .find(|r| r.coords == coords && r.time == t)
            .map(|r| r.cells.as_slice())
    }

    /// Total materialised rows across all modes (the §5.1 redundancy).
    pub fn total_rows(&self) -> usize {
        self.presentations.iter().map(|p| p.rows.len()).sum()
    }
}

/// Differences-only materialisation (extension; the paper notes "we could
/// only store differences between versions instead of replicating all
/// values").
///
/// Stores, per structure-version mode, only the rows that *differ* from
/// the consistent presentation (i.e. rows with at least one mapped
/// contribution); source-valid rows are reconstructed from the consistent
/// fact table on demand.
#[derive(Debug, Clone)]
pub struct DeltaMvft {
    modes: Vec<TemporalMode>,
    /// Per version mode: the mapped (non-source) rows.
    deltas: Vec<Vec<MvRow>>,
    /// Per version mode: how many source rows were unmappable.
    unmapped: Vec<usize>,
}

impl DeltaMvft {
    /// Builds the delta representation for every structure-version
    /// mode; see [`MultiVersionFactTable::infer_par`] for the contract.
    ///
    /// # Errors
    ///
    /// Propagates presentation errors.
    pub fn infer_par(tmd: &Tmd, ctx: &ExecContext, memo: &QueryMemo) -> Result<Self> {
        let svs = tmd.structure_versions();
        let mut modes = Vec::with_capacity(svs.len());
        let mut deltas = Vec::with_capacity(svs.len());
        let mut unmapped = Vec::with_capacity(svs.len());
        for sv in &svs {
            let mode = TemporalMode::Version(sv.id);
            let p = present_par(tmd, &svs, &mode, ctx, memo)?;
            let mapped: Vec<MvRow> = p
                .rows
                .into_iter()
                .filter(|r| r.cells.iter().any(|c| c.confidence != Confidence::Source))
                .collect();
            modes.push(mode);
            deltas.push(mapped);
            unmapped.push(p.unmapped_rows);
        }
        Ok(DeltaMvft {
            modes,
            deltas,
            unmapped,
        })
    }

    /// Rows actually stored (across all version modes).
    pub fn stored_rows(&self) -> usize {
        self.deltas.iter().map(Vec::len).sum()
    }

    /// Reconstructs the full presentation of one version mode by merging
    /// the stored delta with the source-valid rows of the consistent fact
    /// table.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownStructureVersion`] for a mode not captured at
    /// build time.
    pub fn reconstruct(&self, tmd: &Tmd, mode: &TemporalMode) -> Result<PresentedFacts> {
        let idx = self
            .modes
            .iter()
            .position(|m| m == mode)
            .ok_or(CoreError::UnknownStructureVersion(usize::MAX))?;
        let svs = tmd.structure_versions();
        let TemporalMode::Version(svid) = mode else {
            return Err(CoreError::UnknownStructureVersion(usize::MAX));
        };
        let sv = svs
            .get(svid.index())
            .ok_or(CoreError::UnknownStructureVersion(svid.index()))?;

        // Source-valid rows: facts whose every coordinate is valid in the
        // version. Accumulate duplicates exactly as `present_par` does.
        let facts = tmd.facts();
        let n_dims = tmd.dimensions().len();
        let (mut cells, mut key, init) = (Groups::default(), Vec::new(), measure_cells(tmd));
        for row in 0..facts.len() {
            let coords = facts.row_coords(row);
            let all_valid = (0..n_dims).all(|d| sv.contains(DimensionId(d as u32), coords[d]));
            if !all_valid {
                continue;
            }
            cell_key(&mut key, &coords, facts.time(row));
            let row_cells = cells.cells(&key, &init);
            for (m, cell) in row_cells.iter_mut().enumerate() {
                cell.add(Some(facts.value(row, m)), Confidence::Source);
            }
        }
        let positions: Vec<Option<usize>> = self.deltas[idx]
            .iter()
            .map(|d| {
                cell_key(&mut key, &d.coords, d.time);
                cells.position(&key)
            })
            .collect();
        let mut rows = rows_of(&cells);

        // Merge in the stored deltas; a delta row may target the same cell
        // as a source row (a mapped contribution landing on live data).
        for (delta, position) in self.deltas[idx].iter().zip(positions) {
            let Some(i) = position else {
                rows.push(delta.clone());
                continue;
            };
            for ((cell, d), measure) in rows[i]
                .cells
                .iter_mut()
                .zip(&delta.cells)
                .zip(tmd.measures())
            {
                // The stored delta already folded the mapped contributions;
                // merge the two partial cells with the measure's
                // second-stage (combining) form.
                let mut merged = Cell::new(measure.aggregator.combining());
                merged.add(cell.value, cell.confidence);
                merged.add(d.value, d.confidence);
                *cell = merged.finish();
            }
        }
        Ok(PresentedFacts {
            mode: mode.clone(),
            rows,
            unmapped_rows: self.unmapped[idx],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::{case_study, CaseStudy};
    use crate::ids::StructureVersionId;

    /// A sequential presentation through a fresh memo.
    fn present(tmd: &Tmd, svs: &[StructureVersion], mode: &TemporalMode) -> Result<PresentedFacts> {
        present_par(
            tmd,
            svs,
            mode,
            &ExecContext::sequential(),
            &QueryMemo::new(),
        )
    }

    fn full(tmd: &Tmd) -> MultiVersionFactTable {
        MultiVersionFactTable::infer_par(tmd, &ExecContext::sequential(), &QueryMemo::new())
            .unwrap()
    }

    fn delta(tmd: &Tmd) -> DeltaMvft {
        DeltaMvft::infer_par(tmd, &ExecContext::sequential(), &QueryMemo::new()).unwrap()
    }

    fn by_name<'a>(
        cs: &CaseStudy,
        p: &'a PresentedFacts,
        name: &str,
        year: i32,
    ) -> Option<&'a MvRow> {
        let dim = cs.tmd.dimension(cs.org).unwrap();
        p.rows
            .iter()
            .find(|r| dim.version(r.coords[0]).unwrap().name == name && r.time.year() == year)
    }

    #[test]
    fn consistent_mode_is_source_everywhere() {
        // Definition 11's inclusion: f' restricted to tcm = f × {sd}^m.
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let p = present(&cs.tmd, &svs, &TemporalMode::Consistent).unwrap();
        assert_eq!(p.rows.len(), cs.tmd.facts().len());
        for r in &p.rows {
            for c in &r.cells {
                assert_eq!(c.confidence, Confidence::Source);
                assert!(c.value.is_some());
            }
        }
        assert_eq!(p.unmapped_rows, 0);
    }

    #[test]
    fn mode_v2002_merges_bill_and_paul_into_jones() {
        // Paper Table 9: in the 2002 structure, the 2003 facts of Bill
        // (150) and Paul (50) present as Jones 200 with exact confidence.
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let p = present(&cs.tmd, &svs, &TemporalMode::Version(StructureVersionId(1))).unwrap();
        let jones_2003 = by_name(&cs, &p, "Dpt.Jones", 2003).unwrap();
        assert_eq!(jones_2003.cells[0].value, Some(200.0));
        assert_eq!(jones_2003.cells[0].confidence, Confidence::Exact);
        // Smith and Brian 2003 facts are source data (valid in V2002).
        let smith_2003 = by_name(&cs, &p, "Dpt.Smith", 2003).unwrap();
        assert_eq!(smith_2003.cells[0].value, Some(110.0));
        assert_eq!(smith_2003.cells[0].confidence, Confidence::Source);
        assert_eq!(p.unmapped_rows, 0);
    }

    #[test]
    fn mode_v2003_splits_jones_into_bill_and_paul() {
        // Paper Table 10: Jones's 100 of 2002 presents as Bill 40 and
        // Paul 60, approximate.
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let p = present(&cs.tmd, &svs, &TemporalMode::Version(StructureVersionId(2))).unwrap();
        let bill_2002 = by_name(&cs, &p, "Dpt.Bill", 2002).unwrap();
        assert_eq!(bill_2002.cells[0].value, Some(40.0));
        assert_eq!(bill_2002.cells[0].confidence, Confidence::Approx);
        let paul_2002 = by_name(&cs, &p, "Dpt.Paul", 2002).unwrap();
        assert_eq!(paul_2002.cells[0].value, Some(60.0));
        // Jones's 2001 fact also splits 40/60.
        let bill_2001 = by_name(&cs, &p, "Dpt.Bill", 2001).unwrap();
        assert_eq!(bill_2001.cells[0].value, Some(40.0));
    }

    #[test]
    fn full_mvft_has_all_modes() {
        let cs = case_study();
        let mv = full(&cs.tmd);
        // tcm + three structure versions.
        assert_eq!(mv.presentations().len(), 4);
        assert!(mv.for_mode(&TemporalMode::Consistent).is_some());
        assert!(mv.total_rows() > cs.tmd.facts().len());
    }

    #[test]
    fn lookup_is_definition_11s_function() {
        let cs = case_study();
        let mv = full(&cs.tmd);
        let dim = cs.tmd.dimension(cs.org).unwrap();
        let jones = dim
            .version_named_at("Dpt.Jones", Instant::ym(2002, 6))
            .unwrap()
            .id;
        let t = Instant::ym(2003, 6);
        let cells = mv
            .lookup(&[jones], t, &TemporalMode::Version(StructureVersionId(1)))
            .unwrap();
        assert_eq!(cells[0].value, Some(200.0));
        // Jones does not exist in mode VS2.
        assert!(mv
            .lookup(&[jones], t, &TemporalMode::Version(StructureVersionId(2)))
            .is_none());
    }

    #[test]
    fn unknown_version_id_is_error() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let err = present(
            &cs.tmd,
            &svs,
            &TemporalMode::Version(StructureVersionId(99)),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UnknownStructureVersion(99)));
    }

    #[test]
    fn delta_reconstruction_matches_full_materialisation() {
        let cs = case_study();
        let full = full(&cs.tmd);
        let delta = delta(&cs.tmd);
        for sv in cs.tmd.structure_versions() {
            let mode = TemporalMode::Version(sv.id);
            let full_p = full.for_mode(&mode).unwrap();
            let rec = delta.reconstruct(&cs.tmd, &mode).unwrap();
            assert_eq!(rec.rows.len(), full_p.rows.len(), "mode {mode}");
            for row in &full_p.rows {
                let r = rec
                    .rows
                    .iter()
                    .find(|r| r.coords == row.coords && r.time == row.time)
                    .unwrap_or_else(|| panic!("row missing in reconstruction of {mode}"));
                for (a, b) in row.cells.iter().zip(&r.cells) {
                    assert_eq!(a.confidence, b.confidence);
                    match (a.value, b.value) {
                        (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                        (None, None) => {}
                        _ => panic!("value mismatch in {mode}"),
                    }
                }
            }
            assert_eq!(rec.unmapped_rows, full_p.unmapped_rows);
        }
    }

    #[test]
    fn delta_stores_fewer_rows_than_full() {
        let cs = case_study();
        let full = full(&cs.tmd);
        let delta = delta(&cs.tmd);
        // Full duplicates everything; delta only the mapped rows.
        let full_version_rows =
            full.total_rows() - full.for_mode(&TemporalMode::Consistent).unwrap().rows.len();
        assert!(delta.stored_rows() < full_version_rows);
    }

    #[test]
    fn mixed_mode_presents_only_chosen_dimensions() {
        // §6 extension: choosing a version for the Org dimension while
        // leaving (hypothetical) others consistent. With one dimension,
        // Mixed([(org, v)]) must equal Version(v).
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let v = StructureVersionId(1);
        let mixed = TemporalMode::Mixed(vec![(cs.org, v)]);
        let a = present(&cs.tmd, &svs, &mixed).unwrap();
        let b = present(&cs.tmd, &svs, &TemporalMode::Version(v)).unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x, y);
        }
    }
}
