//! Navigation as query rewrites (paper §5.2's front end).
//!
//! [`CubeView`] is a cursor over one [`AggregateQuery`]. Roll-up and
//! drill-down rewrite the query's group-by level for a dimension or its
//! time level; every read re-evaluates the query with [`evaluate_par`]
//! against the caller's [`QueryMemo`], so navigating within one mode
//! reuses that mode's cached presentation and costs one second-stage
//! aggregation. Rendering tags every cell with its confidence colour
//! (§5.2's white/green/yellow/red guidance).
//!
//! Slice, dice and rotate act on the rendered keys, not on the query: a
//! [`mvolap_core::aggregate::MemberFilter`] keeps a fact when *any* of
//! its ancestors matches, so under multi-hierarchy fan-out it would also
//! fill sibling groups, it cannot select `(unclassified)`, and a set of
//! years is not one `time_range`.

use mvolap_core::aggregate::{evaluate_par, AggregateQuery, ResultRow, ResultSet, TimeLevel};
use mvolap_core::error::{CoreError, Result};
use mvolap_core::levels::all_level_names;
use mvolap_core::structure_version::StructureVersion;
use mvolap_core::tmp::TemporalMode;
use mvolap_core::{ConfidenceWeights, DimensionId, ExecContext, QueryMemo, Tmd};

/// A navigable viewpoint: one [`AggregateQuery`] plus the view-side
/// filters and axis order.
#[derive(Debug, Clone)]
pub struct CubeView<'a> {
    tmd: &'a Tmd,
    structure_versions: &'a [StructureVersion],
    memo: &'a QueryMemo,
    /// The query the viewpoint evaluates; `group_by` lists the
    /// dimensions not at All, in dimension order.
    query: AggregateQuery,
    /// Per dimension: its level names, top-down.
    dimension_levels: Vec<Vec<String>>,
    /// Dice filters on rendered keys: index 0 the time axis, then one
    /// per dimension (empty = no filter).
    filters: Vec<Vec<String>>,
    /// Column order for rendering: indices into [time, dim0, dim1, …].
    pivot: Vec<usize>,
}

impl<'a> CubeView<'a> {
    /// Opens a view of `mode` at the finest granularity: the deepest
    /// level of every dimension, by year. `structure_versions` must be
    /// [`Tmd::structure_versions`] of `tmd`, as
    /// [`QueryMemo::structure_versions`] keeps them.
    pub fn open(
        tmd: &'a Tmd,
        structure_versions: &'a [StructureVersion],
        mode: TemporalMode,
        memo: &'a QueryMemo,
    ) -> Self {
        let dimension_levels: Vec<Vec<String>> =
            tmd.dimensions().iter().map(all_level_names).collect();
        let group_by = dimension_levels
            .iter()
            .enumerate()
            .filter_map(|(d, levels)| Some((DimensionId(d as u32), levels.last()?.clone())))
            .collect();
        let n = dimension_levels.len();
        CubeView {
            tmd,
            structure_versions,
            memo,
            query: AggregateQuery {
                group_by,
                time_level: TimeLevel::Year,
                measures: Vec::new(),
                mode,
                time_range: None,
                filters: Vec::new(),
            },
            dimension_levels,
            filters: vec![Vec::new(); n + 1],
            pivot: (0..=n).collect(),
        }
    }

    /// The current level per dimension (`None` = rolled up to All).
    pub fn levels(&self) -> Vec<Option<&str>> {
        (0..self.dimension_levels.len())
            .map(|d| {
                self.key_column(d)
                    .map(|k| self.query.group_by[k].1.as_str())
            })
            .collect()
    }

    /// The current time level.
    pub fn time_level(&self) -> TimeLevel {
        self.query.time_level
    }

    /// **Roll-up**: moves one dimension one level towards All.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`] for a bad id. Rolling up from All
    /// is a no-op.
    pub fn roll_up(&mut self, dim: DimensionId) -> Result<()> {
        self.step(dim, false)
    }

    /// **Drill-down**: moves one dimension one level away from All.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`] for a bad id. Drilling below the
    /// deepest level is a no-op.
    pub fn drill_down(&mut self, dim: DimensionId) -> Result<()> {
        self.step(dim, true)
    }

    /// Rewrites `dim`'s group-by entry one level finer (`down`) or
    /// coarser, clamped between All (no entry) and the deepest level.
    fn step(&mut self, dim: DimensionId, down: bool) -> Result<()> {
        let levels = self
            .dimension_levels
            .get(dim.index())
            .ok_or(CoreError::UnknownDimension(dim))?;
        let slot = self.key_column(dim.index());
        // Depth 0 is All; depth i is the i-th level top-down.
        let depth = slot.map_or(0, |k| {
            1 + levels
                .iter()
                .position(|l| *l == self.query.group_by[k].1)
                .unwrap_or(0)
        });
        let depth = if down {
            (depth + 1).min(levels.len())
        } else {
            depth.saturating_sub(1)
        };
        let group_by = &mut self.query.group_by;
        match (slot, depth) {
            (Some(k), 0) => {
                group_by.remove(k);
            }
            (Some(k), d) => group_by[k].1 = levels[d - 1].clone(),
            (None, 0) => {}
            (None, d) => {
                let at = group_by.iter().take_while(|(g, _)| *g < dim).count();
                group_by.insert(at, (dim, levels[d - 1].clone()));
            }
        }
        Ok(())
    }

    /// Rolls the time axis up to a single all-time group.
    pub fn roll_up_time(&mut self) {
        self.query.time_level = TimeLevel::All;
    }

    /// Drills the time axis down to years.
    pub fn drill_down_time(&mut self) {
        self.query.time_level = TimeLevel::Year;
    }

    /// **Slice**: fixes one dimension to a single member name.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`] for a bad id.
    pub fn slice(&mut self, dim: DimensionId, member: impl Into<String>) -> Result<()> {
        self.dice(dim, vec![member.into()])
    }

    /// **Dice**: restricts one dimension to a set of member names
    /// (empty clears the filter). The filter applies while the
    /// dimension is grouped, to the names rendered at its current level.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`] for a bad id.
    pub fn dice(&mut self, dim: DimensionId, members: Vec<String>) -> Result<()> {
        let slot = self
            .filters
            .get_mut(dim.index() + 1)
            .ok_or(CoreError::UnknownDimension(dim))?;
        *slot = members;
        Ok(())
    }

    /// Restricts the time axis to a set of rendered time keys
    /// (e.g. `"2002"`).
    pub fn dice_time(&mut self, times: Vec<String>) {
        self.filters[0] = times;
    }

    /// **Rotate / pivot**: reorders the rendered axes. `order` indexes
    /// into `[time, dim0, dim1, …]` and must be a permutation; axes of
    /// dimensions rolled up to All render no label.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEvolution`] when `order` is not a permutation
    /// of the axes.
    pub fn rotate(&mut self, order: Vec<usize>) -> Result<()> {
        let n = self.filters.len();
        let mut seen = vec![false; n];
        if order.len() != n
            || order
                .iter()
                .any(|&i| i >= n || std::mem::replace(&mut seen[i], true))
        {
            return Err(CoreError::InvalidEvolution(format!(
                "rotate order must be a permutation of 0..{n}"
            )));
        }
        self.pivot = order;
        Ok(())
    }

    /// The key column of dimension `d` in the result, `None` while the
    /// dimension is at All.
    fn key_column(&self, d: usize) -> Option<usize> {
        self.query.group_by.iter().position(|(g, _)| g.index() == d)
    }

    /// Evaluates the query and applies the dice filters.
    fn result(&self) -> Result<ResultSet> {
        let mut rs = evaluate_par(
            self.tmd,
            self.structure_versions,
            &self.query,
            &ExecContext::sequential(),
            self.memo,
        )?;
        let keeps = |filter: &[String], key: &String| filter.is_empty() || filter.contains(key);
        rs.rows.retain(|r| {
            keeps(&self.filters[0], &r.time)
                && self
                    .query
                    .group_by
                    .iter()
                    .zip(&r.keys)
                    .all(|((d, _), key)| keeps(&self.filters[d.index() + 1], key))
        });
        Ok(rs)
    }

    /// The rows visible from the current viewpoint (level choice, time
    /// level, filters applied).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn rows(&self) -> Result<Vec<ResultRow>> {
        Ok(self.result()?.rows)
    }

    /// The §5.2 quality factor of the current viewpoint
    /// ([`ResultSet::quality`] of the visible rows).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn quality(&self, weights: &ConfidenceWeights) -> Result<f64> {
        Ok(self.result()?.quality(weights))
    }

    /// Renders the viewpoint as a pivot grid — time down the side, the
    /// first grouped dimension's members across the top — the layout of
    /// the prototype's result grids, with each cell carrying its
    /// confidence code. `measure` selects the measure column (0-based);
    /// blank cells are the "impossible cross-points" the prototype
    /// coloured red.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn render_grid(&self, measure: usize) -> Result<String> {
        Ok(self.result()?.render_grid(measure))
    }

    /// Renders the viewpoint as text, one line per row in pivot order,
    /// every cell tagged with its confidence colour — the textual stand-in
    /// for the prototype's coloured grid.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn render(&self) -> Result<String> {
        // Per pivot axis: `None` for time, else the dimension's key
        // column; dimensions at All have no column and are skipped.
        let axes: Vec<Option<usize>> = self
            .pivot
            .iter()
            .filter_map(|&i| match i {
                0 => Some(None),
                i => self.key_column(i - 1).map(Some),
            })
            .collect();
        let mut out = String::new();
        for r in &self.rows()? {
            let labels: Vec<&str> = axes
                .iter()
                .map(|axis| axis.map_or(r.time.as_str(), |k| r.keys[k].as_str()))
                .collect();
            out.push_str(&labels.join(" | "));
            out.push_str(" :");
            for c in &r.cells {
                match c.value {
                    Some(v) => out.push_str(&format!(" {v} [{}]", c.confidence.colour())),
                    None => out.push_str(&format!(" ? [{}]", c.confidence.colour())),
                }
            }
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvolap_core::case_study::{case_study, CaseStudy};
    use mvolap_core::{MeasureDef, MemberVersionSpec, StructureVersionId, TemporalDimension};
    use mvolap_temporal::{Granularity, Instant, Interval};

    fn with_view(mode: TemporalMode, f: impl FnOnce(CubeView<'_>, DimensionId)) {
        let CaseStudy { tmd, org, .. } = case_study();
        let memo = QueryMemo::new();
        let svs = memo.structure_versions(&tmd);
        f(CubeView::open(&tmd, &svs, mode, &memo), org);
    }

    #[test]
    fn open_starts_at_deepest_level() {
        with_view(TemporalMode::Consistent, |view, _| {
            assert_eq!(view.levels(), [Some("Department")]);
            assert_eq!(view.time_level(), TimeLevel::Year);
            assert_eq!(view.rows().unwrap().len(), 10); // one per Table 3 fact
        });
    }

    #[test]
    fn roll_up_and_drill_down_walk_the_lattice() {
        with_view(TemporalMode::Consistent, |mut view, org| {
            view.roll_up(org).unwrap();
            assert_eq!(view.levels(), [Some("Division")]);
            assert_eq!(view.rows().unwrap().len(), 6); // 3 years × 2 divisions
            view.roll_up(org).unwrap();
            assert_eq!(view.levels(), [None]);
            assert_eq!(view.rows().unwrap().len(), 3); // one per year
            view.roll_up(org).unwrap(); // no-op at the top
            assert_eq!(view.levels(), [None]);
            view.drill_down(org).unwrap();
            assert_eq!(view.levels(), [Some("Division")]);
            view.drill_down(org).unwrap();
            view.drill_down(org).unwrap(); // no-op at the bottom
            assert_eq!(view.levels(), [Some("Department")]);
            assert!(view.roll_up(DimensionId(7)).is_err());
        });
    }

    #[test]
    fn time_rollup() {
        with_view(TemporalMode::Consistent, |mut view, org| {
            view.roll_up(org).unwrap();
            view.roll_up_time();
            let rows = view.rows().unwrap();
            assert_eq!(rows.len(), 2); // Sales, R&D over all time
            let sales = rows.iter().find(|r| r.keys[0] == "Sales").unwrap();
            assert_eq!(sales.cells[0].value, Some(450.0));
            view.drill_down_time();
            assert_eq!(view.rows().unwrap().len(), 6);
        });
    }

    #[test]
    fn slice_and_dice() {
        with_view(TemporalMode::Consistent, |mut view, org| {
            view.roll_up(org).unwrap();
            view.slice(org, "Sales").unwrap();
            let rows = view.rows().unwrap();
            assert!(rows.iter().all(|r| r.keys[0] == "Sales"));
            assert_eq!(rows.len(), 3);
            view.dice(org, vec![]).unwrap(); // clear
            view.dice_time(vec!["2002".into(), "2003".into()]);
            assert_eq!(view.rows().unwrap().len(), 4);
        });
    }

    #[test]
    fn rotate_validates_permutation() {
        with_view(TemporalMode::Consistent, |mut view, _| {
            view.rotate(vec![1, 0]).unwrap();
            assert!(view.rotate(vec![0, 0]).is_err());
            assert!(view.rotate(vec![0]).is_err());
            let text = view.render().unwrap();
            // Department name now leads each line.
            assert!(text.lines().next().unwrap().starts_with("Dpt."));
        });
    }

    /// A two-dimension schema (Org, Product), one level each, one fact.
    fn org_product() -> (Tmd, DimensionId) {
        let mut tmd = Tmd::new("org_product", Granularity::Month);
        let all = Interval::since(Instant::ym(2001, 1));
        let mut org = TemporalDimension::new("Org");
        let dept = org.add_version(
            MemberVersionSpec::named("DeptA").at_level("Department"),
            all,
        );
        let mut product = TemporalDimension::new("Product");
        let gadget = product.add_version(MemberVersionSpec::named("Gadget").at_level("Item"), all);
        let org_id = tmd.add_dimension(org).unwrap();
        tmd.add_dimension(product).unwrap();
        tmd.add_measure(MeasureDef {
            name: "Amount".into(),
            aggregator: mvolap_core::Aggregator::Sum,
        })
        .unwrap();
        tmd.add_fact(&[dept, gadget], Instant::ym(2001, 6), &[5.0])
            .unwrap();
        (tmd, org_id)
    }

    #[test]
    fn rotate_skips_dimensions_rolled_up_to_all() {
        let (tmd, org) = org_product();
        let memo = QueryMemo::new();
        let svs = memo.structure_versions(&tmd);
        let mut view = CubeView::open(&tmd, &svs, TemporalMode::Consistent, &memo);
        view.rotate(vec![1, 0, 2]).unwrap();
        assert_eq!(
            view.render().unwrap(),
            "DeptA | 2001 | Gadget : 5 [white]\n"
        );
        view.roll_up(org).unwrap();
        assert_eq!(view.render().unwrap(), "2001 | Gadget : 5 [white]\n");
    }

    #[test]
    fn render_grid_pivots_members_to_columns() {
        with_view(TemporalMode::Version(StructureVersionId(2)), |view, _| {
            let grid = view.render_grid(0).unwrap();
            let lines: Vec<&str> = grid.lines().collect();
            // Header has the departments of the 2003 structure.
            assert!(lines[0].contains("Dpt.Bill"));
            assert!(lines[0].contains("Dpt.Smith"));
            assert!(!lines[0].contains("Dpt.Jones")); // not valid in VS2
                                                      // Rows are years; the 2002 Bill cell is the mapped 40 (am).
            let row_2002 = lines.iter().find(|l| l.starts_with("2002")).unwrap();
            assert!(row_2002.contains("40 (am)"));
            let row_2003 = lines.iter().find(|l| l.starts_with("2003")).unwrap();
            assert!(row_2003.contains("150 (sd)"));
            // Years 2001-2003: header + 3 rows.
            assert_eq!(lines.len(), 4);
        });
    }

    #[test]
    fn render_grid_leaves_impossible_cells_blank() {
        // In tcm, Jones has no 2003 column entries and Bill none before
        // 2003: those cross-points render blank.
        with_view(TemporalMode::Consistent, |view, _| {
            let grid = view.render_grid(0).unwrap();
            let header = grid.lines().next().unwrap().to_owned();
            let jones_col = header.find("Dpt.Jones").unwrap();
            let row_2003 = grid.lines().find(|l| l.starts_with("2003")).unwrap();
            // The Jones column in 2003 is whitespace (or the row ends first).
            let cell = row_2003.get(jones_col..jones_col + 3).unwrap_or("");
            assert!(cell.trim().is_empty(), "expected blank, got `{cell}`");
        });
    }

    #[test]
    fn render_tags_confidence_colours() {
        with_view(TemporalMode::Version(StructureVersionId(2)), |view, _| {
            let text = view.render().unwrap();
            assert!(text.contains("[white]")); // source cells
            assert!(text.contains("[yellow]")); // approx-mapped split cells
        });
    }

    #[test]
    fn view_quality_tracks_filters() {
        with_view(
            TemporalMode::Version(StructureVersionId(2)),
            |mut view, _| {
                let w = ConfidenceWeights::DEFAULT;
                assert!(view.quality(&w).unwrap() < 1.0);
                // Slicing to 2003 leaves only source cells.
                view.dice_time(vec!["2003".into()]);
                assert!((view.quality(&w).unwrap() - 1.0).abs() < 1e-12);
            },
        );
    }
}
