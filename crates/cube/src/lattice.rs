//! Aggregate-lattice materialisation.
//!
//! A cube precomputes one aggregation per *lattice node* — a choice of
//! level (or `All`) per dimension, crossed with a time level. Navigation
//! then answers roll-ups and drill-downs from the precomputed results
//! instead of re-scanning facts, which is exactly the aggregate
//! precomputation the paper attributes to the OLAP server tier.
//!
//! Two build strategies exist:
//!
//! * [`Cube::build`] evaluates every node from the base facts;
//! * [`Cube::build_incremental`] evaluates only the finest node from
//!   facts and derives each coarser node by re-aggregating its
//!   already-computed child — the classic lattice roll-up computation.
//!   Derivation requires a *fixed* hierarchy (a `Version` mode; under
//!   `tcm` a member's ancestor can change between two facts of the same
//!   output row) and *decomposable* aggregates (`sum`/`min`/`max`/
//!   `count`; `avg` of `avg` is wrong), so the builder transparently
//!   falls back to base evaluation when either precondition fails.

use std::collections::HashMap;

use mvolap_core::aggregate::{
    evaluate, evaluate_par, AggregateQuery, ResultRow, ResultSet, TimeLevel,
};
use mvolap_core::error::{CoreError, Result};
use mvolap_core::fold::{next_combination, Cell, Groups};
use mvolap_core::levels::{all_level_names, ancestors_at_level};
use mvolap_core::structure_version::StructureVersion;
use mvolap_core::tmp::TemporalMode;
use mvolap_core::{Aggregator, DimensionId, ExecContext, QueryMemo, Tmd};
use mvolap_temporal::{Instant, Interval};

/// The specification of a cube to materialise.
#[derive(Debug, Clone)]
pub struct CubeSpec {
    /// The temporal mode the cube presents.
    pub mode: TemporalMode,
    /// Optional restriction of fact times.
    pub time_range: Option<Interval>,
    /// Time levels to materialise (e.g. year and all-time).
    pub time_levels: Vec<TimeLevel>,
}

impl CubeSpec {
    /// A spec materialising year and all-time groupings of one mode.
    pub fn for_mode(mode: TemporalMode) -> Self {
        CubeSpec {
            mode,
            time_range: None,
            time_levels: vec![TimeLevel::Year, TimeLevel::All],
        }
    }
}

/// One node of the aggregation lattice: the chosen level per dimension
/// (`None` = rolled all the way up) and the time level.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LatticeNode {
    /// Per dimension (by id order): level name, or `None` for `All`.
    pub levels: Vec<Option<String>>,
    /// The time grouping of this node.
    pub time_level: TimeLevel,
}

/// How the nodes of a cube were computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Nodes evaluated from the base facts.
    pub from_facts: usize,
    /// Nodes derived by re-aggregating a finer node.
    pub derived: usize,
}

/// A materialised hypercube: every lattice node's aggregation, computed
/// once from the multiversion presentation of the facts.
#[derive(Debug, Clone)]
pub struct Cube {
    spec: CubeSpec,
    /// Per dimension: the level names available, top-down.
    dimension_levels: Vec<Vec<String>>,
    dimension_names: Vec<String>,
    nodes: Vec<(LatticeNode, ResultSet)>,
    stats: BuildStats,
}

impl Cube {
    /// Materialises the full lattice of `tmd` under `spec`.
    ///
    /// The lattice has `∏(levels_i + 1) × |time_levels|` nodes; for the
    /// paper's two-level Org dimension with two time levels that is six
    /// aggregations.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (unknown mode version etc.).
    pub fn build(
        tmd: &Tmd,
        structure_versions: &[StructureVersion],
        spec: CubeSpec,
    ) -> Result<Self> {
        Self::build_par(
            tmd,
            structure_versions,
            spec,
            &ExecContext::sequential(),
            &QueryMemo::new(),
        )
    }

    /// Parallel [`Cube::build`]: lattice nodes are independent
    /// aggregations, so they evaluate concurrently across `ctx`'s
    /// workers (each node's inner fold stays sequential to avoid
    /// oversubscription), sharing `memo`'s route and roll-up caches
    /// across nodes. Node order and every cell are bit-identical to
    /// [`Cube::build`] for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (unknown mode version etc.).
    pub fn build_par(
        tmd: &Tmd,
        structure_versions: &[StructureVersion],
        spec: CubeSpec,
        ctx: &ExecContext,
        memo: &QueryMemo,
    ) -> Result<Self> {
        let dimension_levels: Vec<Vec<String>> =
            tmd.dimensions().iter().map(all_level_names).collect();
        let choices = level_choices(&dimension_levels);

        // Materialise the node list first; evaluation fans out below.
        let mut planned: Vec<(LatticeNode, AggregateQuery)> = Vec::new();
        let mut combo = vec![0usize; choices.len()];
        loop {
            let levels = chosen(&choices, &combo);
            for &tl in &spec.time_levels {
                let query = node_query(&spec, &levels, tl);
                let node = LatticeNode {
                    levels: levels.clone(),
                    time_level: tl,
                };
                planned.push((node, query));
            }
            if !next_combination(&mut combo, |d| choices[d].len()) {
                break;
            }
        }

        // One worker per node; `parallel_map` preserves node order, and
        // the first error in node order is the one `build` would have
        // hit first.
        let inner = ExecContext::sequential();
        let results = ctx.parallel_map(&planned, |_, (_, query)| {
            evaluate_par(tmd, structure_versions, query, &inner, memo)
        });
        let mut nodes = Vec::with_capacity(planned.len());
        for ((node, _), result) in planned.into_iter().zip(results) {
            nodes.push((node, result?));
        }

        let stats = BuildStats {
            from_facts: nodes.len(),
            derived: 0,
        };
        Ok(Cube::assemble(tmd, spec, dimension_levels, nodes, stats))
    }

    /// Materialises the lattice, deriving coarser nodes from finer ones
    /// where sound (fixed hierarchy + decomposable aggregates); falls
    /// back to [`Cube::build`] otherwise. The result is equal to
    /// `build`'s up to row order within a node.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn build_incremental(
        tmd: &Tmd,
        structure_versions: &[StructureVersion],
        spec: CubeSpec,
    ) -> Result<Self> {
        // Preconditions for sound derivation.
        let hierarchy_instant: Option<Instant> = match &spec.mode {
            TemporalMode::Version(v) => structure_versions
                .get(v.index())
                .map(|sv| sv.interval.start()),
            _ => None,
        };
        let decomposable = tmd.measures().iter().all(|m| {
            matches!(
                m.aggregator,
                Aggregator::Sum | Aggregator::Min | Aggregator::Max | Aggregator::Count
            )
        });
        let (Some(at), true) = (hierarchy_instant, decomposable) else {
            return Self::build(tmd, structure_versions, spec);
        };

        let dimension_levels: Vec<Vec<String>> =
            tmd.dimensions().iter().map(all_level_names).collect();
        let choices = level_choices(&dimension_levels);

        // Every combination of level choices, ordered by descending
        // fineness (sum of choice indexes), so every node's finer child
        // exists before it.
        let mut combo = vec![0usize; choices.len()];
        let mut combos = vec![combo.clone()];
        while next_combination(&mut combo, |d| choices[d].len()) {
            combos.push(combo.clone());
        }
        combos.sort_by_key(|c| std::cmp::Reverse(c.iter().sum::<usize>()));

        let mut stats = BuildStats::default();
        let mut nodes: Vec<(LatticeNode, ResultSet)> = Vec::new();
        // Computed results keyed by (per-dim choice index, time level).
        let mut computed: HashMap<(Vec<usize>, TimeLevel), usize> = HashMap::new();

        for &tl in &spec.time_levels {
            for combo in &combos {
                let levels = chosen(&choices, combo);
                // The first dimension not yet at its finest level.
                let coarser = combo
                    .iter()
                    .zip(&choices)
                    .position(|(&i, set)| i + 1 < set.len());
                let result = match coarser {
                    None => {
                        stats.from_facts += 1;
                        let query = node_query(&spec, &levels, tl);
                        evaluate(tmd, structure_versions, &query)?
                    }
                    Some(d) => {
                        // Derive from the child one step finer in `d`.
                        let mut child = combo.clone();
                        child[d] += 1;
                        let child = (child, tl);
                        stats.derived += 1;
                        let child_result = &nodes[computed[&child]].1;
                        derive_rollup(tmd, child_result, &child.0, d, levels[d].as_deref(), at)?
                    }
                };
                computed.insert((combo.clone(), tl), nodes.len());
                nodes.push((
                    LatticeNode {
                        levels,
                        time_level: tl,
                    },
                    result,
                ));
            }
        }
        Ok(Cube::assemble(tmd, spec, dimension_levels, nodes, stats))
    }

    fn assemble(
        tmd: &Tmd,
        spec: CubeSpec,
        dimension_levels: Vec<Vec<String>>,
        nodes: Vec<(LatticeNode, ResultSet)>,
        stats: BuildStats,
    ) -> Cube {
        Cube {
            spec,
            dimension_levels,
            dimension_names: tmd
                .dimensions()
                .iter()
                .map(|d| d.name().to_owned())
                .collect(),
            nodes,
            stats,
        }
    }

    /// How this cube's nodes were computed.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// The cube's specification.
    pub fn spec(&self) -> &CubeSpec {
        &self.spec
    }

    /// Number of materialised lattice nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total materialised cells across all nodes.
    pub fn cell_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|(_, rs)| rs.rows.len() * rs.measure_headers.len())
            .sum()
    }

    /// Level names available for one dimension, top-down.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDimension`] for an out-of-range id.
    pub fn levels_of(&self, dim: DimensionId) -> Result<&[String]> {
        self.dimension_levels
            .get(dim.index())
            .map(Vec::as_slice)
            .ok_or(CoreError::UnknownDimension(dim))
    }

    /// The dimension names, in id order.
    pub fn dimension_names(&self) -> &[String] {
        &self.dimension_names
    }

    /// Fetches the precomputed result at one lattice node.
    pub fn node(&self, levels: &[Option<String>], time_level: TimeLevel) -> Option<&ResultSet> {
        self.nodes
            .iter()
            .find(|(n, _)| n.levels == levels && n.time_level == time_level)
            .map(|(_, rs)| rs)
    }

    /// Iterates over all `(node, result)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&LatticeNode, &ResultSet)> {
        self.nodes.iter().map(|(n, r)| (n, r))
    }
}

/// Per dimension, its level choices coarse to fine: `None` (All), then
/// each level top-down.
fn level_choices(dimension_levels: &[Vec<String>]) -> Vec<Vec<Option<String>>> {
    dimension_levels
        .iter()
        .map(|levels| {
            std::iter::once(None)
                .chain(levels.iter().cloned().map(Some))
                .collect()
        })
        .collect()
}

/// The level each dimension takes under one combination of choices.
fn chosen(choices: &[Vec<Option<String>>], combo: &[usize]) -> Vec<Option<String>> {
    choices
        .iter()
        .zip(combo)
        .map(|(set, &i)| set[i].clone())
        .collect()
}

/// The aggregation one lattice node materialises.
fn node_query(spec: &CubeSpec, levels: &[Option<String>], time_level: TimeLevel) -> AggregateQuery {
    AggregateQuery {
        group_by: levels
            .iter()
            .enumerate()
            .filter_map(|(d, l)| l.as_ref().map(|l| (DimensionId(d as u32), l.clone())))
            .collect(),
        time_level,
        measures: Vec::new(),
        mode: spec.mode.clone(),
        time_range: spec.time_range,
        filters: Vec::new(),
    }
}

/// Derives a coarser lattice node from a finer one: dimension `d` (at
/// the level named by `child_combo`) rolls up to `target_level`
/// (`None` = All, dropping the key column). Sound only for a fixed
/// hierarchy (instant `at`) and decomposable aggregates — the caller
/// guarantees both.
fn derive_rollup(
    tmd: &Tmd,
    child: &ResultSet,
    child_combo: &[usize],
    d: usize,
    target_level: Option<&str>,
    at: Instant,
) -> Result<ResultSet> {
    let dim_id = DimensionId(d as u32);
    let dimension = tmd.dimension(dim_id)?;
    // Key-column position of dimension `d` in the child result: one
    // column per dimension with a selected level, in dimension order.
    let key_pos = (0..d).filter(|&i| child_combo[i] > 0).count();
    debug_assert!(child_combo[d] > 0, "child must group dimension d");

    // Derivation aggregators: counts add up; sums add; min/max nest.
    let new_cells = || {
        tmd.measures()
            .iter()
            .map(|m| Cell::new(m.aggregator.combining()))
            .collect()
    };
    let mut groups: Groups<(String, Vec<String>)> = Groups::default();
    // Ancestor-name cache: every row with the same member maps alike.
    let mut ancestor_cache: HashMap<String, Vec<String>> = HashMap::new();

    for row in &child.rows {
        let member = &row.keys[key_pos];
        let mapped: Vec<String> = match target_level {
            None => vec![],
            Some(level) => {
                if member == "(unclassified)" {
                    vec!["(unclassified)".to_owned()]
                } else {
                    match ancestor_cache.get(member) {
                        Some(names) => names.clone(),
                        None => {
                            let leaf = dimension.version_named_at(member, at)?.id;
                            let ancestors = ancestors_at_level(dimension, leaf, level, at)?;
                            let names: Vec<String> = if ancestors.is_empty() {
                                vec!["(unclassified)".to_owned()]
                            } else {
                                ancestors
                                    .iter()
                                    .map(|&a| dimension.version(a).map(|v| v.name.clone()))
                                    .collect::<Result<Vec<_>>>()?
                            };
                            ancestor_cache.insert(member.clone(), names.clone());
                            names
                        }
                    }
                }
            }
        };
        // Multi-hierarchy fan-out (usually one ancestor); All-level
        // rollups contribute once with the key removed.
        let targets: Vec<Option<&String>> = if mapped.is_empty() {
            vec![None]
        } else {
            mapped.iter().map(Some).collect()
        };
        for target in targets {
            let mut new_keys = row.keys.clone();
            match target {
                Some(name) => new_keys[key_pos] = name.clone(),
                None => {
                    new_keys.remove(key_pos);
                }
            }
            let cells = groups.cells((row.time.clone(), new_keys), new_cells);
            for (cell, from) in cells.iter_mut().zip(&row.cells) {
                cell.add(from.value, from.confidence);
            }
        }
    }

    let mut key_headers = child.key_headers.clone();
    match target_level {
        Some(level) => key_headers[key_pos] = level.to_owned(),
        None => {
            key_headers.remove(key_pos);
        }
    }
    // Child rows arrive time-ordered; first-seen preserves that order.
    let rows: Vec<ResultRow> = groups
        .finish()
        .map(|((time, keys), cells)| ResultRow { time, keys, cells })
        .collect();

    Ok(ResultSet {
        mode: child.mode.clone(),
        time_header: child.time_header.clone(),
        key_headers,
        measure_headers: child.measure_headers.clone(),
        rows,
        unmapped_rows: child.unmapped_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvolap_core::case_study::case_study;
    use mvolap_core::StructureVersionId;

    #[test]
    fn lattice_has_all_level_time_combinations() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let cube =
            Cube::build(&cs.tmd, &svs, CubeSpec::for_mode(TemporalMode::Consistent)).unwrap();
        // (All, Division, Department) × (Year, All) = 6 nodes.
        assert_eq!(cube.node_count(), 6);
        assert!(cube.cell_count() > 0);
        assert_eq!(cube.levels_of(cs.org).unwrap(), ["Division", "Department"]);
        assert_eq!(cube.dimension_names(), ["Org"]);
    }

    #[test]
    fn node_lookup_matches_direct_evaluation() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let cube =
            Cube::build(&cs.tmd, &svs, CubeSpec::for_mode(TemporalMode::Consistent)).unwrap();
        let node = cube
            .node(&[Some("Division".into())], TimeLevel::Year)
            .unwrap();
        // 2001-2003 × {Sales, R&D} = 6 rows.
        assert_eq!(node.rows.len(), 6);
        let direct = evaluate(
            &cs.tmd,
            &svs,
            &AggregateQuery::by_year(cs.org, "Division", TemporalMode::Consistent),
        )
        .unwrap();
        assert_eq!(node.rows, direct.rows);
    }

    #[test]
    fn grand_total_node() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let cube =
            Cube::build(&cs.tmd, &svs, CubeSpec::for_mode(TemporalMode::Consistent)).unwrap();
        let total = cube.node(&[None], TimeLevel::All).unwrap();
        assert_eq!(total.rows.len(), 1);
        // Sum of every Table 3 amount: 850.
        assert_eq!(total.rows[0].cells[0].value, Some(850.0));
    }

    #[test]
    fn incremental_build_matches_base_build() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        for svid in [0u32, 1, 2] {
            let mode = TemporalMode::Version(StructureVersionId(svid));
            let base = Cube::build(&cs.tmd, &svs, CubeSpec::for_mode(mode.clone())).unwrap();
            let incr = Cube::build_incremental(&cs.tmd, &svs, CubeSpec::for_mode(mode)).unwrap();
            // Only the finest node per time level came from facts.
            assert_eq!(incr.stats().from_facts, 2);
            assert_eq!(incr.stats().derived, 4);
            assert_eq!(incr.node_count(), base.node_count());
            for (node, base_rs) in base.iter() {
                let incr_rs = incr
                    .node(&node.levels, node.time_level)
                    .unwrap_or_else(|| panic!("node {node:?} missing"));
                // Same cells, order-insensitively.
                assert_eq!(incr_rs.rows.len(), base_rs.rows.len(), "node {node:?}");
                for row in &base_rs.rows {
                    let other = incr_rs
                        .rows
                        .iter()
                        .find(|r| r.time == row.time && r.keys == row.keys)
                        .unwrap_or_else(|| panic!("row {row:?} missing in {node:?}"));
                    for (a, b) in row.cells.iter().zip(&other.cells) {
                        assert_eq!(a.confidence, b.confidence);
                        match (a.value, b.value) {
                            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                            (x, y) => assert_eq!(x, y),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_falls_back_for_tcm_and_avg() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        // tcm: hierarchy varies per fact time -> fallback.
        let cube =
            Cube::build_incremental(&cs.tmd, &svs, CubeSpec::for_mode(TemporalMode::Consistent))
                .unwrap();
        assert_eq!(cube.stats().derived, 0);
        assert_eq!(cube.stats().from_facts, cube.node_count());

        // An avg measure -> fallback even in a version mode.
        use mvolap_core::{MeasureDef, MemberVersionSpec, TemporalDimension, Tmd};
        use mvolap_temporal::{Granularity, Instant, Interval};
        let mut tmd = Tmd::new("avg", Granularity::Month);
        let mut d = TemporalDimension::new("D");
        let all = Interval::since(Instant::ym(2001, 1));
        let top = d.add_version(MemberVersionSpec::named("Top").at_level("L1"), all);
        let leaf = d.add_version(MemberVersionSpec::named("Leaf").at_level("L2"), all);
        d.add_relationship(leaf, top, all).unwrap();
        tmd.add_dimension(d).unwrap();
        tmd.add_measure(MeasureDef {
            name: "m".into(),
            aggregator: mvolap_core::Aggregator::Avg,
        })
        .unwrap();
        tmd.add_fact(&[leaf], Instant::ym(2001, 6), &[4.0]).unwrap();
        let svs = tmd.structure_versions();
        let cube = Cube::build_incremental(
            &tmd,
            &svs,
            CubeSpec::for_mode(TemporalMode::Version(svs[0].id)),
        )
        .unwrap();
        assert_eq!(cube.stats().derived, 0);
    }

    #[test]
    fn incremental_derives_count_measures_correctly() {
        use mvolap_core::{MeasureDef, MemberVersionSpec, TemporalDimension, Tmd};
        use mvolap_temporal::{Granularity, Instant, Interval};
        let mut tmd = Tmd::new("count", Granularity::Month);
        let mut d = TemporalDimension::new("D");
        let all = Interval::since(Instant::ym(2001, 1));
        let top = d.add_version(MemberVersionSpec::named("Top").at_level("L1"), all);
        let a = d.add_version(MemberVersionSpec::named("A").at_level("L2"), all);
        let b = d.add_version(MemberVersionSpec::named("B").at_level("L2"), all);
        d.add_relationship(a, top, all).unwrap();
        d.add_relationship(b, top, all).unwrap();
        tmd.add_dimension(d).unwrap();
        tmd.add_measure(MeasureDef {
            name: "n".into(),
            aggregator: mvolap_core::Aggregator::Count,
        })
        .unwrap();
        for leaf in [a, a, a, b] {
            tmd.add_fact(&[leaf], Instant::ym(2001, 6), &[1.0]).unwrap();
        }
        let svs = tmd.structure_versions();
        let cube = Cube::build_incremental(
            &tmd,
            &svs,
            CubeSpec::for_mode(TemporalMode::Version(svs[0].id)),
        )
        .unwrap();
        assert!(cube.stats().derived > 0);
        // Counts must ADD under roll-up: Top = 3 + 1 = 4 (a derived
        // count-of-counts would say 2).
        let node = cube.node(&[Some("L1".into())], TimeLevel::All).unwrap();
        assert_eq!(node.rows.len(), 1);
        assert_eq!(node.rows[0].cells[0].value, Some(4.0));
    }

    #[test]
    fn version_mode_cube() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let cube = Cube::build(
            &cs.tmd,
            &svs,
            CubeSpec::for_mode(TemporalMode::Version(StructureVersionId(2))),
        )
        .unwrap();
        let node = cube
            .node(&[Some("Department".into())], TimeLevel::Year)
            .unwrap();
        // 2002 data appears under Bill/Paul (the split), never Jones.
        assert!(node.rows.iter().all(|r| r.keys[0] != "Dpt.Jones"));
        assert!(node
            .rows
            .iter()
            .any(|r| r.time == "2002" && r.keys[0] == "Dpt.Bill"));
    }
}
