//! A deliberately naive reference for Definitions 11–12, and the
//! engine checked against it.
//!
//! The oracle shares none of the engine's fold: no memo, no morsels, no
//! `MappingGraph::resolve`. For each fact and each dimension the mode
//! fixes, it enumerates the simple paths over the dimension's mapping
//! relationships, in the time direction, up to member versions valid in
//! the target structure version; composes the `MeasureMapping`s along
//! each path; and takes the cartesian product across dimensions. Every
//! contribution is kept in a list per `(coords, t)` cell, and `⊕m`,
//! the `⊗cf` meet and the `uk` poison are read off that list at the end
//! (Definition 11). Cells are then grouped by time key and by ancestor
//! names read through `parents_at` at the hierarchy instant, with the
//! measure's combining aggregator (Definition 12). Only the level
//! derivation of Definition 4 (`levels_at`) is the engine's own.
//!
//! `evaluate_par` at 1 and 2 threads must agree with it as maps keyed by
//! `(time, keys)`: values within 1e-9 relative, confidence, unmapped
//! rows and `Q` exactly. Of the row order only the time-key ordering is
//! checked.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use mvolap::core::aggregate::{evaluate_par, AggregateQuery, MemberFilter, ResultSet, TimeLevel};
use mvolap::core::case_study::case_study;
use mvolap::core::evolution::{self, MergeSource, SplitPart};
use mvolap::core::levels::{all_level_names, levels_at};
use mvolap::core::mapping::MappingRelationship;
use mvolap::core::{
    all_modes, Aggregator, Confidence, ConfidenceWeights, CoreError, DimensionId, ExecContext,
    MeasureDef, MeasureMapping, MemberVersionId, MemberVersionSpec, QueryMemo, StructureVersion,
    TemporalDimension, TemporalMode, Tmd,
};
use mvolap::temporal::{Granularity, Instant, Interval};
use mvolap::workload::{generate, WorkloadConfig};

/// Every contribution to one cell, kept whole.
#[derive(Debug, Clone)]
struct Contributions {
    values: Vec<f64>,
    unknown: bool,
    confidence: Confidence,
}

impl Contributions {
    fn new() -> Self {
        Contributions {
            values: Vec::new(),
            unknown: false,
            confidence: Confidence::Source,
        }
    }

    fn add(&mut self, value: Option<f64>, confidence: Confidence) {
        // Example 5's truth table is the meet over sd > em > am > uk.
        self.confidence = self.confidence.min(confidence);
        match value {
            Some(v) => self.values.push(v),
            None => self.unknown = true,
        }
    }

    fn finish(&self, aggregator: Aggregator) -> (Option<f64>, Confidence) {
        let v = &self.values;
        let value = (!self.unknown).then(|| match aggregator {
            Aggregator::Sum => v.iter().sum(),
            Aggregator::Count => v.len() as f64,
            Aggregator::Avg => v.iter().sum::<f64>() / v.len() as f64,
            Aggregator::Min => v.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregator::Max => v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        });
        (value, self.confidence)
    }
}

/// The second-stage form of `⊕m` over already-aggregated cells: counts
/// add, everything else folds with itself.
fn combining(aggregator: Aggregator) -> Aggregator {
    match aggregator {
        Aggregator::Count => Aggregator::Sum,
        other => other,
    }
}

/// A route into a structure version: the valid target and the
/// per-measure mapping composed along the path.
type Route = (MemberVersionId, Vec<MeasureMapping>);

/// Every simple path from `source` over `dim`'s mapping relationships
/// to a member version valid in `sv`, stopping at the first valid one.
/// Forward edges when `source` ends before `sv` starts, backward edges
/// when it starts after `sv` ends.
fn routes(
    tmd: &Tmd,
    dim: DimensionId,
    source: MemberVersionId,
    sv: &StructureVersion,
) -> Vec<Route> {
    let identity = vec![MeasureMapping::SOURCE_IDENTITY; tmd.measures().len()];
    if sv.contains(dim, source) {
        return vec![(source, identity)];
    }
    let validity = tmd
        .dimension(dim)
        .unwrap()
        .version(source)
        .unwrap()
        .validity;
    let forward = validity.end() < sv.interval.start();
    let backward = sv.interval.end() < validity.start();
    let (forward, backward) = if forward || backward {
        (forward, backward)
    } else {
        (true, true)
    };
    let rels = tmd.mapping_graph(dim).unwrap().relationships();
    let mut out = Vec::new();
    let mut path = vec![source];
    let walk = Walk {
        rels,
        sv,
        dim,
        forward,
        backward,
    };
    walk.from(&mut path, identity, &mut out);
    out
}

struct Walk<'a> {
    rels: &'a [MappingRelationship],
    sv: &'a StructureVersion,
    dim: DimensionId,
    forward: bool,
    backward: bool,
}

impl Walk<'_> {
    fn from(
        &self,
        path: &mut Vec<MemberVersionId>,
        acc: Vec<MeasureMapping>,
        out: &mut Vec<Route>,
    ) {
        let here = *path.last().unwrap();
        for rel in self.rels {
            let steps = [
                (self.forward && rel.from == here).then_some((rel.to, &rel.forward)),
                (self.backward && rel.to == here).then_some((rel.from, &rel.backward)),
            ];
            for (next, step) in steps.into_iter().flatten() {
                if path.contains(&next) {
                    continue;
                }
                let composed: Vec<MeasureMapping> =
                    acc.iter().zip(step).map(|(a, s)| a.compose(*s)).collect();
                if self.sv.contains(self.dim, next) {
                    out.push((next, composed));
                } else {
                    path.push(next);
                    self.from(path, composed, out);
                    path.pop();
                }
            }
        }
    }
}

type Cells = BTreeMap<(Vec<MemberVersionId>, Instant), Vec<Contributions>>;

/// Definition 11 under `mode`: every `(coords, t)` cell with its
/// contributions per measure, and the facts that have no route.
fn present(tmd: &Tmd, svs: &[StructureVersion], mode: &TemporalMode) -> (Cells, usize) {
    let n = tmd.measures().len();
    let facts = tmd.facts();
    let mut cells = Cells::new();
    let mut unmapped = 0;
    'facts: for row in 0..facts.len() {
        let t = facts.time(row);
        let mut combos: Vec<(Vec<MemberVersionId>, Vec<MeasureMapping>)> =
            vec![(Vec::new(), vec![MeasureMapping::SOURCE_IDENTITY; n])];
        for d in 0..tmd.dimensions().len() {
            let dim = DimensionId(d as u32);
            let coord = facts.coord(row, d);
            let options = match mode.version_for(dim) {
                None => vec![(coord, vec![MeasureMapping::SOURCE_IDENTITY; n])],
                Some(id) => {
                    let sv = svs.iter().find(|sv| sv.id == id).unwrap();
                    routes(tmd, dim, coord, sv)
                }
            };
            if options.is_empty() {
                unmapped += 1;
                continue 'facts;
            }
            combos = combos
                .iter()
                .flat_map(|(coords, acc)| {
                    options.iter().map(move |(target, route)| {
                        let mut coords = coords.clone();
                        coords.push(*target);
                        let acc = acc.iter().zip(route).map(|(a, r)| a.compose(*r)).collect();
                        (coords, acc)
                    })
                })
                .collect();
        }
        for (coords, mappings) in combos {
            let cell = cells
                .entry((coords, t))
                .or_insert_with(|| vec![Contributions::new(); n]);
            for (m, mapping) in mappings.iter().enumerate() {
                cell[m].add(mapping.func.apply(facts.value(row, m)), mapping.confidence);
            }
        }
    }
    (cells, unmapped)
}

/// Names of `leaf`'s ancestors at `level` at `at`, walking `parents_at`
/// upward; the leaf itself when it sits at that level.
fn ancestor_names(
    tmd: &Tmd,
    dim: DimensionId,
    leaf: MemberVersionId,
    level: &str,
    at: Instant,
) -> Option<Vec<String>> {
    let d = tmd.dimension(dim).unwrap();
    let (_, levels) = levels_at(d, at);
    let members = &levels.iter().find(|l| l.name == level)?.members;
    let name = |id: MemberVersionId| d.version(id).unwrap().name.clone();
    if members.contains(&leaf) {
        return Some(vec![name(leaf)]);
    }
    let mut seen = BTreeSet::new();
    let mut stack = d.parents_at(leaf, at);
    while let Some(p) = stack.pop() {
        if seen.insert(p) {
            stack.extend(d.parents_at(p, at));
        }
    }
    Some(
        seen.into_iter()
            .filter(|p| members.contains(p))
            .map(name)
            .collect(),
    )
}

fn time_key(tmd: &Tmd, level: TimeLevel, t: Instant) -> String {
    let ym = t.to_ym();
    match level {
        TimeLevel::Year => ym.year.to_string(),
        TimeLevel::Quarter => format!("{}-Q{}", ym.year, ym.month.div_ceil(3)),
        TimeLevel::Month => format!("{}-{:02}", ym.year, ym.month),
        TimeLevel::Instant => t.display(tmd.granularity()),
        TimeLevel::All => "all".to_owned(),
    }
}

type Groups = BTreeMap<(String, Vec<String>), Vec<(Option<f64>, Confidence)>>;

/// The oracle's answer: the groups, the unmapped facts and `Q`.
#[derive(Debug)]
struct Answer {
    groups: Groups,
    unmapped: usize,
    quality: f64,
}

/// Definition 12 over a presentation; `None` when some row asks for a
/// level that does not exist at its hierarchy instant.
fn aggregate(
    tmd: &Tmd,
    svs: &[StructureVersion],
    query: &AggregateQuery,
    (cells, unmapped): &(Cells, usize),
) -> Option<Answer> {
    let measures: Vec<usize> = if query.measures.is_empty() {
        (0..tmd.measures().len()).collect()
    } else {
        query.measures.iter().map(|m| m.index()).collect()
    };
    let at = |dim: DimensionId, t: Instant| match query.mode.version_for(dim) {
        Some(id) => svs.iter().find(|sv| sv.id == id).unwrap().interval.start(),
        None => t,
    };
    let mut groups: BTreeMap<(String, Vec<String>), Vec<Contributions>> = BTreeMap::new();
    'cells: for ((coords, t), contributions) in cells {
        if query.time_range.is_some_and(|r| !r.contains(*t)) {
            continue;
        }
        for f in &query.filters {
            let leaf = coords[f.dimension.index()];
            let names = ancestor_names(tmd, f.dimension, leaf, &f.level, at(f.dimension, *t))?;
            if !names.iter().any(|n| f.members.contains(n)) {
                continue 'cells;
            }
        }
        let mut keys: Vec<Vec<String>> = vec![Vec::new()];
        for (dim, level) in &query.group_by {
            let leaf = coords[dim.index()];
            let mut names = ancestor_names(tmd, *dim, leaf, level, at(*dim, *t))?;
            if names.is_empty() {
                names.push("(unclassified)".to_owned());
            }
            keys = keys
                .iter()
                .flat_map(|k| {
                    names.iter().map(move |n| {
                        let mut k = k.clone();
                        k.push(n.clone());
                        k
                    })
                })
                .collect();
        }
        let time = time_key(tmd, query.time_level, *t);
        for key in keys {
            let group = groups
                .entry((time.clone(), key))
                .or_insert_with(|| vec![Contributions::new(); measures.len()]);
            for (slot, &m) in measures.iter().enumerate() {
                let (value, confidence) = contributions[m].finish(tmd.measures()[m].aggregator);
                group[slot].add(value, confidence);
            }
        }
    }
    let groups: Groups = groups
        .into_iter()
        .map(|(key, group)| {
            let cells = measures
                .iter()
                .zip(&group)
                .map(|(&m, c)| c.finish(combining(tmd.measures()[m].aggregator)))
                .collect();
            (key, cells)
        })
        .collect();
    let grid = groups.len() * measures.len();
    let weights = ConfidenceWeights::DEFAULT;
    let weight: u64 = groups
        .values()
        .flatten()
        .map(|&(_, c)| u64::from(weights.weight(c)))
        .sum();
    let quality = if grid == 0 {
        0.0
    } else {
        weight as f64 / (groups.len() as f64 * measures.len() as f64 * 10.0)
    };
    Some(Answer {
        groups,
        unmapped: *unmapped,
        quality,
    })
}

fn close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        (x, y) => x.is_none() && y.is_none(),
    }
}

fn time_order(a: &str, b: &str) -> Ordering {
    match (a.parse::<i64>(), b.parse::<i64>()) {
        (Ok(x), Ok(y)) => x.cmp(&y),
        _ => a.cmp(b),
    }
}

fn assert_agrees(want: &Answer, got: &ResultSet, what: &str) {
    assert_eq!(got.unmapped_rows, want.unmapped, "{what}: unmapped rows");
    let mut rows: Groups = BTreeMap::new();
    for r in &got.rows {
        let cells = r.cells.iter().map(|c| (c.value, c.confidence)).collect();
        let key = (r.time.clone(), r.keys.clone());
        assert!(
            rows.insert(key, cells).is_none(),
            "{what}: repeated row {r:?}"
        );
    }
    assert_eq!(
        rows.keys().collect::<Vec<_>>(),
        want.groups.keys().collect::<Vec<_>>(),
        "{what}: groups"
    );
    for (key, cells) in &want.groups {
        for ((wv, wc), (gv, gc)) in cells.iter().zip(&rows[key]) {
            assert_eq!(gc, wc, "{what}: confidence of {key:?}");
            assert!(close(*gv, *wv), "{what}: {key:?} is {gv:?}, oracle {wv:?}");
        }
    }
    assert_eq!(
        got.quality(&ConfidenceWeights::DEFAULT).to_bits(),
        want.quality.to_bits(),
        "{what}: Q"
    );
    assert!(
        got.rows
            .windows(2)
            .all(|w| time_order(&w[0].time, &w[1].time) != Ordering::Greater),
        "{what}: rows out of time order"
    );
}

/// One schema to check, with the division its filter query keeps.
struct Input {
    name: String,
    tmd: Tmd,
    division: &'static str,
}

fn queries(input: &Input, mode: &TemporalMode) -> Vec<AggregateQuery> {
    let tmd = &input.tmd;
    let mut out = vec![AggregateQuery::grand_total(mode.clone())];
    for (d, dimension) in tmd.dimensions().iter().enumerate() {
        for level in all_level_names(dimension) {
            out.push(AggregateQuery::by_year(
                DimensionId(d as u32),
                level,
                mode.clone(),
            ));
        }
    }
    let mut by_quarter = AggregateQuery::grand_total(mode.clone());
    by_quarter.time_level = TimeLevel::Quarter;
    out.push(by_quarter);
    let org = DimensionId(0);
    let finest = all_level_names(&tmd.dimensions()[0]).pop().unwrap();
    out.push(
        AggregateQuery::by_year(org, finest.clone(), mode.clone())
            .in_range(Interval::years(2002, 2003)),
    );
    out.push(
        AggregateQuery::by_year(org, finest, mode.clone()).filtered(MemberFilter {
            dimension: org,
            level: "Division".into(),
            members: vec![input.division.into()],
        }),
    );
    out
}

/// Checks every query in every mode; returns the confidences the oracle
/// produced and the most facts one mode left unmapped, so each test can
/// show it reached the cases it is about.
fn check(input: &Input) -> (BTreeSet<Confidence>, usize) {
    let mut seen = (BTreeSet::new(), 0);
    let tmd = &input.tmd;
    let svs = tmd.structure_versions();
    let mut modes = all_modes(&svs);
    if tmd.dimensions().len() > 1 {
        modes.extend(
            svs.iter()
                .map(|sv| TemporalMode::Mixed(vec![(DimensionId(0), sv.id)])),
        );
    }
    for mode in &modes {
        let presented = present(tmd, &svs, mode);
        for query in queries(input, mode) {
            let want = aggregate(tmd, &svs, &query, &presented);
            if let Some(answer) = &want {
                seen.0
                    .extend(answer.groups.values().flatten().map(|&(_, c)| c));
                seen.1 = seen.1.max(answer.unmapped);
            }
            for threads in [1, 2] {
                let what = format!(
                    "{}, mode {mode}, {:?} by {:?}, {threads} threads",
                    input.name, query.time_level, query.group_by
                );
                let ctx = ExecContext::new(threads).with_morsel_size(3);
                match (
                    &want,
                    evaluate_par(tmd, &svs, &query, &ctx, &QueryMemo::new()),
                ) {
                    (Some(want), Ok(got)) => assert_agrees(want, &got, &what),
                    (None, Err(e)) => {
                        assert!(matches!(e, CoreError::UnknownLevel { .. }), "{what}: {e}")
                    }
                    (want, got) => panic!("{what}: oracle {want:?}, engine {got:?}"),
                }
            }
        }
    }
    seen
}

fn workloads() -> Vec<Input> {
    (0..28u64)
        .map(|seed| {
            let mut config = WorkloadConfig::small(seed);
            if seed >= 16 {
                config.split_prob = 0.3;
                config.merge_prob = 0.25;
                config.reclassify_prob = 0.2;
                config.delete_prob = 0.1;
            }
            Input {
                name: format!("workload seed {seed}"),
                tmd: generate(&config).unwrap().tmd,
                division: "Div0",
            }
        })
        .collect()
}

/// Org × Product, both splitting in 2003: DeptA 50/50, Gadget 30/70.
fn two_dimensions() -> Input {
    let mut tmd = Tmd::new("sales", Granularity::Month);
    let since = Interval::since(Instant::ym(2001, 1));
    let mut org = TemporalDimension::new("Org");
    let div = org.add_version(
        MemberVersionSpec::named("Division1").at_level("Division"),
        since,
    );
    let dept_a = org.add_version(
        MemberVersionSpec::named("DeptA").at_level("Department"),
        since,
    );
    let dept_b = org.add_version(
        MemberVersionSpec::named("DeptB").at_level("Department"),
        since,
    );
    org.add_relationship(dept_a, div, since).unwrap();
    org.add_relationship(dept_b, div, since).unwrap();
    let org = tmd.add_dimension(org).unwrap();
    let mut product = TemporalDimension::new("Product");
    let family = product.add_version(MemberVersionSpec::named("All").at_level("Family"), since);
    let gadget = product.add_version(MemberVersionSpec::named("Gadget").at_level("Item"), since);
    let widget = product.add_version(MemberVersionSpec::named("Widget").at_level("Item"), since);
    product.add_relationship(gadget, family, since).unwrap();
    product.add_relationship(widget, family, since).unwrap();
    let product = tmd.add_dimension(product).unwrap();
    tmd.add_measure(MeasureDef::summed("Revenue")).unwrap();
    for year in [2001, 2002] {
        let t = Instant::ym(year, 6);
        tmd.add_fact(&[dept_a, gadget], t, &[100.0]).unwrap();
        tmd.add_fact(&[dept_a, widget], t, &[40.0]).unwrap();
        tmd.add_fact(&[dept_b, gadget], t, &[60.0]).unwrap();
    }
    let t3 = Instant::ym(2003, 1);
    let halves = [
        SplitPart::proportional("DeptA1", 0.5, 1),
        SplitPart::proportional("DeptA2", 0.5, 1),
    ];
    let a = evolution::split(&mut tmd, org, dept_a, &halves, t3, &[div]).unwrap();
    let sizes = [
        SplitPart::proportional("GadgetS", 0.3, 1),
        SplitPart::proportional("GadgetL", 0.7, 1),
    ];
    let g = evolution::split(&mut tmd, product, gadget, &sizes, t3, &[family]).unwrap();
    let t = Instant::ym(2003, 6);
    tmd.add_fact(&[a.created[0], g.created[1]], t, &[70.0])
        .unwrap();
    tmd.add_fact(&[a.created[1], widget], t, &[25.0]).unwrap();
    tmd.add_fact(&[dept_b, g.created[0]], t, &[12.0]).unwrap();
    Input {
        name: "two dimensions".into(),
        tmd,
        division: "Division1",
    }
}

/// One measure per `Aggregator`, through a split (A → 30/70) and a
/// merge (B at half share, C unknown).
fn every_aggregator() -> Input {
    let aggregators = [
        Aggregator::Sum,
        Aggregator::Count,
        Aggregator::Avg,
        Aggregator::Min,
        Aggregator::Max,
    ];
    let n = aggregators.len();
    let mut tmd = Tmd::new("aggregators", Granularity::Month);
    let since = Interval::since(Instant::ym(2001, 1));
    let mut org = TemporalDimension::new("Org");
    let div = org.add_version(MemberVersionSpec::named("D1").at_level("Division"), since);
    let depts: Vec<MemberVersionId> = ["A", "B", "C"]
        .iter()
        .map(|name| {
            let id = org.add_version(
                MemberVersionSpec::named(*name).at_level("Department"),
                since,
            );
            org.add_relationship(id, div, since).unwrap();
            id
        })
        .collect();
    let org = tmd.add_dimension(org).unwrap();
    for a in aggregators {
        tmd.add_measure(MeasureDef {
            name: a.name().into(),
            aggregator: a,
        })
        .unwrap();
    }
    let mut x = 7.0;
    let mut facts = |tmd: &mut Tmd, leaf: MemberVersionId, year: i32| {
        for month in [3, 3, 9] {
            x = (x * 13.0 + 5.0) % 97.0;
            let values: Vec<f64> = (0..n).map(|m| x + m as f64).collect();
            tmd.add_fact(&[leaf], Instant::ym(year, month), &values)
                .unwrap();
        }
    };
    for year in [2001, 2002] {
        for &d in &depts {
            facts(&mut tmd, d, year);
        }
    }
    let t3 = Instant::ym(2003, 1);
    let parts = [
        SplitPart::proportional("A1", 0.3, n),
        SplitPart::proportional("A2", 0.7, n),
    ];
    let split = evolution::split(&mut tmd, org, depts[0], &parts, t3, &[div]).unwrap();
    // C's mapping is unknown both ways, so its old facts poison the BC
    // cells B's old facts also land on.
    let sources = [
        MergeSource::with_share(depts[1], 0.5, n),
        MergeSource {
            id: depts[2],
            forward: vec![MeasureMapping::UNKNOWN; n],
            backward: vec![MeasureMapping::UNKNOWN; n],
        },
    ];
    let merged = evolution::merge(
        &mut tmd,
        org,
        &sources,
        "BC",
        Some("Department".into()),
        t3,
        &[div],
    )
    .unwrap();
    for leaf in split.created.iter().chain(&merged.created) {
        facts(&mut tmd, *leaf, 2003);
    }
    Input {
        name: "every aggregator".into(),
        tmd,
        division: "D1",
    }
}

#[test]
fn engine_agrees_with_the_naive_oracle_on_generated_evolutions() {
    let (mut confidences, mut unmapped) = (BTreeSet::new(), 0);
    for input in workloads() {
        let (c, u) = check(&input);
        confidences.extend(c);
        unmapped = unmapped.max(u);
    }
    assert!(
        [Confidence::Source, Confidence::Exact, Confidence::Approx]
            .iter()
            .all(|c| confidences.contains(c)),
        "splits and merges must reach em and am cells: {confidences:?}"
    );
    assert!(unmapped > 0, "deletions must leave facts unmapped");
}

#[test]
fn engine_agrees_with_the_naive_oracle_on_the_case_study() {
    let (confidences, _) = check(&Input {
        name: "case study".into(),
        tmd: case_study().tmd,
        division: "Sales",
    });
    assert!(confidences.contains(&Confidence::Approx));
}

#[test]
fn engine_agrees_with_the_naive_oracle_across_two_dimensions() {
    let (confidences, _) = check(&two_dimensions());
    assert!(confidences.contains(&Confidence::Approx));
}

#[test]
fn engine_agrees_with_the_naive_oracle_for_every_aggregator() {
    let (confidences, _) = check(&every_aggregator());
    assert!(
        confidences.contains(&Confidence::Unknown),
        "the unknown merge share must poison some cell"
    );
}

/// Operator scripts: the durable crate's generated `WalRecord`
/// sequences — `Reclassify`, `Transform`, `Confidence` and bare
/// `UNKNOWN` associates among them — applied through `WalRecord::apply`
/// and checked on every 25th prefix and on each final state.
#[test]
fn engine_agrees_with_the_naive_oracle_on_operator_scripts() {
    let (mut confidences, mut unmapped) = (BTreeSet::new(), 0);
    for (seed, records) in [(0xD15C_0B0B, 110), (7, 200)] {
        let script = mvolap::durable::generate(seed, records);
        let mut tmd = script.seed_schema.clone();
        for (n, record) in (1..).zip(script.ops()) {
            record.apply(&mut tmd).unwrap();
            if n % 25 == 0 || n == script.records {
                let (c, u) = check(&Input {
                    name: format!("script {seed:#x}, prefix {n}"),
                    tmd: tmd.clone(),
                    division: "North",
                });
                confidences.extend(c);
                unmapped = unmapped.max(u);
            }
        }
    }
    assert!(
        [
            Confidence::Source,
            Confidence::Exact,
            Confidence::Approx,
            Confidence::Unknown
        ]
        .iter()
        .all(|c| confidences.contains(c)),
        "scripts must reach sd, em, am and uk cells: {confidences:?}"
    );
    assert!(unmapped > 0, "deletions must leave facts unmapped");
}
