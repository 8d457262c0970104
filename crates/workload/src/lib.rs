//! # mvolap-workload
//!
//! Deterministic synthetic workload generation: evolving organisation
//! hierarchies (splits, merges, reclassifications, creations, deletions
//! at configurable rates) plus per-period fact streams. The paper's
//! evaluation is a worked case study; these generators provide the
//! scaling workloads behind the benchmark suite's shape experiments.
//!
//! All generation is seeded (`mvolap_prng::Rng`), so every benchmark
//! run sees exactly the same schema and facts for a given configuration.

use mvolap_core::evolution::{self, MergeSource, SplitPart};
use mvolap_core::{
    DimensionId, MeasureDef, MemberVersionId, MemberVersionSpec, Result, TemporalDimension, Tmd,
};
use mvolap_prng::Rng;
use mvolap_temporal::{Granularity, Instant, Interval};

/// Configuration of an evolving-organisation workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed; equal seeds generate identical workloads.
    pub seed: u64,
    /// Number of yearly periods, starting at 2001. Evolution events
    /// happen at each year boundary after the first.
    pub periods: u32,
    /// Number of (static) divisions.
    pub divisions: usize,
    /// Departments created in the first period.
    pub initial_departments: usize,
    /// Per-period probability that a department splits in two.
    pub split_prob: f64,
    /// Per-period probability that a department merges with another.
    pub merge_prob: f64,
    /// Per-period probability that a department changes division.
    pub reclassify_prob: f64,
    /// Per-period probability that a brand-new department appears.
    pub create_prob: f64,
    /// Per-period probability that a department disappears.
    pub delete_prob: f64,
    /// Facts generated per live department per period.
    pub facts_per_department: usize,
}

impl WorkloadConfig {
    /// A small default: 4 periods, 3 divisions, 10 departments, moderate
    /// evolution, 4 facts per department per period.
    pub fn small(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            periods: 4,
            divisions: 3,
            initial_departments: 10,
            split_prob: 0.10,
            merge_prob: 0.05,
            reclassify_prob: 0.10,
            create_prob: 0.05,
            delete_prob: 0.03,
            facts_per_department: 4,
        }
    }

    /// Scales the department count (benchmark sweeps).
    #[must_use]
    pub fn with_departments(mut self, n: usize) -> Self {
        self.initial_departments = n;
        self
    }

    /// Scales the period count.
    #[must_use]
    pub fn with_periods(mut self, n: u32) -> Self {
        self.periods = n;
        self
    }

    /// Scales the fact rate.
    #[must_use]
    pub fn with_facts_per_department(mut self, n: usize) -> Self {
        self.facts_per_department = n;
        self
    }

    /// Disables all evolution (a static-dimension control group).
    #[must_use]
    pub fn frozen(mut self) -> Self {
        self.split_prob = 0.0;
        self.merge_prob = 0.0;
        self.reclassify_prob = 0.0;
        self.create_prob = 0.0;
        self.delete_prob = 0.0;
        self
    }
}

/// Counters describing what a generation run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Departments split.
    pub splits: usize,
    /// Department pairs merged.
    pub merges: usize,
    /// Departments reclassified.
    pub reclassifications: usize,
    /// Departments created after bootstrap.
    pub creations: usize,
    /// Departments deleted.
    pub deletions: usize,
    /// Fact rows inserted.
    pub facts: usize,
}

/// A generated workload: the populated schema plus statistics.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    /// The populated schema.
    pub tmd: Tmd,
    /// The organisation dimension.
    pub dim: DimensionId,
    /// What happened during generation.
    pub stats: WorkloadStats,
}

/// Generates an evolving-organisation workload.
///
/// Period 1 bootstraps `divisions` divisions and `initial_departments`
/// departments; every later period applies random evolution events at
/// the year boundary, then inserts facts mid-year for every live
/// department.
///
/// # Errors
///
/// Propagates evolution-operator failures (none are expected for valid
/// configurations).
pub fn generate(config: &WorkloadConfig) -> Result<GeneratedWorkload> {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut tmd = Tmd::new("workload", Granularity::Month);
    let dim = tmd.add_dimension(TemporalDimension::new("Org"))?;
    tmd.add_measure(MeasureDef::summed("Amount"))?;
    let mut stats = WorkloadStats::default();
    let mut dept_counter = 0usize;

    // Bootstrap: divisions live forever.
    let start = Instant::ym(2001, 1);
    let mut divisions: Vec<MemberVersionId> = Vec::with_capacity(config.divisions);
    for i in 0..config.divisions {
        let id = tmd.add_version(
            dim,
            MemberVersionSpec::named(format!("Div{i}")).at_level("Division"),
            Interval::since(start),
        )?;
        divisions.push(id);
    }
    for _ in 0..config.initial_departments {
        let parent = *rng.choose(&divisions).expect("at least one division");
        let name = format!("Dept{dept_counter}");
        dept_counter += 1;
        evolution::create(
            &mut tmd,
            dim,
            name,
            Some("Department".into()),
            start,
            &[parent],
        )?;
    }

    for period in 0..config.periods {
        let year = 2001 + period as i32;
        let boundary = Instant::ym(year, 1);
        if period > 0 {
            evolve_period(
                &mut tmd,
                dim,
                &divisions,
                boundary,
                config,
                &mut rng,
                &mut stats,
                &mut dept_counter,
            )?;
        }
        // Facts mid-year for every live department.
        let mid = Instant::ym(year, 6);
        let leaves: Vec<MemberVersionId> = live_departments(&tmd, dim, mid)?;
        for leaf in leaves {
            for _ in 0..config.facts_per_department {
                let amount = rng.f64_in(10.0, 200.0).round();
                tmd.add_fact(&[leaf], mid, &[amount])?;
                stats.facts += 1;
            }
        }
    }

    Ok(GeneratedWorkload { tmd, dim, stats })
}

/// Departments (leaf member versions tagged `Department`) valid at `t`.
fn live_departments(tmd: &Tmd, dim: DimensionId, t: Instant) -> Result<Vec<MemberVersionId>> {
    let d = tmd.dimension(dim)?;
    Ok(d.snapshot(t)
        .members()
        .iter()
        .copied()
        .filter(|&id| {
            d.version(id)
                .map(|v| v.level.as_deref() == Some("Department"))
                .unwrap_or(false)
        })
        .collect())
}

#[allow(clippy::too_many_arguments)]
fn evolve_period(
    tmd: &mut Tmd,
    dim: DimensionId,
    divisions: &[MemberVersionId],
    boundary: Instant,
    config: &WorkloadConfig,
    rng: &mut Rng,
    stats: &mut WorkloadStats,
    dept_counter: &mut usize,
) -> Result<()> {
    let before = boundary.pred();
    let mut live = live_departments(tmd, dim, before)?;
    rng.shuffle(&mut live);
    // Members already consumed by an event this period.
    let mut consumed: Vec<MemberVersionId> = Vec::new();

    for &dept in &live {
        if consumed.contains(&dept) {
            continue;
        }
        let roll: f64 = rng.f64_unit();
        let parents = tmd.dimension(dim)?.parents_at(dept, before);
        if roll < config.split_prob {
            let a = format!("Dept{}", *dept_counter);
            let b = format!("Dept{}", *dept_counter + 1);
            *dept_counter += 2;
            let share = rng.f64_in(0.2, 0.8);
            evolution::split(
                tmd,
                dim,
                dept,
                &[
                    SplitPart::proportional(a, share, 1),
                    SplitPart::proportional(b, 1.0 - share, 1),
                ],
                boundary,
                &parents,
            )?;
            consumed.push(dept);
            stats.splits += 1;
        } else if roll < config.split_prob + config.merge_prob {
            // Find a partner not yet consumed.
            let partner = live
                .iter()
                .copied()
                .find(|&o| o != dept && !consumed.contains(&o));
            if let Some(other) = partner {
                let name = format!("Dept{}", *dept_counter);
                *dept_counter += 1;
                evolution::merge(
                    tmd,
                    dim,
                    &[
                        MergeSource::with_share(dept, 0.5, 1),
                        MergeSource::with_share(other, 0.5, 1),
                    ],
                    name,
                    Some("Department".into()),
                    boundary,
                    &parents,
                )?;
                consumed.push(dept);
                consumed.push(other);
                stats.merges += 1;
            }
        } else if roll < config.split_prob + config.merge_prob + config.reclassify_prob {
            let target = *rng.choose(divisions).expect("at least one division");
            if !parents.contains(&target) {
                evolution::reclassify(tmd, dim, dept, boundary, &parents, &[target])?;
                stats.reclassifications += 1;
            }
        } else if roll
            < config.split_prob + config.merge_prob + config.reclassify_prob + config.delete_prob
        {
            // Keep the organisation alive.
            if live.len() - consumed.len() > 2 {
                evolution::delete(tmd, dim, dept, boundary)?;
                consumed.push(dept);
                stats.deletions += 1;
            }
        }
    }
    if rng.f64_unit() < config.create_prob * live.len() as f64 {
        let parent = *rng.choose(divisions).expect("at least one division");
        let name = format!("Dept{}", *dept_counter);
        *dept_counter += 1;
        evolution::create(
            tmd,
            dim,
            name,
            Some("Department".into()),
            boundary,
            &[parent],
        )?;
        stats.creations += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::small(42);
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.tmd.facts().len(), b.tmd.facts().len());
        assert_eq!(
            a.tmd.dimension(a.dim).unwrap().versions().len(),
            b.tmd.dimension(b.dim).unwrap().versions().len()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&WorkloadConfig::small(1)).unwrap();
        let b = generate(&WorkloadConfig::small(2)).unwrap();
        // Extremely unlikely to coincide exactly.
        assert!(a.stats != b.stats || a.tmd.facts().len() != b.tmd.facts().len());
    }

    #[test]
    fn frozen_config_generates_no_evolutions() {
        let w = generate(&WorkloadConfig::small(7).frozen()).unwrap();
        assert_eq!(w.stats.splits, 0);
        assert_eq!(w.stats.merges, 0);
        assert_eq!(w.stats.reclassifications, 0);
        assert_eq!(w.stats.deletions, 0);
        assert_eq!(w.stats.creations, 0);
        // Exactly one structure version: nothing ever changed.
        assert_eq!(w.tmd.structure_versions().len(), 1);
        assert_eq!(w.tmd.facts().len(), 4 * 10 * 4);
    }

    #[test]
    fn evolving_config_creates_structure_versions() {
        let mut cfg = WorkloadConfig::small(11);
        cfg.split_prob = 0.5;
        cfg.reclassify_prob = 0.3;
        let w = generate(&cfg).unwrap();
        assert!(w.stats.splits > 0, "stats: {:?}", w.stats);
        assert!(w.tmd.structure_versions().len() > 1);
        // The multiversion fact table is inferable end to end.
        let seq = mvolap_core::ExecContext::sequential();
        let memo = mvolap_core::QueryMemo::new();
        let mv = mvolap_core::MultiVersionFactTable::infer_par(&w.tmd, &seq, &memo).unwrap();
        assert!(mv.total_rows() >= w.tmd.facts().len());
    }

    #[test]
    fn facts_land_on_valid_leaves() {
        // add_fact validates leaf/validity internally; generation
        // succeeding at higher evolution rates exercises that path.
        let mut cfg = WorkloadConfig::small(5);
        cfg.split_prob = 0.3;
        cfg.merge_prob = 0.2;
        cfg.delete_prob = 0.1;
        cfg.periods = 6;
        let w = generate(&cfg).unwrap();
        assert!(!w.tmd.facts().is_empty());
        assert_eq!(w.stats.facts, w.tmd.facts().len());
    }

    #[test]
    fn scaling_knobs_scale() {
        let small = generate(&WorkloadConfig::small(3).with_departments(5)).unwrap();
        let large = generate(&WorkloadConfig::small(3).with_departments(50)).unwrap();
        assert!(large.tmd.facts().len() > small.tmd.facts().len());
        let long = generate(&WorkloadConfig::small(3).with_periods(8)).unwrap();
        let short = generate(&WorkloadConfig::small(3).with_periods(2)).unwrap();
        assert!(long.tmd.facts().len() > short.tmd.facts().len());
    }
}
