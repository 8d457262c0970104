//! The five workloads: the warehouse each serves, and the traffic each
//! generates from the seed — the order of the query mix, the commit
//! streams and the maintainer's evolution script.

use mvolap_core::evolution::{MergeSource, SplitPart};
use mvolap_core::{DimensionId, MappingFunction, MemberVersionId, Tmd};
use mvolap_durable::{FactRow, WalRecord};
use mvolap_prng::Rng;
use mvolap_temporal::Instant;
use mvolap_workload::{generate, WorkloadConfig};

use crate::stats::Fnv;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2003;

/// The seed every warehouse is generated from. `--seed` drives the
/// traffic, not the warehouse: generated per seed, `serve_small`'s ten
/// departments over four periods come out with two to four structure
/// versions and 140 to 220 facts by chance, and its median query time
/// differed by 30% between seeds — the benchmark would compare
/// warehouses, not programs.
const WAREHOUSE_SEED: u64 = 2003;

/// Maintainer commit rate on `evolve_mixed`, per second. Fixed so the
/// rate at which operators drop the query memo does not depend on how
/// fast commits are.
pub const MAINTAINER_RATE: u64 = 25;
/// Every this-many-th maintainer record is an evolution operator.
pub const OPERATOR_EVERY: usize = 8;
/// Maintainer records sent closed-loop before timing starts.
pub const MAINTAINER_WARMUP: usize = 8;
/// Commits each committer sends before timing starts.
pub const COMMIT_WARMUP: usize = 2;

/// What traffic a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two closed-loop clients cycling the query mix.
    Query,
    /// An open-loop maintainer beside one closed-loop analyst.
    Mixed,
    /// Closed-loop committers against one node.
    CommitLocal,
    /// One closed-loop committer against a three-node quorum group.
    CommitQuorum,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    config: fn(u64) -> WorkloadConfig,
    /// FNV-1a digest of the generated warehouse and the query mix: a
    /// later edit to `crates/workload` or to this file that changes
    /// them would silently change what every recorded number means, so
    /// the run refuses instead.
    pub pinned_digest: u64,
}

fn warehouse_13k(seed: u64) -> WorkloadConfig {
    WorkloadConfig::small(seed)
        .with_departments(100)
        .with_periods(6)
        .with_facts_per_department(20)
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_small",
        kind: Kind::Query,
        config: WorkloadConfig::small,
        pinned_digest: 0x0d76_5d7f_504d_1153,
    },
    Workload {
        name: "scan_large",
        kind: Kind::Query,
        config: |seed| {
            WorkloadConfig::small(seed)
                .with_departments(200)
                .with_periods(8)
                .with_facts_per_department(60)
        },
        pinned_digest: 0x27a8_e3cd_63f9_27c5,
    },
    Workload {
        name: "evolve_mixed",
        kind: Kind::Mixed,
        config: warehouse_13k,
        pinned_digest: 0x63ba_46ec_c656_cbde,
    },
    Workload {
        name: "commit_local",
        kind: Kind::CommitLocal,
        config: warehouse_13k,
        pinned_digest: 0x63ba_46ec_c656_cbde,
    },
    Workload {
        name: "commit_quorum3",
        kind: Kind::CommitQuorum,
        config: warehouse_13k,
        pinned_digest: 0x63ba_46ec_c656_cbde,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// Everything a run derives from `(workload, seed)`.
pub struct Inputs {
    pub tmd: Tmd,
    /// The 12-template query mix.
    pub queries: Vec<String>,
    /// Departments that take the committed facts: live for the whole of
    /// `fact_year`.
    pub leaves: Vec<MemberVersionId>,
    pub fact_year: i32,
    /// `evolve_mixed` only: the maintainer's records in send order.
    pub script: Vec<WalRecord>,
    /// The schema after every script record — what the server's schema
    /// must equal at the end of `evolve_mixed`.
    pub shadow: Tmd,
    /// Digest of the warehouse and the query mix (the same at every
    /// seed).
    pub digest: u64,
    /// Seconds spent in `mvolap_workload::generate`.
    pub generate_s: f64,
}

/// Generates a workload's inputs. `script_len` sizes the maintainer's
/// script (ignored by the other kinds).
pub fn inputs(w: &Workload, seed: u64, script_len: usize) -> Inputs {
    let config = (w.config)(WAREHOUSE_SEED);
    let started = std::time::Instant::now();
    let generated = generate(&config).expect("workload generation is valid for every seed");
    let generate_s = started.elapsed().as_secs_f64();
    let tmd = generated.tmd;
    let dim = generated.dim;

    let last_year = 2001 + config.periods as i32 - 1;
    let leaves = departments_at(&tmd, dim, Instant::ym(last_year, 6));
    let queries = query_mix(&tmd, last_year);

    let (script, shadow) = if w.kind == Kind::Mixed {
        maintainer_script(&tmd, dim, &leaves, last_year, seed, script_len)
    } else {
        (Vec::new(), tmd.clone())
    };

    let mut h = Fnv::new();
    let mut image = Vec::new();
    mvolap_core::persist::write_tmd(&tmd, &mut image).expect("in-memory write");
    h.write(&image);
    for q in &queries {
        h.write(q.as_bytes());
    }

    Inputs {
        tmd,
        queries,
        leaves,
        fact_year: last_year,
        script,
        shadow,
        digest: h.finish(),
        generate_s,
    }
}

fn departments_at(tmd: &Tmd, dim: DimensionId, t: Instant) -> Vec<MemberVersionId> {
    let d = tmd.dimension(dim).expect("generated dimension");
    d.snapshot(t)
        .members()
        .iter()
        .copied()
        .filter(|&id| {
            d.version(id)
                .is_ok_and(|v| v.level.as_deref() == Some("Department"))
        })
        .collect()
}

/// The query mix every reading client cycles: each temporal mode of
/// presentation (tcm, a structure version by index and by instant, all
/// modes at once), both hierarchy levels, two time grains, a year range
/// and a slice. One template in twelve is `IN ALL MODES`, which
/// evaluates once per mode and is the mix's slow class.
fn query_mix(tmd: &Tmd, last_year: i32) -> Vec<String> {
    let versions = tmd.structure_versions().len();
    let last = versions - 1;
    let mid = versions / 2;
    let mid_year = (2001 + last_year) / 2;
    vec![
        "SELECT sum(Amount) BY year, Org.Division IN MODE tcm".to_owned(),
        "SELECT sum(Amount) BY year, Org.Department IN MODE tcm".to_owned(),
        format!("SELECT sum(Amount) BY year, Org.Division IN MODE VERSION {last}"),
        format!("SELECT sum(Amount) BY year, Org.Department IN MODE VERSION {mid}"),
        format!("SELECT sum(Amount) BY year, Org.Division IN MODE AT 06/{mid_year}"),
        "SELECT sum(Amount) BY quarter, Org.Division IN MODE tcm".to_owned(),
        format!(
            "SELECT sum(Amount) BY quarter, Org.Department FOR 2001..{mid_year} IN MODE VERSION 0"
        ),
        format!("SELECT sum(Amount) BY Org.Division IN MODE VERSION {mid}"),
        format!(
            "SELECT sum(Amount) BY year, Org.Department FOR {mid_year}..{last_year} \
             IN MODE AT 01/{last_year}"
        ),
        "SELECT sum(Amount) BY year, Org.Department WHERE Org.Division = 'Div0' IN MODE tcm"
            .to_owned(),
        format!("SELECT sum(Amount) BY year IN MODE VERSION {last}"),
        format!("SELECT sum(Amount) BY year, Org.Division FOR 2001..{last_year} IN ALL MODES"),
    ]
}

/// The order one client sends the mix in: a fresh seeded permutation
/// per cycle, so every cycle holds each template exactly once and the
/// share of the slow class is the same in every run.
pub struct QueryOrder {
    rng: Rng,
    perm: Vec<usize>,
}

impl QueryOrder {
    pub fn new(seed: u64, client: usize, templates: usize) -> QueryOrder {
        QueryOrder {
            rng: client_rng(seed, client),
            perm: (0..templates).collect(),
        }
    }

    pub fn next_cycle(&mut self) -> &[usize] {
        self.rng.shuffle(&mut self.perm);
        &self.perm
    }
}

fn client_rng(seed: u64, client: usize) -> Rng {
    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client as u64 + 1))
}

/// One client's endless stream of single-row fact batches — the
/// smallest real journaled write.
pub struct FactStream {
    rng: Rng,
    leaves: Vec<MemberVersionId>,
    year: i32,
}

impl FactStream {
    pub fn new(seed: u64, client: usize, leaves: &[MemberVersionId], year: i32) -> Self {
        FactStream {
            rng: client_rng(seed ^ 0xFAC7, client),
            leaves: leaves.to_vec(),
            year,
        }
    }

    /// The next record. Amounts are whole numbers, so their sum is exact
    /// in any commit order.
    pub fn next_record(&mut self) -> WalRecord {
        let leaf = *self.rng.choose(&self.leaves).expect("live departments");
        let amount = self.rng.f64_in(10.0, 200.0).round();
        let at = Instant::ym(self.year, self.rng.u32_in(1, 12));
        WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![leaf],
                at,
                values: vec![amount],
            }],
        }
    }
}

/// Builds the maintainer's script: fact batches with a valid Table-11
/// operator every [`OPERATOR_EVERY`] records, all operators taking
/// effect at the boundary after the last generated year — one
/// reorganisation, hence one new structure version, however long the
/// run is (a version per operator would make query cost grow through
/// the run). Every record is applied to a shadow schema as it is
/// generated, so the script is valid by construction and the shadow is
/// the expected final state.
fn maintainer_script(
    tmd: &Tmd,
    dim: DimensionId,
    leaves: &[MemberVersionId],
    last_year: i32,
    seed: u64,
    len: usize,
) -> (Vec<WalRecord>, Tmd) {
    let mut shadow = tmd.clone();
    let mut rng = client_rng(seed ^ 0xE701, 0);
    let mut facts = FactStream::new(seed, 0, leaves, last_year);
    let boundary = Instant::ym(last_year + 1, 1);
    let before = boundary.pred();
    let divisions: Vec<MemberVersionId> = {
        let d = tmd.dimension(dim).expect("generated dimension");
        d.snapshot(before)
            .members()
            .iter()
            .copied()
            .filter(|&id| {
                d.version(id)
                    .is_ok_and(|v| v.level.as_deref() == Some("Division"))
            })
            .collect()
    };
    // Each department takes part in at most one structural operator.
    let mut pool = leaves.to_vec();
    rng.shuffle(&mut pool);
    let measures = tmd.measures().len();
    let department = Some("Department".to_owned());

    let mut script = Vec::with_capacity(len);
    let mut operators = 0usize;
    for i in 0..len {
        let record = if (i + 1) % OPERATOR_EVERY != 0 {
            facts.next_record()
        } else {
            operators += 1;
            let name = format!("Evo{operators}");
            let parents_of = |id| {
                shadow
                    .dimension(dim)
                    .expect("generated dimension")
                    .parents_at(id, before)
            };
            let structural = match operators % 5 {
                1 => pool.pop().and_then(|id| {
                    let old_parents = parents_of(id);
                    let target = divisions.iter().find(|d| !old_parents.contains(d))?;
                    Some(WalRecord::Reclassify {
                        dim,
                        id,
                        at: boundary,
                        old_parents,
                        new_parents: vec![*target],
                    })
                }),
                2 => pool.pop().map(|source| {
                    let share = rng.f64_in(0.2, 0.8);
                    WalRecord::Split {
                        dim,
                        source,
                        parts: vec![
                            SplitPart::proportional(format!("{name}a"), share, measures),
                            SplitPart::proportional(format!("{name}b"), 1.0 - share, measures),
                        ],
                        at: boundary,
                        parents: parents_of(source),
                    }
                }),
                3 if pool.len() >= 2 => {
                    let (a, b) = (pool.pop().expect("len >= 2"), pool.pop().expect("len >= 2"));
                    Some(WalRecord::Merge {
                        dim,
                        sources: vec![
                            MergeSource::with_share(a, 0.5, measures),
                            MergeSource::with_share(b, 0.5, measures),
                        ],
                        new_name: name.clone(),
                        level: department.clone(),
                        at: boundary,
                        parents: parents_of(a),
                    })
                }
                4 => revise_confidence(&shadow, dim, &mut rng),
                _ => None,
            };
            // `Create` is always possible: it is the fifth operator and
            // the fallback once the departments are used up.
            structural.unwrap_or_else(|| WalRecord::Create {
                dim,
                name,
                level: department.clone(),
                at: boundary,
                parents: vec![*rng.choose(&divisions).expect("a division")],
            })
        };
        record
            .apply(&mut shadow)
            .unwrap_or_else(|e| panic!("script record {i} ({}) is invalid: {e}", record.kind()));
        script.push(record);
    }
    (script, shadow)
}

/// A `Confidence` record re-weighing the scaled side of a random
/// existing mapping relationship (knowledge about a past split or merge
/// improving), or `None` when no relationship has one.
fn revise_confidence(shadow: &Tmd, dim: DimensionId, rng: &mut Rng) -> Option<WalRecord> {
    let rels = shadow.mapping_graph(dim).ok()?.relationships();
    let start = rng.usize_below(rels.len().max(1));
    let rel = rels.iter().cycle().skip(start).take(rels.len()).find(|r| {
        r.forward
            .iter()
            .chain(&r.backward)
            .any(|m| matches!(m.func, MappingFunction::Scale(_)))
    })?;
    let k = rng.f64_in(0.2, 0.8);
    let rescale = |ms: &[mvolap_core::MeasureMapping]| {
        ms.iter()
            .map(|m| match m.func {
                MappingFunction::Scale(_) => mvolap_core::MeasureMapping {
                    func: MappingFunction::Scale(k),
                    ..*m
                },
                _ => *m,
            })
            .collect()
    };
    Some(WalRecord::Confidence {
        dim,
        from: rel.from,
        to: rel.to,
        forward: rescale(&rel.forward),
        backward: rescale(&rel.backward),
    })
}
