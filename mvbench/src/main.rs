//! `mvbench` — the benchmark of the served warehouse.
//!
//! ```text
//! mvbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!         [--smoke] [--out DIR] [--record FILE]
//! mvbench compare A.jsonl B.jsonl
//! ```
//!
//! Generates a workload's inputs from the seed, stands the real servers
//! up on loopback sockets with the shipped defaults, drives them through
//! `SessionClient`, checks every output, and prints every metric by name
//! with its unit; the last line of standard output is the result as one
//! JSON object. See `README.md` beside this package.

mod compare;
mod drive;
mod engine;
mod json;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{RunResult, Sizing};
use spec::{MetricSpec, Spec};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        record: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_owned()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--record" => args.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The declared metrics of one mode as the result object's `metrics`,
/// each with its unit. A per-layer metric the run did not produce reads
/// 0 — the workload's script never entered that layer; an end-to-end
/// metric must be there.
fn declared_metrics(
    declared: &[MetricSpec],
    result: &RunResult,
    required: bool,
) -> Result<Json, String> {
    declared
        .iter()
        .map(|d| {
            let value = match result.metrics.get(&d.name) {
                Some(v) => *v,
                None if required => return Err(format!("metric `{}` was not measured", d.name)),
                None => 0.0,
            };
            let cell = Json::Obj(vec![
                ("value".to_owned(), Json::Num(value)),
                ("unit".to_owned(), Json::Str(d.unit.clone())),
            ]);
            Ok((d.name.clone(), cell))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Json::Obj)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one workload in one mode and prints its metrics; returns the
/// driver's result object.
fn run_one(
    spec: &Spec,
    w: &Workload,
    args: &Args,
    sizing: &Sizing,
    trace: bool,
) -> Result<Json, String> {
    let (result, declared) = if trace {
        let r = run::trace(w, args.seed, sizing, args.out.as_deref())?;
        (r, &spec.per_layer)
    } else {
        (run::measure(w, args.seed, sizing)?, &spec.end_to_end)
    };
    let metrics = declared_metrics(declared, &result, !trace)?;

    println!(
        "== {} (seed {}, {} s, {}; {} clients, host_cpus {}) ==",
        w.name,
        args.seed,
        sizing.seconds,
        if trace { "traced replay" } else { "untraced" },
        result.clients,
        host_cpus()
    );
    println!("input_digest {:#018x}", result.input_digest);
    for (name, cell) in metrics.as_obj() {
        println!(
            "{name:<36} {:>16.4} {}",
            cell.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            cell.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    println!(
        "ops_attempted {}  ops_failed {}  correct {}",
        result.attempted, result.failed, result.correct
    );
    for note in &result.notes {
        println!("{note}");
    }

    let outcome = vec![
        ("correct".to_owned(), Json::Bool(result.correct)),
        ("attempted".to_owned(), Json::Num(result.attempted as f64)),
        ("failed".to_owned(), Json::Num(result.failed as f64)),
        ("metrics".to_owned(), metrics),
    ];
    if let Some(path) = &args.record {
        let mut record = vec![
            ("workload".to_owned(), Json::Str(w.name.to_owned())),
            ("seed".to_owned(), Json::Num(args.seed as f64)),
            ("trace".to_owned(), Json::Bool(trace)),
            ("host_cpus".to_owned(), Json::Num(host_cpus() as f64)),
        ];
        record.extend(outcome.iter().cloned());
        let line = Json::Obj(record).render() + "\n";
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Json::Obj(outcome))
}

fn run_suite(spec: &Spec, args: &Args) -> Result<bool, String> {
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![Workload::by_name(name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; one of {}", names.join(", "))
        })?],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "flush policy: real fsync on this directory's disk; message delay: loopback only, \
         so latency is processor time"
    );
    let sizing = match (args.smoke, args.seconds) {
        (true, _) => Sizing::smoke(),
        (false, seconds) => Sizing::full(seconds.unwrap_or(spec.run_seconds)),
    };
    // A smoke run covers both modes; otherwise `--trace` picks one.
    let modes: &[bool] = if args.smoke {
        &[false, true]
    } else {
        &[args.trace]
    };
    let (mut runs, mut failed) = (0u64, 0.0);
    let mut all_correct = true;
    for w in &selected {
        for &trace in modes {
            let result = run_one(spec, w, args, &sizing, trace)?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            runs += 1;
            println!("{}", result.render());
        }
    }
    // One run ends on its own result object; a suite ends on a summary.
    if runs > 1 {
        let summary = Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(all_correct)),
            ("runs".to_owned(), Json::Num(runs as f64)),
            ("failed".to_owned(), Json::Num(failed)),
        ]);
        println!("{}", summary.render());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => compare::compare(&spec, a, b).map(|worse| !worse),
            _ => Err("usage: mvbench compare A.jsonl B.jsonl".to_owned()),
        }
    } else {
        parse_args(&argv).and_then(|args| run_suite(&spec, &args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mvbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The whole suite at a hundredth of its size: every workload in
    /// both modes passes its correctness checks with no failed
    /// operation, every end-to-end metric is emitted non-zero, and
    /// between them the workloads produce every per-layer metric
    /// `BENCHMARK.json` declares — and nothing it does not declare.
    #[test]
    fn smoke_suite_emits_every_declared_metric() {
        let spec = Spec::load();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names, "BENCHMARK.json lists the workloads");
        let sizing = Sizing::smoke();
        let declared: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let mut produced = BTreeSet::new();
        for w in &WORKLOADS {
            let run = run::measure(w, DEFAULT_SEED, &sizing).expect(w.name);
            assert!(
                run.correct && run.failed == 0,
                "{}: {:?}",
                w.name,
                run.notes
            );
            assert!(run.attempted > 0);
            let metrics = declared_metrics(&spec.end_to_end, &run, true).expect(w.name);
            for (name, cell) in metrics.as_obj() {
                assert!(
                    cell.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                    "{name}"
                );
                assert!(!cell.get("unit").and_then(Json::as_str).unwrap().is_empty());
            }
            assert_eq!(
                run.metrics.len(),
                spec.end_to_end.len(),
                "{:?}",
                run.metrics
            );

            let traced = run::trace(w, DEFAULT_SEED, &sizing, None).expect(w.name);
            assert!(
                traced.correct && traced.failed == 0,
                "{}: {:?}",
                w.name,
                traced.notes
            );
            for name in traced.metrics.keys() {
                assert!(declared.contains(name.as_str()), "`{name}` is not declared");
                produced.insert(name.clone());
            }
        }
        for name in declared {
            assert!(produced.contains(name), "no workload produced `{name}`");
        }
    }
}
