//! On-disk persistence of a whole temporal multidimensional schema.
//!
//! A line-oriented, dependency-free text format capturing everything the
//! Temporal Data Warehouse holds (§5.1): dimensions with member versions
//! and temporal relationships, measures, mapping relationships, the
//! consistent fact table, and the evolution log. Loading *replays* the
//! schema through the validated construction API, so a tampered file
//! cannot produce an inconsistent schema (cycles, dangling edges,
//! non-leaf facts are all re-checked).
//!
//! ```text
//! mvolap-tmd v1
//! schema <name> month
//! measure <name> sum
//! dimension <name>
//! version <dim> <id> <start> <end> <level|-> <name> [<k>=<v>]…
//! edge <dim> <child> <parent> <start> <end>
//! mapping <dim> <from> <to> <fwd>… | <bwd>…
//! fact <tick> <coord>… | <value>…
//! logent <dim> <tick> <operator> <subjects,…> <description>
//! ```
//!
//! Every line is space-separated tokens over [`crate::token`], which
//! owns the escapes (this format spells out `=` and carriage return on
//! top of the separators: [`Escapes::Line`]) and the instant, float and
//! mapping token forms.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};

use mvolap_temporal::{Granularity, Instant, Interval};

use crate::dimension::TemporalDimension;
use crate::fact::{Aggregator, MeasureDef};
use crate::ids::{DimensionId, MemberVersionId};
use crate::mapping::MappingRelationship;
use crate::member::MemberVersionSpec;
use crate::metadata::EvolutionEntry;
use crate::schema::Tmd;
use crate::token::{unescape, Escapes, TokenError, TokenReader, TokenWriter};

/// Errors raised while reading the persisted format.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not in the expected format.
    Format {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Replaying the schema hit a model violation.
    Core(crate::CoreError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format { line, message } => {
                write!(f, "format error at line {line}: {message}")
            }
            PersistError::Core(e) => write!(f, "schema replay error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<crate::CoreError> for PersistError {
    fn from(e: crate::CoreError) -> Self {
        PersistError::Core(e)
    }
}

fn bad(line: usize, message: impl Into<String>) -> PersistError {
    PersistError::Format {
        line,
        message: message.into(),
    }
}

/// Serialises a schema into the text format.
pub fn write_tmd(tmd: &Tmd, out: &mut impl Write) -> Result<(), PersistError> {
    let mut w = TokenWriter::new(Escapes::Line);
    w.raw("mvolap-tmd").raw("v1").end_line();
    let gran = match tmd.granularity() {
        Granularity::Tick => "tick",
        Granularity::Month => "month",
        Granularity::Year => "year",
    };
    w.raw("schema").text(tmd.name()).raw(gran).end_line();
    for m in tmd.measures() {
        w.raw("measure").text(&m.name).raw(m.aggregator.name());
        w.end_line();
    }
    for (di, d) in tmd.dimensions().iter().enumerate() {
        w.raw("dimension").text(d.name()).end_line();
        for v in d.versions() {
            w.raw("version").raw(di).raw(v.id.0);
            w.instant(v.validity.start()).instant(v.validity.end());
            match v.level.as_deref() {
                None => w.raw("-"),
                // Spelled out, or it would read back as "no level".
                Some("-") => w.raw("\\x2d"),
                Some(level) => w.text(level),
            };
            w.text(&v.name);
            for (k, val) in &v.attributes {
                w.text(k).glue('=').text(val);
            }
            w.end_line();
        }
        for r in d.relationships() {
            w.raw("edge").raw(di).raw(r.child.0).raw(r.parent.0);
            w.instant(r.validity.start()).instant(r.validity.end());
            w.end_line();
        }
        let graph = tmd
            .mapping_graph(DimensionId(di as u32))
            .expect("dimension exists");
        for rel in graph.relationships() {
            w.raw("mapping").raw(di).raw(rel.from.0).raw(rel.to.0);
            for m in &rel.forward {
                w.mapping(m);
            }
            w.raw("|");
            for m in &rel.backward {
                w.mapping(m);
            }
            w.end_line();
        }
    }
    let facts = tmd.facts();
    for row in 0..facts.len() {
        w.raw("fact").instant(facts.time(row));
        for c in facts.row_coords(row) {
            w.raw(c.0);
        }
        w.raw("|");
        for v in facts.row_values(row) {
            w.f64(v);
        }
        w.end_line();
    }
    for e in tmd.evolution_log().entries() {
        let subjects: Vec<String> = e.subjects.iter().map(|s| s.0.to_string()).collect();
        w.raw("logent").raw(e.dimension.0).instant(e.at);
        w.raw(e.operator).raw(subjects.join(","));
        w.text(&e.description).end_line();
    }
    out.write_all(&w.finish())?;
    Ok(())
}

/// One parsed line of the format.
enum Directive {
    Schema(String, Granularity),
    Measure(MeasureDef),
    Dimension(String),
    Version {
        dim: DimensionId,
        id: u32,
        spec: MemberVersionSpec,
        span: (Instant, Instant),
    },
    Edge {
        dim: DimensionId,
        child: MemberVersionId,
        parent: MemberVersionId,
        span: (Instant, Instant),
    },
    Mapping(DimensionId, MappingRelationship),
    Fact(Instant, Vec<MemberVersionId>, Vec<f64>),
    Log(EvolutionEntry),
}

fn parse_line(line: &str) -> Result<Directive, TokenError> {
    let mut r = TokenReader::new(line);
    let id = |r: &mut TokenReader| r.parse("member version id").map(MemberVersionId);
    let dim = |r: &mut TokenReader| r.parse("dimension index").map(DimensionId);
    let text = |s: &str| unescape(s).and_then(|bytes| String::from_utf8(bytes).ok());
    let directive = match r.token()? {
        "schema" => {
            let name = r.text()?;
            let gran = match r.token()? {
                "tick" => Granularity::Tick,
                "month" => Granularity::Month,
                "year" => Granularity::Year,
                g => return Err(r.bad("granularity", g)),
            };
            Directive::Schema(name, gran)
        }
        "measure" => {
            let name = r.text()?;
            let agg = r.token()?;
            let aggregator = Aggregator::parse(agg).ok_or_else(|| r.bad("aggregator", agg))?;
            Directive::Measure(MeasureDef { name, aggregator })
        }
        "dimension" => Directive::Dimension(r.text()?),
        "version" => {
            let dim = dim(&mut r)?;
            let id = r.parse("version id")?;
            let span = (r.instant()?, r.instant()?);
            let level = match r.token()? {
                "-" => None,
                level => Some(text(level).ok_or_else(|| r.bad("level", level))?),
            };
            let name = r.text()?;
            let mut attributes = BTreeMap::new();
            while r.peek().is_some() {
                let kv = r.token()?;
                let (k, v) = kv
                    .split_once('=')
                    .and_then(|(k, v)| Some((text(k)?, text(v)?)))
                    .ok_or_else(|| r.bad("attribute", kv))?;
                attributes.insert(k, v);
            }
            let spec = MemberVersionSpec {
                name,
                attributes,
                level,
            };
            Directive::Version {
                dim,
                id,
                spec,
                span,
            }
        }
        "edge" => Directive::Edge {
            dim: dim(&mut r)?,
            child: id(&mut r)?,
            parent: id(&mut r)?,
            span: (r.instant()?, r.instant()?),
        },
        "mapping" => {
            let dim = dim(&mut r)?;
            let (from, to) = (id(&mut r)?, id(&mut r)?);
            let mut forward = Vec::new();
            while r.peek() != Some("|") {
                forward.push(r.mapping()?);
            }
            r.token()?;
            let mut backward = Vec::new();
            while r.peek().is_some() {
                backward.push(r.mapping()?);
            }
            let rel = MappingRelationship {
                from,
                to,
                forward,
                backward,
            };
            Directive::Mapping(dim, rel)
        }
        "fact" => {
            let t = r.instant()?;
            let mut coords = Vec::new();
            while r.peek() != Some("|") {
                coords.push(id(&mut r)?);
            }
            r.token()?;
            let mut values = Vec::new();
            while r.peek().is_some() {
                values.push(r.f64()?);
            }
            Directive::Fact(t, coords, values)
        }
        "logent" => {
            let dimension = dim(&mut r)?;
            let at = r.instant()?;
            let operator = match r.token()? {
                "insert" => "insert",
                "exclude" => "exclude",
                "associate" => "associate",
                "reclassify" => "reclassify",
                "confidence" => "confidence",
                _ => "evolution",
            };
            let list = r.token()?;
            let subjects = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().map(MemberVersionId))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| r.bad("subject list", list))?;
            Directive::Log(EvolutionEntry {
                dimension,
                at,
                operator,
                subjects,
                description: r.text()?,
            })
        }
        other => return Err(r.bad("directive", other)),
    };
    r.finish()?;
    Ok(directive)
}

/// The schema under construction; `schema` must come before what fills it.
fn started(tmd: &mut Option<Tmd>, line: usize) -> Result<&mut Tmd, PersistError> {
    tmd.as_mut()
        .ok_or_else(|| bad(line, "directive before `schema`"))
}

/// Deserialises a schema, replaying it through the validated API.
pub fn read_tmd(input: &mut impl Read) -> Result<Tmd, PersistError> {
    let mut lines = BufReader::new(input).lines().enumerate();

    let header = lines.next().ok_or_else(|| bad(1, "empty file"))?.1?;
    if header != "mvolap-tmd v1" {
        return Err(bad(1, format!("bad header `{header}`")));
    }

    let mut tmd: Option<Tmd> = None;
    // Edges, mappings, facts and the log replay after all versions
    // exist; buffer them.
    let mut edges = Vec::new();
    let mut mappings = Vec::new();
    let mut facts = Vec::new();
    let mut log = Vec::new();

    for (idx, line) in lines {
        let n = idx + 1;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let validity = |(start, end)| {
            Interval::new(start, end).map_err(|e| bad(n, format!("bad validity: {e}")))
        };
        match parse_line(&line).map_err(|e| bad(n, e.to_string()))? {
            Directive::Schema(name, gran) => tmd = Some(Tmd::new(name, gran)),
            Directive::Measure(def) => started(&mut tmd, n)?.add_measure(def).map(|_| ())?,
            Directive::Dimension(name) => {
                let dimension = TemporalDimension::new(name);
                started(&mut tmd, n)?.add_dimension(dimension).map(|_| ())?;
            }
            Directive::Version {
                dim,
                id,
                spec,
                span,
            } => {
                let assigned = started(&mut tmd, n)?.add_version(dim, spec, validity(span)?)?;
                if assigned.0 != id {
                    return Err(bad(
                        n,
                        format!(
                            "version ids must be dense and ordered: expected {id}, got {}",
                            assigned.0
                        ),
                    ));
                }
            }
            Directive::Edge {
                dim,
                child,
                parent,
                span,
            } => edges.push((n, dim, child, parent, validity(span)?)),
            Directive::Mapping(dim, rel) => mappings.push((dim, rel)),
            Directive::Fact(t, coords, values) => facts.push((t, coords, values)),
            Directive::Log(entry) => log.push(entry),
        }
    }

    let mut tmd = tmd.ok_or_else(|| bad(1, "missing `schema` directive"))?;
    for (line, dim, child, parent, validity) in edges {
        tmd.add_relationship(dim, child, parent, validity)
            .map_err(|err| bad(line, format!("edge replay failed: {err}")))?;
    }
    for (dim, rel) in mappings {
        tmd.add_mapping(dim, rel)?;
    }
    for (t, coords, values) in facts {
        tmd.add_fact(&coords, t, &values)?;
    }
    for e in log {
        tmd.record_evolution(e);
    }
    Ok(tmd)
}

/// Saves a schema to a file, atomically: the snapshot is written to a
/// sibling temp file, fsync'd, and renamed over `path`, so a crash
/// mid-save can never truncate or corrupt an existing snapshot — the old
/// file survives intact until the new one is durably complete.
pub fn save_tmd(tmd: &Tmd, path: &std::path::Path) -> Result<(), PersistError> {
    let mut file_name = path.file_name().unwrap_or_default().to_os_string();
    file_name.push(".tmp");
    let tmp = path.with_file_name(file_name);
    let mut f = std::fs::File::create(&tmp)?;
    if let Err(e) = write_tmd(tmd, &mut f).and_then(|()| f.sync_all().map_err(PersistError::from)) {
        drop(f);
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    Ok(())
}

/// Loads a schema from a file.
pub fn load_tmd(path: &std::path::Path) -> Result<Tmd, PersistError> {
    let mut f = std::fs::File::open(path)?;
    read_tmd(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::{case_study, case_study_two_measures};
    use crate::evolution;

    fn roundtrip(tmd: &Tmd) -> Tmd {
        let mut buf = Vec::new();
        write_tmd(tmd, &mut buf).expect("write");
        read_tmd(&mut buf.as_slice()).expect("read")
    }

    #[test]
    fn case_study_roundtrips() {
        let cs = case_study();
        let back = roundtrip(&cs.tmd);
        assert_eq!(back.name(), cs.tmd.name());
        assert_eq!(back.dimensions().len(), 1);
        assert_eq!(back.measures().len(), 1);
        assert_eq!(back.facts().len(), 10);
        assert_eq!(
            back.mapping_graph(cs.org).unwrap().relationships(),
            cs.tmd.mapping_graph(cs.org).unwrap().relationships()
        );
        // Structure versions re-infer identically.
        assert_eq!(back.structure_versions(), cs.tmd.structure_versions());
        // Dimension content matches.
        let (a, b) = (
            cs.tmd.dimension(cs.org).unwrap(),
            back.dimension(cs.org).unwrap(),
        );
        assert_eq!(a.versions(), b.versions());
        assert_eq!(a.relationships().len(), b.relationships().len());
    }

    #[test]
    fn queries_agree_after_roundtrip() {
        let cs = case_study_two_measures();
        let back = roundtrip(&cs.tmd);
        let q = crate::AggregateQuery::by_year(
            cs.org,
            "Department",
            crate::TemporalMode::Version(crate::StructureVersionId(2)),
        );
        let svs_a = cs.tmd.structure_versions();
        let svs_b = back.structure_versions();
        let seq = crate::ExecContext::sequential();
        let ra = crate::evaluate_par(&cs.tmd, &svs_a, &q, &seq, &crate::QueryMemo::new());
        let rb = crate::evaluate_par(&back, &svs_b, &q, &seq, &crate::QueryMemo::new());
        let (ra, rb) = (ra.expect("evaluates"), rb.expect("evaluates"));
        assert_eq!(ra.rows, rb.rows);
    }

    #[test]
    fn evolution_log_roundtrips() {
        let mut cs = case_study();
        evolution::delete(&mut cs.tmd, cs.org, cs.brian, Instant::ym(2005, 1)).expect("delete");
        let back = roundtrip(&cs.tmd);
        let entries = back.evolution_log().entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].operator, "exclude");
        assert!(entries[0].description.contains("Dpt.Brian"));
    }

    #[test]
    fn hostile_names_roundtrip() {
        let mut tmd = Tmd::new("name with spaces\nand=weird\\chars", Granularity::Month);
        let dim = tmd
            .add_dimension(TemporalDimension::new("dim name"))
            .unwrap();
        tmd.add_measure(MeasureDef::summed("m one")).unwrap();
        let all = Interval::since(Instant::ym(2001, 1));
        tmd.add_version(
            dim,
            MemberVersionSpec::named("member = tricky \\N")
                .at_level("level one")
                .with_attribute("key=", "va l"),
            all,
        )
        .unwrap();
        let back = roundtrip(&tmd);
        assert_eq!(back.name(), tmd.name());
        let v = &back.dimension(dim).unwrap().versions()[0];
        assert_eq!(v.name, "member = tricky \\N");
        assert_eq!(v.level.as_deref(), Some("level one"));
        assert_eq!(v.attributes.get("key=").map(String::as_str), Some("va l"));
    }

    #[test]
    fn replay_validates_tampered_files() {
        // A cycle smuggled into the file is rejected on load.
        let text = "mvolap-tmd v1\n\
                    schema t month\n\
                    dimension D\n\
                    version 0 0 0 now - A\n\
                    version 0 1 0 now - B\n\
                    edge 0 0 1 0 now\n\
                    edge 0 1 0 0 now\n";
        let err = read_tmd(&mut text.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format { line: 7, .. }), "{err}");
        // A fact on a non-leaf is rejected too.
        let text = "mvolap-tmd v1\n\
                    schema t month\n\
                    measure m sum\n\
                    dimension D\n\
                    version 0 0 0 now - A\n\
                    version 0 1 0 now - B\n\
                    edge 0 1 0 0 now\n\
                    fact 5 0 | 1.0\n";
        assert!(matches!(
            read_tmd(&mut text.as_bytes()),
            Err(PersistError::Core(
                crate::CoreError::CoordinateNotLeaf { .. }
            ))
        ));
    }

    #[test]
    fn malformed_lines_report_positions() {
        for (text, line) in [
            ("garbage", 1usize),
            ("mvolap-tmd v1\nmeasure m sum\n", 2),
            ("mvolap-tmd v1\nschema t month\nversion 0 0 0 now -\n", 3),
            ("mvolap-tmd v1\nschema t lightyear\n", 2),
        ] {
            match read_tmd(&mut text.as_bytes()) {
                Err(PersistError::Format { line: l, .. }) => assert_eq!(l, line, "{text}"),
                other => panic!("expected format error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let cs = case_study();
        let path = std::env::temp_dir().join(format!("mvolap_tmd_{}.tmd", std::process::id()));
        save_tmd(&cs.tmd, &path).expect("save");
        let back = load_tmd(&path).expect("load");
        assert_eq!(back.facts().len(), cs.tmd.facts().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("mvolap_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.tmd");
        let cs = case_study();
        save_tmd(&cs.tmd, &path).expect("first save");
        // Overwriting an existing snapshot goes through the temp file;
        // afterwards only the final file remains and it parses.
        save_tmd(&cs.tmd, &path).expect("second save");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["snapshot.tmd".to_owned()], "{names:?}");
        load_tmd(&path).expect("load");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every place a name can sit on a line — including last, where a
    /// bare trailing `\r` would be eaten by `BufRead::lines`.
    #[test]
    fn field_escaping_edge_cases_roundtrip() {
        for name in [
            "a=b",
            "==",
            "back\\slash",
            "\\e",
            "\\s",
            "\\0",
            " ",
            "\t",
            "\n",
            " \t\n=\\",
            "trailing ",
            "=leading",
            "",
            "Org\r",
            "\r",
            "a\r\nb",
        ] {
            let mut tmd = Tmd::new(name, Granularity::Month);
            let dim = tmd.add_dimension(TemporalDimension::new(name)).unwrap();
            tmd.add_measure(MeasureDef::summed(name)).unwrap();
            let id = tmd
                .add_version(
                    dim,
                    MemberVersionSpec::named(name).with_attribute(name, name),
                    Interval::since(Instant::ym(2001, 1)),
                )
                .unwrap();
            evolution::delete(&mut tmd, dim, id, Instant::ym(2005, 1)).unwrap();
            let mut image = Vec::new();
            write_tmd(&tmd, &mut image).unwrap();
            let back = read_tmd(&mut image.as_slice()).unwrap_or_else(|e| panic!("{name:?}: {e}"));
            assert_eq!(back.name(), name);
            assert_eq!(back.dimensions()[0].name(), name);
            assert_eq!(back.measures()[0].name, name);
            assert_eq!(
                back.dimension(dim).unwrap().versions(),
                tmd.dimension(dim).unwrap().versions()
            );
            assert_eq!(
                back.evolution_log().entries()[0].description,
                tmd.evolution_log().entries()[0].description
            );
            let mut again = Vec::new();
            write_tmd(&back, &mut again).unwrap();
            assert_eq!(again, image, "{name:?}");
        }
    }

    #[test]
    fn hostile_member_names_and_attributes_roundtrip_through_schema() {
        let mut tmd = Tmd::new("t", Granularity::Month);
        let dim = tmd
            .add_dimension(TemporalDimension::new("d=1 \\ two"))
            .unwrap();
        tmd.add_measure(MeasureDef::summed("m")).unwrap();
        let all = Interval::since(Instant::ym(2001, 1));
        for (i, name) in ["x=y", "a\\sb", "  ", "\\N", "lvl=\\"].iter().enumerate() {
            tmd.add_version(
                dim,
                MemberVersionSpec::named(*name)
                    .at_level(format!("L{i}= \\"))
                    .with_attribute("k=\\ ", "v=\t")
                    .with_attribute("", "="),
                all,
            )
            .unwrap();
        }
        let back = roundtrip(&tmd);
        let (a, b) = (tmd.dimension(dim).unwrap(), back.dimension(dim).unwrap());
        assert_eq!(a.versions(), b.versions());
        assert_eq!(back.dimensions()[0].name(), "d=1 \\ two");
    }
}
