//! Every operator kind replays from the log exactly as the model applies
//! it: each record encodes to the payload a store holds, decodes from it
//! and applies to one small schema; the matching `evolution::*` call runs
//! on a second copy; the two schemas must serialise to the same
//! `write_tmd` bytes.

use std::collections::BTreeMap;

use mvolap_core::evolution::{self, BasicOp, MergeSource, SplitPart};
use mvolap_core::fact::MeasureDef;
use mvolap_core::persist::write_tmd;
use mvolap_core::{
    DimensionId, MappingRelationship, MeasureMapping, MemberVersionId, MemberVersionSpec, Tmd,
};
use mvolap_durable::WalRecord;
use mvolap_temporal::{Granularity, Instant, Interval};

/// The ids of the one-dimension schema every record applies to.
pub struct Org {
    dim: DimensionId,
    p1: MemberVersionId,
    p2: MemberVersionId,
    v: [MemberVersionId; 4],
    old: MemberVersionId,
    new: MemberVersionId,
}

/// Two divisions; four departments under the first from 2001 on; one
/// department renamed at 2002 with its mapping already registered; two
/// measures and a few facts.
pub fn schema() -> (Tmd, Org) {
    let mut tmd = Tmd::new("replay", Granularity::Month);
    let mut d = mvolap_core::TemporalDimension::new("Org");
    let all = Interval::since(Instant::ym(2001, 1));
    let division = |name: &str| MemberVersionSpec::named(name).at_level("Division");
    let department = |name: &str| MemberVersionSpec::named(name).at_level("Department");
    let p1 = d.add_version(division("P1"), all);
    let p2 = d.add_version(division("P2"), all);
    let v = ["V1", "V2", "V3", "V4"].map(|name| d.add_version(department(name), all));
    let until_2002 = Interval::new(Instant::ym(2001, 1), Instant::ym(2001, 12)).unwrap();
    let since_2002 = Interval::since(Instant::ym(2002, 1));
    let old = d.add_version(department("V0"), until_2002);
    let new = d.add_version(department("V0n"), since_2002);
    for id in v {
        d.add_relationship(id, p1, all).unwrap();
    }
    d.add_relationship(old, p1, until_2002).unwrap();
    d.add_relationship(new, p1, since_2002).unwrap();
    let dim = tmd.add_dimension(d).unwrap();
    tmd.add_measure(MeasureDef::summed("Amount")).unwrap();
    tmd.add_measure(MeasureDef::summed("Count")).unwrap();
    tmd.add_mapping(dim, MappingRelationship::equivalence(old, new, 2))
        .unwrap();
    tmd.add_fact(&[v[0]], Instant::ym(2001, 3), &[100.0, 1.0])
        .unwrap();
    tmd.add_fact(&[old], Instant::ym(2001, 6), &[40.0, 2.0])
        .unwrap();
    tmd.add_fact(&[new], Instant::ym(2002, 6), &[60.0, 3.0])
        .unwrap();
    let org = Org {
        dim,
        p1,
        p2,
        v,
        old,
        new,
    };
    (tmd, org)
}

fn bytes(tmd: &Tmd) -> Vec<u8> {
    let mut out = Vec::new();
    write_tmd(tmd, &mut out).unwrap();
    out
}

type Direct = Box<dyn Fn(&mut Tmd, &Org)>;

/// One record of each of the ten operator kinds, beside the model call
/// it must replay as.
fn cases(o: &Org) -> Vec<(WalRecord, Direct)> {
    let at = Instant::ym(2003, 1);
    let [v1, v2, v3, v4] = o.v;
    let dim = o.dim;
    let attributes: BTreeMap<String, String> = [("budget".to_owned(), "high".to_owned())].into();
    let sources = vec![
        MergeSource::with_share(v1, 0.5, 2),
        MergeSource::with_unknown_share(v2, 2),
    ];
    let parts = vec![
        SplitPart::proportional("A", 0.4, 2),
        SplitPart::proportional("B", 0.6, 2),
    ];
    let rel = MappingRelationship::uniform(
        v3,
        v4,
        MeasureMapping::approx_scale(0.25),
        MeasureMapping::UNKNOWN,
        2,
    );
    let revised = vec![MeasureMapping::approx_scale(0.9); 2];
    vec![
        (
            WalRecord::Create {
                dim,
                name: "Vnew".into(),
                level: Some("Department".into()),
                at,
                parents: vec![o.p2],
            },
            Box::new(move |t, o| {
                let level = Some("Department".into());
                evolution::create(t, dim, "Vnew", level, at, &[o.p2]).unwrap();
            }),
        ),
        (
            WalRecord::Delete { dim, id: v3, at },
            Box::new(move |t, _| {
                evolution::delete(t, dim, v3, at).unwrap();
            }),
        ),
        (
            WalRecord::Transform {
                dim,
                id: v1,
                new_name: "V1'".into(),
                new_attributes: attributes.clone(),
                at,
            },
            Box::new(move |t, _| {
                evolution::transform(t, dim, v1, "V1'", attributes.clone(), at).unwrap();
            }),
        ),
        (
            WalRecord::Merge {
                dim,
                sources: sources.clone(),
                new_name: "V12".into(),
                level: None,
                at,
                parents: vec![o.p1],
            },
            Box::new(move |t, o| {
                evolution::merge(t, dim, &sources, "V12", None, at, &[o.p1]).unwrap();
            }),
        ),
        (
            WalRecord::Split {
                dim,
                source: v1,
                parts: parts.clone(),
                at,
                parents: vec![o.p2],
            },
            Box::new(move |t, o| {
                evolution::split(t, dim, v1, &parts, at, &[o.p2]).unwrap();
            }),
        ),
        (
            WalRecord::Reclassify {
                dim,
                id: v2,
                at: Instant::ym(2002, 6),
                old_parents: vec![o.p1],
                new_parents: vec![o.p2],
            },
            Box::new(move |t, o| {
                let at = Instant::ym(2002, 6);
                evolution::reclassify(t, dim, v2, at, &[o.p1], &[o.p2]).unwrap();
            }),
        ),
        (
            WalRecord::Associate {
                dim,
                rel: rel.clone(),
            },
            Box::new(move |t, _| {
                let rel = rel.clone();
                BasicOp::Associate { dim, rel }.apply(t).unwrap();
            }),
        ),
        (
            WalRecord::Confidence {
                dim,
                from: o.old,
                to: o.new,
                forward: revised.clone(),
                backward: revised.clone(),
            },
            Box::new(move |t, o| {
                let (f, b) = (revised.clone(), revised.clone());
                evolution::change_confidence(t, dim, o.old, o.new, f, b).unwrap();
            }),
        ),
        (
            WalRecord::Increase {
                dim,
                id: v4,
                new_name: "V4+".into(),
                factor: 2.0,
                at,
                parents: vec![o.p1],
            },
            Box::new(move |t, o| {
                evolution::increase(t, dim, v4, "V4+", 2.0, at, &[o.p1]).unwrap();
            }),
        ),
        (
            WalRecord::Decrease {
                dim,
                id: v4,
                new_name: "V4-".into(),
                kept: 0.75,
                at,
                parents: vec![o.p1],
            },
            Box::new(move |t, o| {
                evolution::decrease(t, dim, v4, "V4-", 0.75, at, &[o.p1]).unwrap();
            }),
        ),
    ]
}

/// The payload of each case, in order: the bytes a WAL frame holds.
pub const PAYLOADS: [&str; 10] = [
    "create 0 Vnew 1 Department 24036 1 1",
    "delete 0 4 24036",
    "transform 0 2 V1' 24036 1 budget high",
    "merge 0 V12 0 24036 1 0 2 2 2 id@em id@em 2 s0.5@am s0.5@am 3 2 id@em id@em 2 u@uk u@uk",
    "split 0 2 24036 1 1 2 A 2 s0.4@am s0.4@am 2 id@em id@em B 2 s0.6@am s0.6@am 2 id@em id@em",
    "reclassify 0 3 24029 1 0 1 1",
    "associate 0 4 5 2 s0.25@am s0.25@am 2 u@uk u@uk",
    "confidence 0 6 7 2 s0.9@am s0.9@am 2 s0.9@am s0.9@am",
    "increase 0 5 V4+ 2 24036 1 0",
    "decrease 0 5 V4- 0.75 24036 1 0",
];

#[test]
fn every_operator_kind_replays_as_its_model_call() {
    let (base, org) = schema();
    let before = bytes(&base);
    let cases = cases(&org);
    let kinds: Vec<&str> = cases.iter().map(|(r, _)| r.kind()).collect();
    assert_eq!(
        kinds,
        [
            "create",
            "delete",
            "transform",
            "merge",
            "split",
            "reclassify",
            "associate",
            "confidence",
            "increase",
            "decrease"
        ]
    );
    for ((record, direct), payload) in cases.iter().zip(PAYLOADS) {
        assert_eq!(String::from_utf8(record.encode()).unwrap(), payload);
        let decoded = WalRecord::decode(payload.as_bytes()).expect("decodes");
        assert_eq!(&decoded, record);
        let mut replayed = base.clone();
        decoded.apply(&mut replayed).expect("replays");
        let mut applied = base.clone();
        direct(&mut applied, &org);
        let kind = record.kind();
        assert_eq!(bytes(&replayed), bytes(&applied), "{kind}");
        assert_ne!(bytes(&replayed), before, "{kind} changed nothing");
    }
}
