//! Table 11 as statements: the text of each evolution operator,
//! resolved on the schema `operator_replay.rs` replays against, encodes
//! to the payload that file pins, and a malformed argument in each
//! statement is reported at its byte position.

#[path = "../crates/durable/tests/operator_replay.rs"]
mod operator_replay;

use mvolap::query::{parse_statement, QueryError, Statement, OPERATORS};
use operator_replay::{schema, PAYLOADS};

/// One statement per operator kind, in `PAYLOADS` order.
const STATEMENTS: [&str; 10] = [
    "CREATE Org 'Vnew' LEVEL Department UNDER 'P2' AT 01/2003",
    "DELETE Org 'V3' AT 01/2003",
    "RENAME Org 'V1' TO 'V1''' WITH budget = 'high' AT 01/2003",
    "MERGE Org 'V1' 0.5, 'V2' INTO 'V12' UNDER 'P1' AT 01/2003",
    "split Org 'V1' into 'A' 0.4, 'B' 0.6 under 'P2' at 01/2003;",
    "RECLASSIFY Org 'V2' FROM 'P1' TO 'P2' AT 06/2002",
    "ASSOCIATE Org 'V3' TO 'V4' FORWARD 's0.25@am' BACKWARD 'u@uk' AT 01/2003",
    // `V0` ends in 2001-12 and `V0n` starts at 2002-01: names resolve
    // at `AT`, or just before it.
    "CONFIDENCE Org 'V0' TO 'V0n' FORWARD 's0.9@am' BACKWARD 's0.9@am' AT 01/2002",
    "INCREASE Org 'V4' TO 'V4+' BY 2 UNDER 'P1' AT 01/2003",
    "DECREASE Org 'V4' TO 'V4-' KEEP 0.75 UNDER 'P1' AT 01/2003",
];

fn evolve(text: &str) -> mvolap::query::Evolve {
    match parse_statement(text) {
        Ok(Statement::Evolve(e)) => e,
        other => panic!("{text}: {other:?}"),
    }
}

#[test]
fn every_operator_statement_resolves_to_its_pinned_payload() {
    let (tmd, _) = schema();
    for ((text, payload), op) in STATEMENTS.iter().zip(PAYLOADS).zip(&OPERATORS) {
        let e = evolve(text);
        assert_eq!(e.op, op, "{text}");
        let record = e
            .resolve(&tmd)
            .unwrap_or_else(|err| panic!("{text}: {err}"));
        assert_eq!(String::from_utf8(record.encode()).unwrap(), payload);
    }
}

#[test]
fn a_bad_argument_of_every_operator_is_reported_at_its_byte() {
    // Each statement and the text its error must point at (`""`: the
    // end of the input).
    let cases = [
        ("CREATE Org Vnew AT 01/2003", "Vnew"),
        ("DELETE Org 'V3' AT 2003", ""),
        ("RENAME Org 'V1' 'V1x' AT 01/2003", "'V1x'"),
        (
            "MERGE Org 'V1' 0.5, 'V2' INTO 'V12' UNDER P1 AT 01/2003",
            "P1",
        ),
        ("SPLIT Org 'V1' INTO 'A', 'B' 0.6 AT 01/2003", ", 'B'"),
        ("RECLASSIFY Org 'V2' FROM 'P1' TO 'P2'", ""),
        (
            "ASSOCIATE Org 'V3' TO 'V4' FORWARD 's0.25' BACKWARD 'u@uk' AT 01/2003",
            "'s0.25'",
        ),
        (
            "CONFIDENCE Org 'V0' TO 'V0n' FORWARD 'id@em' AT 01/2002",
            "AT 01",
        ),
        ("INCREASE Org 'V4' TO 'V4+' BY twice AT 01/2003", "twice"),
        ("DECREASE Org 'V4' TO 'V4-' KEEP 0.75 AT 13/2003", "13/"),
    ];
    for ((text, needle), op) in cases.iter().zip(&OPERATORS) {
        assert!(text.starts_with(op.keyword));
        let at = match parse_statement(text) {
            Err(QueryError::Unexpected { at, .. } | QueryError::BadNumber { at, .. }) => at,
            other => panic!("{text}: {other:?}"),
        };
        let expected = if needle.is_empty() {
            text.len()
        } else {
            text.find(needle).unwrap()
        };
        assert_eq!(at, expected, "{text}");
        let message = parse_statement(text).unwrap_err().to_string();
        assert!(message.ends_with(&format!("at byte {at}")), "{message}");
    }
}

#[test]
fn a_read_refuses_an_evolution_and_a_name_must_resolve() {
    let (tmd, _) = schema();
    let ctx = mvolap::core::ExecContext::sequential();
    let memo = mvolap::core::QueryMemo::new();
    let refused = mvolap::query::render_answer(&tmd, STATEMENTS[1], &ctx, &memo);
    assert_eq!(refused, Err(QueryError::NotARead("DELETE")));
    let unknown = evolve("DELETE Org 'V9' AT 01/2003")
        .resolve(&tmd)
        .unwrap_err();
    assert_eq!(
        unknown.to_string(),
        "unknown member `V9` in dimension `Org`"
    );
    let unknown = evolve("DELETE Nowhere 'V1' AT 01/2003").resolve(&tmd);
    assert!(unknown.is_err());
}
