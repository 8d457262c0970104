//! In-process replay of what the server does for one request, through
//! the product crates' public API: once as the whole call the server
//! makes, once stage by stage with a span around each layer boundary.
//! Both must produce the bytes the wire returned.

use std::fmt::Write as _;

use mvolap_core::{
    all_modes, evaluate_par, AggregateQuery, ConfidenceWeights, ExecContext, QueryMemo,
    StructureVersion, TemporalMode, Tmd,
};
use mvolap_durable::{DurableTmd, WalRecord};
use mvolap_query::{
    is_all_modes, parse, plan, run_compare_par, run_with_versions_par, ModeResult, ModeSpec, Query,
};
use mvolap_server::{decode_reply, decode_request, encode_reply, encode_request, Reply, Request};

use crate::trace::Tracer;

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn write_mode(out: &mut String, r: &ModeResult) -> Result<(), String> {
    let _ = writeln!(
        out,
        "== mode {} (Q = {:.3}, {} unmapped) ==",
        r.result.mode.label(),
        r.quality,
        r.result.unmapped_rows
    );
    let _ = writeln!(out, "{}", r.result.render("result").map_err(msg)?);
    Ok(())
}

fn unmapped_note(out: &mut String, unmapped: usize) {
    if unmapped > 0 {
        let _ = writeln!(
            out,
            "note: {unmapped} source facts have no representation in this mode"
        );
    }
}

/// The whole call: the same entry points, in the same order, the
/// session server runs for a `query` request (its handler is private,
/// so this is the benchmark's own rendering — and the reference every
/// wire reply is compared with byte for byte).
pub fn render_query(
    tmd: &Tmd,
    text: &str,
    exec: &ExecContext,
    memo: &QueryMemo,
) -> Result<String, String> {
    let mut out = String::new();
    if is_all_modes(text) {
        for r in run_compare_par(tmd, text, exec, memo).map_err(msg)? {
            write_mode(&mut out, &r)?;
        }
    } else {
        let svs = tmd.structure_versions();
        let rs = run_with_versions_par(tmd, &svs, text, exec, memo).map_err(msg)?;
        unmapped_note(&mut out, rs.unmapped_rows);
        out.push_str(&rs.render("result").map_err(msg)?);
    }
    Ok(out)
}

/// Encodes and decodes one request and its reply the way the wire
/// does, inside `server.proto` spans on either side of `serve`.
fn through_proto(
    tr: &mut Tracer,
    request: &Request,
    serve: impl FnOnce(&mut Tracer) -> Reply,
) -> Result<Reply, String> {
    tr.span("request", |tr| {
        tr.span("server.proto", |_| {
            decode_request(&encode_request(request)).map_err(msg)
        })?;
        let reply = serve(tr);
        tr.span("server.proto", |_| {
            decode_reply(&encode_reply(&reply)).map_err(msg)
        })
    })
}

/// [`render_query`] taken apart: every stage the whole call runs, each
/// inside its own span. `query.parse` appears twice per request because
/// the server parses twice (once to route `IN ALL MODES`, once to run).
pub fn render_query_staged(
    tr: &mut Tracer,
    tmd: &Tmd,
    text: &str,
    exec: &ExecContext,
    memo: &QueryMemo,
) -> Result<String, String> {
    let reply = through_proto(
        tr,
        &Request::Query(text.to_owned()),
        |tr| match staged_body(tr, tmd, text, exec, memo) {
            Ok(out) => Reply::Result(out),
            Err(e) => Reply::Err(mvolap_server::ServerError::Query(e)),
        },
    )?;
    match reply {
        Reply::Result(out) => Ok(out),
        other => Err(format!("{other:?}")),
    }
}

/// Plans `ast` and lists the temporal modes it evaluates under: every
/// mode for `IN ALL MODES` (planned with a concrete mode first, as the
/// product's comparison runner does), else the one it names.
pub fn plan_modes(
    tmd: &Tmd,
    svs: &[StructureVersion],
    ast: &Query,
) -> Result<(AggregateQuery, Vec<TemporalMode>), String> {
    if matches!(ast.mode, ModeSpec::AllModes { .. }) {
        let mut concrete = ast.clone();
        concrete.mode = ModeSpec::Tcm;
        Ok((plan(tmd, svs, &concrete).map_err(msg)?, all_modes(svs)))
    } else {
        let query = plan(tmd, svs, ast).map_err(msg)?;
        let mode = query.mode.clone();
        Ok((query, vec![mode]))
    }
}

fn staged_body(
    tr: &mut Tracer,
    tmd: &Tmd,
    text: &str,
    exec: &ExecContext,
    memo: &QueryMemo,
) -> Result<String, String> {
    let compare = tr.span("query.parse", |_| is_all_modes(text));
    let svs = tr.span("core.structure_versions", |_| tmd.structure_versions());
    let ast = tr.span("query.parse", |_| parse(text)).map_err(msg)?;
    let (mut query, modes) = tr.span("query.plan", |_| plan_modes(tmd, &svs, &ast))?;
    let mut results = Vec::with_capacity(modes.len());
    for mode in modes {
        query.mode = mode;
        let result = tr
            .span("core.evaluate", |_| {
                evaluate_par(tmd, &svs, &query, exec, memo)
            })
            .map_err(msg)?;
        results.push(result);
    }
    let mut out = String::new();
    if compare {
        let weights = match &ast.mode {
            ModeSpec::AllModes {
                weights: Some((s, e, a, u)),
            } => ConfidenceWeights::new(*s, *e, *a, *u),
            _ => ConfidenceWeights::default(),
        };
        let mut ranked: Vec<ModeResult> = results
            .into_iter()
            .map(|result| ModeResult {
                quality: result.quality(&weights),
                result,
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.quality
                .partial_cmp(&a.quality)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        tr.span("core.render", |_| {
            ranked.iter().try_for_each(|r| write_mode(&mut out, r))
        })?;
    } else {
        let rs = results.pop().expect("one mode, one result");
        unmapped_note(&mut out, rs.unmapped_rows);
        let rendered = tr
            .span("core.render", |_| rs.render("result"))
            .map_err(msg)?;
        out.push_str(&rendered);
    }
    Ok(out)
}

/// One commit taken apart on a bare store: journal-and-apply, then the
/// fsync the group-commit leader would issue. The hold window between
/// the two lives inside `GroupCommit` and is measured by subtraction.
pub fn commit_staged(
    tr: &mut Tracer,
    store: &mut DurableTmd,
    record: &WalRecord,
) -> Result<u64, String> {
    let reply = through_proto(tr, &Request::Commit(record.clone()), |tr| {
        let applied = tr.span("durable.append_apply", |_| {
            store.apply_unsynced(record.clone())
        });
        let synced = tr.span("durable.fsync", |_| store.sync_wal());
        match (applied, synced) {
            (Ok(lsn), Ok(_)) => Reply::Lsn(lsn),
            (Err(e), _) | (_, Err(e)) => {
                Reply::Err(mvolap_server::ServerError::Commit(e.to_string()))
            }
        }
    })?;
    match reply {
        Reply::Lsn(lsn) => Ok(lsn),
        other => Err(format!("{other:?}")),
    }
}
