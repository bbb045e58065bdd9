//! The canonical JSON wire format of the unified query API.
//!
//! The contract `uxm batch` files and `uxm query --json` rely on:
//! serialize → parse → serialize is **byte-stable** for every [`Query`]
//! and [`BatchQuery`] (the old `Request` `Display`/parse asymmetry is
//! gone), and emitted responses are canonical JSON (re-parsing and
//! re-writing reproduces the same bytes).
//!
//! Served bodies are streamed by `json::Writer` with no `Json` tree in
//! between; the `to_json` trees are the reference form. The writer ≡
//! tree arms below pin that the two print the same bytes for every
//! response kind and every body the server renders.

use proptest::prelude::*;
use std::sync::Arc;
use uxm::core::aggregate::{merge_marginals, AggFunc, AggRow, AggregateResult};
use uxm::core::api::{Answer, EvaluatorHint, ExecStats, Granularity, Query, QueryResponse};
use uxm::core::block_tree::BlockTreeConfig;
use uxm::core::engine::QueryEngine;
use uxm::core::error::UxmError;
use uxm::core::exec::Explain;
use uxm::core::json::Json;
use uxm::core::mapping::{MappingId, PossibleMappings};
use uxm::core::planner::{Evaluator, Plan, PlanReason};
use uxm::core::registry::BatchQuery;
use uxm::core::router::{aggregate_body, merge_topk, topk_body, TopKAnswer};
use uxm::core::server::{batch_body, error_body, query_body};
use uxm::matching::Matcher;
use uxm::twig::{Axis, PredOp, PredTarget, TwigMatch, TwigPattern, ValuePred};
use uxm::xml::{DocGenConfig, DocNodeId, Document, Schema};

/// Builds an arbitrary twig pattern from a generated spec: node `i + 1`
/// attaches under node `parent % (i + 1)` with the given axis, label
/// drawn from a fixed pool, and an optional text predicate on the last
/// node.
fn twig_from_spec(spec: &[(u8, u8, bool)], pred: Option<&str>) -> TwigPattern {
    const LABELS: [&str; 8] = [
        "Order", "Buyer", "Name", "POLine", "Qty", "UP", "X_1", "a-b:c",
    ];
    let mut nodes = vec![];
    let (l0, _, d0) = spec.first().copied().unwrap_or((0, 0, true));
    let mut q = TwigPattern::single(
        LABELS[l0 as usize % LABELS.len()],
        if d0 { Axis::Descendant } else { Axis::Child },
    );
    nodes.push(q.root());
    for &(label, parent, descendant) in spec.iter().skip(1) {
        let parent = nodes[parent as usize % nodes.len()];
        let id = q.add_child(
            parent,
            LABELS[label as usize % LABELS.len()],
            if descendant {
                Axis::Descendant
            } else {
                Axis::Child
            },
        );
        nodes.push(id);
    }
    if let Some(v) = pred {
        let last = *nodes.last().expect("at least the root");
        q.set_text_eq(last, v);
    }
    q
}

fn assert_byte_stable(query: &Query) {
    let once = query.to_json_string();
    let parsed =
        Query::from_json_str(&once).unwrap_or_else(|e| panic!("reparse of {once} failed: {e}"));
    assert_eq!(&parsed, query, "lossless: {once}");
    assert_eq!(parsed.to_json_string(), once, "byte-stable: {once}");
}

#[test]
fn every_query_kind_roundtrips_byte_stably() {
    let q = TwigPattern::parse("Order/POLine[./LineNo][.//UP]/Quantity").unwrap();
    let variants = [
        Query::ptq(q.clone()),
        Query::ptq_nodes(q.clone()),
        Query::topk(q.clone(), 10),
        Query::keyword(vec!["UP".into(), "Bob Smith".into(), "é✓".into()]),
        Query::ptq(q.clone())
            .with_evaluator(EvaluatorHint::BlockTree)
            .with_granularity(Granularity::Distinct)
            .with_min_probability(0.125),
        Query::topk(TwigPattern::parse("//A[.='quote\"and\\slash']").unwrap(), 1)
            .with_evaluator(EvaluatorHint::Naive),
        // The grown query language: value predicates (string, numeric,
        // attribute), wildcards, and aggregates.
        Query::ptq(TwigPattern::parse("//A[contains(.,'x y')][.>=1.5]/*").unwrap()),
        Query::ptq(TwigPattern::parse("//A[@id='7']/B[@n<-2][.<=0.5]").unwrap()),
        Query::topk(TwigPattern::parse("Order//*[.>10]").unwrap(), 4),
        Query::aggregate(TwigPattern::parse("//Line//Qty").unwrap(), AggFunc::Count),
        Query::aggregate(
            TwigPattern::parse("//Line/Qty[@unit='kg']").unwrap(),
            AggFunc::Sum,
        )
        .with_evaluator(EvaluatorHint::Compiled)
        .with_min_probability(0.25),
        Query::aggregate(TwigPattern::parse("//Qty[.>0]").unwrap(), AggFunc::Min),
        Query::aggregate(TwigPattern::parse("//Qty").unwrap(), AggFunc::Max),
    ];
    for query in &variants {
        assert_byte_stable(query);
    }
}

#[test]
fn batch_lines_roundtrip_byte_stably() {
    let q = TwigPattern::parse("Order[./Buyer/Contact][./DeliverTo//City]//BPID").unwrap();
    for request in [
        BatchQuery::ptq("orders", q.clone()),
        BatchQuery::basic("orders", q.clone()),
        BatchQuery::topk("invoices", q.clone(), 3),
        BatchQuery::keyword("kv", vec!["City".into()]),
        BatchQuery::new(
            "orders",
            Query::ptq(q).with_granularity(Granularity::Distinct),
        ),
    ] {
        let once = request.to_json_string();
        let parsed = BatchQuery::from_json_str(&once).unwrap();
        assert_eq!(parsed, request);
        assert_eq!(parsed.to_json_string(), once, "byte-stable: {once}");
    }
}

#[test]
fn wire_format_is_strict() {
    // Unknown keys, wrong shapes, and kind/field mismatches are rejected
    // rather than silently dropped (silent drops would break
    // byte-stability).
    for bad in [
        "{\"engine\":\"po\",\"query\":{\"pattern\":\"//A\",\"type\":\"ptq\"},\"extra\":0}",
        "{\"engine\":7,\"query\":{\"pattern\":\"//A\",\"type\":\"ptq\"}}",
        "{\"query\":{\"pattern\":\"//A\",\"type\":\"ptq\"}}",
    ] {
        assert!(BatchQuery::from_json_str(bad).is_err(), "{bad}");
    }
    for bad in [
        "{\"pattern\":\"//A\",\"terms\":[\"x\"],\"type\":\"ptq\"}",
        "{\"k\":1,\"terms\":[\"x\"],\"type\":\"keyword\"}",
        "{\"options\":{\"min_probability\":\"high\"},\"pattern\":\"//A\",\"type\":\"ptq\"}",
        // Aggregate strictness: the func is mandatory, valid, and only
        // legal on aggregate queries.
        "{\"pattern\":\"//A\",\"type\":\"aggregate\"}",
        "{\"func\":\"avg\",\"pattern\":\"//A\",\"type\":\"aggregate\"}",
        "{\"func\":\"count\",\"pattern\":\"//A\",\"type\":\"ptq\"}",
        "{\"func\":\"count\",\"k\":1,\"pattern\":\"//A\",\"type\":\"topk\"}",
        // Malformed predicates fail at pattern parse, not silently.
        "{\"pattern\":\"//A[.>>2]\",\"type\":\"ptq\"}",
        "{\"pattern\":\"//A[@='x']\",\"type\":\"ptq\"}",
    ] {
        assert!(Query::from_json_str(bad).is_err(), "{bad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary twigs with arbitrary options always round-trip to the
    /// same bytes.
    #[test]
    fn random_queries_roundtrip_byte_stably(
        spec in proptest::collection::vec((0u8..16, 0u8..16, proptest::prop::bool::ANY), 1..6),
        pred in proptest::prop::bool::ANY,
        value_pred in (proptest::prop::bool::ANY, 0u8..6, proptest::prop::bool::ANY, 0i32..100),
        kind in 0u8..4,
        func in 0u8..4,
        k in 0usize..50,
        hint in 0u8..3,
        distinct in proptest::prop::bool::ANY,
        // Sixteenths stay exact in binary floating point AND in the
        // shortest-decimal rendering, but exactness is not required for
        // byte stability — any f64 surviving one text round trip is a
        // fixpoint afterwards.
        min_p16 in 0u8..=16,
    ) {
        // Normalize to parse order: generated node numbering is arbitrary
        // (children can attach to earlier nodes late), while `parse`
        // numbers nodes in render order. The rendered *bytes* are
        // identical either way — structural equality needs the normal
        // form.
        let mut generated = twig_from_spec(&spec, pred.then_some("some value 42"));
        if let (true, op, on_attr, n) = value_pred {
            let x = n as f64 / 4.0;
            let root = generated.root();
            generated.add_pred(
                root,
                ValuePred {
                    target: if on_attr {
                        PredTarget::Attr("id".into())
                    } else {
                        PredTarget::Text
                    },
                    op: match op {
                        0 => PredOp::Eq("v 1".into()),
                        1 => PredOp::Contains("x/y \"z\"".into()),
                        2 => PredOp::Lt(x),
                        3 => PredOp::Le(x),
                        4 => PredOp::Gt(x),
                        _ => PredOp::Ge(x),
                    },
                },
            );
        }
        let pattern = TwigPattern::parse(&generated.to_string())
            .map_err(|e| TestCaseError::fail(format!("{generated}: {e}")))?;
        let mut query = match kind {
            0 => Query::ptq(pattern),
            1 => Query::ptq_nodes(pattern),
            2 => Query::topk(pattern, k),
            _ => Query::aggregate(pattern, match func {
                0 => AggFunc::Count,
                1 => AggFunc::Sum,
                2 => AggFunc::Min,
                _ => AggFunc::Max,
            }),
        };
        query = query.with_evaluator(match hint {
            0 => EvaluatorHint::Auto,
            1 => EvaluatorHint::Naive,
            _ => EvaluatorHint::BlockTree,
        });
        if distinct {
            query = query.with_granularity(Granularity::Distinct);
        }
        query = query.with_min_probability(min_p16 as f64 / 16.0);

        let once = query.to_json_string();
        let parsed = Query::from_json_str(&once)
            .map_err(|e| TestCaseError::fail(format!("reparse of {once}: {e}")))?;
        prop_assert_eq!(&parsed, &query, "lossless: {}", once);
        prop_assert_eq!(parsed.to_json_string(), once.clone(), "byte-stable: {}", once);

        // And wrapped in a batch line.
        let line = BatchQuery::new("engine-1", query).to_json_string();
        let back = BatchQuery::from_json_str(&line)
            .map_err(|e| TestCaseError::fail(format!("batch reparse of {line}: {e}")))?;
        prop_assert_eq!(back.to_json_string(), line);
    }

    /// The canonical JSON writer is a fixpoint on arbitrary parseable
    /// input built from our own values.
    #[test]
    fn canonical_json_is_a_fixpoint(
        spec in proptest::collection::vec((0u8..16, 0u8..16, proptest::prop::bool::ANY), 1..5),
    ) {
        let q = Query::ptq(twig_from_spec(&spec, None));
        let text = q.to_json_string();
        let reparsed = Json::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{text}: {e}")))?;
        prop_assert_eq!(reparsed.to_string(), text);
    }
}

/// The byte-exact examples printed in `docs/wire-format.md` — if one of
/// these assertions moves, the docs page must move with it.
#[test]
fn docs_wire_format_examples_are_byte_exact() {
    let ptq = Query::ptq(TwigPattern::parse("//Line//Qty").unwrap());
    assert_eq!(
        ptq.to_json_string(),
        "{\"options\":{\"evaluator\":\"auto\",\"granularity\":\"mapping\",\
         \"min_probability\":0},\"pattern\":\"//Line//Qty\",\"type\":\"ptq\"}"
    );

    let topk = Query::topk(TwigPattern::parse("PO/Line[./No]//Qty").unwrap(), 3)
        .with_evaluator(EvaluatorHint::Naive)
        .with_granularity(Granularity::Distinct)
        .with_min_probability(0.25);
    assert_eq!(
        topk.to_json_string(),
        "{\"k\":3,\"options\":{\"evaluator\":\"naive\",\"granularity\":\"distinct\",\
         \"min_probability\":0.25},\"pattern\":\"PO/Line[./No]//Qty\",\"type\":\"topk\"}"
    );

    let keyword = Query::keyword(vec!["Qty".into(), "order".into()]);
    assert_eq!(
        keyword.to_json_string(),
        "{\"options\":{\"evaluator\":\"auto\",\"granularity\":\"mapping\",\
         \"min_probability\":0},\"terms\":[\"Qty\",\"order\"],\"type\":\"keyword\"}"
    );

    let line = BatchQuery::new(
        "orders",
        Query::ptq(TwigPattern::parse("//Line//Qty").unwrap()),
    );
    assert_eq!(
        line.to_json_string(),
        "{\"engine\":\"orders\",\"query\":{\"options\":{\"evaluator\":\"auto\",\
         \"granularity\":\"mapping\",\"min_probability\":0},\"pattern\":\"//Line//Qty\",\
         \"type\":\"ptq\"}}"
    );
}

/// Golden wire fixtures for the grown query language: every new syntax
/// form — value predicates (string / numeric / attribute), wildcards,
/// and the aggregate query kind — pinned byte-exact, pattern string
/// included. These are the `docs/query-language.md` examples.
#[test]
fn query_language_wire_fixtures_are_byte_exact() {
    // Predicates render canonically: `text()` normalizes to `.`, floats
    // to shortest round trip, and the predicate order is preserved.
    let cases = [
        ("//Line/Qty[.>=1.5]", "//Line/Qty[.>=1.5]"),
        ("//Line/Qty[text()='42']", "//Line/Qty[.='42']"),
        ("//A[contains(.,'x y')]", "//A[contains(.,'x y')]"),
        ("//A[@id='7'][@n<-2]", "//A[@id='7'][@n<-2]"),
        ("//A[.<=2.50]/*", "//A[.<=2.5]/*"),
        ("Order//*[.>10]", "Order//*[.>10]"),
    ];
    for (input, canonical) in cases {
        let pattern = TwigPattern::parse(input).unwrap();
        assert_eq!(pattern.to_string(), canonical, "{input}");
        let query = Query::ptq(pattern);
        assert_eq!(
            query.to_json_string(),
            format!(
                "{{\"options\":{{\"evaluator\":\"auto\",\"granularity\":\"mapping\",\
                 \"min_probability\":0}},\"pattern\":\"{}\",\"type\":\"ptq\"}}",
                canonical.replace('"', "\\\"")
            ),
            "{input}"
        );
        assert_byte_stable(&query);
    }

    // The aggregate query kind, all four functions.
    let qty = TwigPattern::parse("//Line//Qty").unwrap();
    assert_eq!(
        Query::aggregate(qty.clone(), AggFunc::Count).to_json_string(),
        "{\"func\":\"count\",\"options\":{\"evaluator\":\"auto\",\"granularity\":\"mapping\",\
         \"min_probability\":0},\"pattern\":\"//Line//Qty\",\"type\":\"aggregate\"}"
    );
    assert_eq!(
        Query::aggregate(qty.clone(), AggFunc::Sum)
            .with_evaluator(EvaluatorHint::Compiled)
            .with_min_probability(0.25)
            .to_json_string(),
        "{\"func\":\"sum\",\"options\":{\"evaluator\":\"compiled\",\"granularity\":\"mapping\",\
         \"min_probability\":0.25},\"pattern\":\"//Line//Qty\",\"type\":\"aggregate\"}"
    );
    for (func, name) in [(AggFunc::Min, "min"), (AggFunc::Max, "max")] {
        assert_eq!(
            Query::aggregate(qty.clone(), func).to_json_string(),
            format!(
                "{{\"func\":\"{name}\",\"options\":{{\"evaluator\":\"auto\",\
                 \"granularity\":\"mapping\",\"min_probability\":0}},\
                 \"pattern\":\"//Line//Qty\",\"type\":\"aggregate\"}}"
            )
        );
    }
}

/// The aggregate *response* block, pinned byte-exact: whole numbers
/// render as integers, undefined folds and marginals as `null`, and the
/// row order is ascending mapping id — the shape `/aggregate` embeds in
/// its per-engine entries and `docs/wire-format.md` documents.
#[test]
fn aggregate_response_wire_fixtures_are_byte_exact() {
    let result = AggregateResult {
        func: AggFunc::Sum,
        rows: vec![
            AggRow {
                mapping: MappingId(0),
                probability: 0.5,
                value: Some(17.5),
            },
            AggRow {
                mapping: MappingId(1),
                probability: 0.25,
                value: Some(3.0),
            },
            AggRow {
                mapping: MappingId(2),
                probability: 0.25,
                value: None,
            },
        ],
        marginal: Some((0.5 * 17.5 + 0.25 * 3.0) / 0.75),
    };
    assert_eq!(
        result.to_json().to_string(),
        "{\"func\":\"sum\",\"marginal\":12.666666666666666,\"rows\":[\
         {\"mapping\":0,\"probability\":0.5,\"value\":17.5},\
         {\"mapping\":1,\"probability\":0.25,\"value\":3},\
         {\"mapping\":2,\"probability\":0.25,\"value\":null}]}"
    );

    // A fully undefined column: null marginal, count rows still render.
    let empty = AggregateResult {
        func: AggFunc::Min,
        rows: vec![AggRow {
            mapping: MappingId(4),
            probability: 1.0,
            value: None,
        }],
        marginal: None,
    };
    assert_eq!(
        empty.to_json().to_string(),
        "{\"func\":\"min\",\"marginal\":null,\"rows\":[\
         {\"mapping\":4,\"probability\":1,\"value\":null}]}"
    );
}

// ---------------------------------------------------------------------
// writer ≡ tree

/// The `/query` body as the tree form: the response's members with
/// `explain` second, as `POST /query` serves it.
fn query_tree(response: &QueryResponse, explain: Option<&Explain>) -> String {
    let Json::Obj(mut members) = response.to_json() else {
        panic!("a response serializes to an object");
    };
    if let Some(explain) = explain {
        members.insert(1, ("explain".into(), explain.to_json()));
    }
    Json::Obj(members).to_string()
}

fn error_tree(e: &UxmError) -> Json {
    Json::Obj(vec![(
        "error".into(),
        Json::Obj(vec![
            ("kind".into(), Json::str(e.kind())),
            ("message".into(), Json::str(e.to_string())),
        ]),
    )])
}

fn batch_tree(results: &[Result<QueryResponse, UxmError>]) -> String {
    let items = results
        .iter()
        .map(|r| match r {
            Ok(response) => response.to_json(),
            Err(e) => error_tree(e),
        })
        .collect();
    Json::Obj(vec![("results".into(), Json::Arr(items))]).to_string()
}

fn topk_tree(answers: &[TopKAnswer], k: usize) -> String {
    Json::Obj(vec![
        (
            "answers".into(),
            Json::Arr(answers.iter().map(TopKAnswer::to_json).collect()),
        ),
        ("k".into(), Json::uint(k as u64)),
    ])
    .to_string()
}

fn aggregate_tree(func: AggFunc, entries: &[(String, AggregateResult)]) -> String {
    let rows = entries
        .iter()
        .map(|(name, agg)| {
            Json::Obj(vec![
                ("engine".into(), Json::str(name)),
                (
                    "marginal".into(),
                    agg.marginal.map_or(Json::Null, Json::Num),
                ),
                ("rows".into(), agg.rows_json()),
            ])
        })
        .collect();
    let value = merge_marginals(func, entries.iter().map(|(_, a)| a.marginal));
    Json::Obj(vec![
        ("engines".into(), Json::Arr(rows)),
        ("func".into(), Json::str(func.wire_name())),
        ("value".into(), value.map_or(Json::Null, Json::Num)),
    ])
    .to_string()
}

/// Every rendering of one response: `to_json_string`, the writer behind
/// `/query` (with and without `explain`) and the aggregate block alone.
fn assert_response_writer_eq_tree(response: &QueryResponse, explain: &Explain) {
    let tree = response.to_json().to_string();
    assert_eq!(response.to_json_string(), tree);
    assert_eq!(query_body(response, None), tree);
    assert_eq!(
        query_body(response, Some(explain)),
        query_tree(response, Some(explain))
    );
    if let Some(aggregate) = &response.aggregate {
        let mut out = String::new();
        aggregate.write_json(&mut uxm::core::json::Writer::new(&mut out));
        assert_eq!(out, aggregate.to_json().to_string());
    }
}

/// Error messages carrying every character class the escaper treats
/// differently: quotes, backslashes, short and `\u00xx` control
/// escapes, DEL, and multi-byte text.
fn awkward_errors() -> Vec<UxmError> {
    vec![
        UxmError::UnknownEngine("po \"quoted\" \\ name".into()),
        UxmError::Json("bad \"key\" at \\ byte 3\n\r\t\u{0}\u{1}\u{1f}\u{7f}".into()),
        UxmError::Internal("é✓ λ \u{1F600} — non-ASCII".into()),
        UxmError::Usage(String::new()),
        UxmError::InvalidQuery("\"\\\"\\\\".into()),
        UxmError::Overloaded {
            reason: "queue \"full\"".into(),
            retry_after_ms: 250,
        },
    ]
}

fn po_engine() -> QueryEngine {
    let source = Schema::parse_outline(
        "Order(Buyer(Name Contact(EMail)) POLine*(LineNo Quantity UnitPrice))",
    )
    .unwrap();
    let target =
        Schema::parse_outline("PO(Purchaser(PName PContact(PEMail)) Line(No Qty Amount))").unwrap();
    let matching = Matcher::context().match_schemas(&source, &target);
    let pm = PossibleMappings::top_h(&matching, 12);
    let doc = Document::generate(&source, &DocGenConfig::small(), 7);
    QueryEngine::build(pm, doc, &BlockTreeConfig::default())
}

/// Deterministic arm: real responses of every query kind on a fixture
/// engine, plus hand-built edge cases, through every served body.
#[test]
fn served_writer_bytes_equal_the_tree_form() {
    let engine = po_engine();
    let pattern = |s: &str| TwigPattern::parse(s).unwrap();
    let queries = [
        Query::ptq(pattern("//Line//Qty")),
        Query::ptq(pattern("PO//PEMail")).with_granularity(Granularity::Distinct),
        Query::ptq_nodes(pattern("//Line[./No]//Qty")),
        Query::topk(pattern("//Qty"), 3),
        Query::keyword(vec!["Qty".into(), "PEMail".into()]),
        Query::aggregate(pattern("//Line//Qty"), AggFunc::Count),
        Query::aggregate(pattern("//Qty"), AggFunc::Sum),
        Query::aggregate(pattern("//PEMail"), AggFunc::Min),
        Query::aggregate(pattern("//Qty"), AggFunc::Max).with_min_probability(0.5),
    ];
    let mut responses = Vec::new();
    for query in &queries {
        let response = engine.run(query).unwrap();
        let explain = engine.explain(query).unwrap();
        assert_response_writer_eq_tree(&response, &explain);
        responses.push(response);
    }
    // The exact `explain` bytes of every query above, plus three
    // listings the compiler shapes specially: a repeated label (its
    // second relevance AND is compiled out), an unknown label
    // (`clear-bits`) and a wildcard (`wildcard-set`).
    let special = [
        Query::ptq(pattern("//Line[./Qty]//Qty")),
        Query::ptq(pattern("PO//Nope")),
        Query::ptq(pattern("//Line/*")),
    ];
    let goldens = [
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance Line (sym 14)","  2  and-relevance Qty (sym 16)","  3  materialize-ids","  4  intersect-csr node=0 targets[0..1]","  5  intersect-csr node=1 targets[1..2]","  6  group-shapes","  7  match-shapes symbols","  8  fold-prob per-mapping","  9  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance PO (sym 9)","  2  and-relevance PEMail (sym 13)","  3  materialize-ids","  4  intersect-csr node=0 targets[0..1]","  5  intersect-csr node=1 targets[1..2]","  6  group-shapes","  7  match-shapes symbols","  8  fold-prob per-mapping","  9  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance Line (sym 14)","  2  and-relevance No (sym 15)","  3  and-relevance Qty (sym 16)","  4  materialize-ids","  5  intersect-csr node=0 targets[0..1]","  6  intersect-csr node=1 targets[1..2]","  7  intersect-csr node=2 targets[2..3]","  8  group-shapes","  9  match-shapes schema-nodes"," 10  fold-prob per-mapping"," 11  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance Qty (sym 16)","  2  materialize-ids","  3  topk-heap k=3","  4  intersect-csr node=0 targets[0..1]","  5  group-shapes","  6  match-shapes symbols","  7  fold-prob top-order","  8  emit-answers"]}"#,
        r#"{"evaluator":"naive","plan_reason":"kind-default","program":null}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance Line (sym 14)","  2  and-relevance Qty (sym 16)","  3  materialize-ids","  4  intersect-csr node=0 targets[0..1]","  5  intersect-csr node=1 targets[1..2]","  6  group-shapes","  7  match-shapes symbols","  8  fold-prob per-mapping","  9  agg-fold count"," 10  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance Qty (sym 16)","  2  materialize-ids","  3  intersect-csr node=0 targets[0..1]","  4  group-shapes","  5  match-shapes symbols","  6  fold-prob per-mapping","  7  agg-fold sum","  8  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance PEMail (sym 13)","  2  materialize-ids","  3  intersect-csr node=0 targets[0..1]","  4  group-shapes","  5  match-shapes symbols","  6  fold-prob per-mapping","  7  agg-fold min","  8  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance Qty (sym 16)","  2  materialize-ids","  3  intersect-csr node=0 targets[0..1]","  4  group-shapes","  5  match-shapes symbols","  6  fold-prob per-mapping","  7  agg-fold max","  8  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance Line (sym 14)","  2  and-relevance Qty (sym 16)","  3  materialize-ids","  4  intersect-csr node=0 targets[0..1]","  5  intersect-csr node=1 targets[1..2]","  6  intersect-csr node=2 targets[2..3]","  7  group-shapes","  8  match-shapes symbols","  9  fold-prob per-mapping"," 10  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance PO (sym 9)","  2  clear-bits Nope (unknown label)","  3  materialize-ids","  4  intersect-csr node=0 targets[0..1]","  5  intersect-csr node=1 targets[1..1]","  6  group-shapes","  7  match-shapes symbols","  8  fold-prob per-mapping","  9  emit-answers"]}"#,
        r#"{"evaluator":"compiled","plan_reason":"kind-default","program":["  0  init-bits","  1  and-relevance Line (sym 14)","  2  materialize-ids","  3  intersect-csr node=0 targets[0..1]","  4  wildcard-set node=1 (unconstrained)","  5  group-shapes","  6  match-shapes symbols","  7  fold-prob per-mapping","  8  emit-answers"]}"#,
    ];
    assert_eq!(queries.len() + special.len(), goldens.len());
    for (query, golden) in queries.iter().chain(&special).zip(goldens) {
        let explain = engine.explain(query).unwrap();
        assert_eq!(explain.to_json().to_string(), golden, "{query}");
    }
    assert!(responses.iter().any(|r| !r.answers.is_empty()));
    assert!(responses
        .iter()
        .any(|r| r.aggregate.as_ref().is_some_and(|a| !a.rows.is_empty())));

    // Edge cases: null marginal and values, and non-finite numbers,
    // which have no JSON form and print as null.
    let stats = responses[0].stats;
    let explain = Explain {
        plan: stats.plan,
        program: None,
    };
    let edge = QueryResponse {
        answers: vec![
            Answer {
                probability: f64::NAN,
                mappings: vec![MappingId(0), MappingId(u32::MAX)],
                matches: vec![
                    TwigMatch { nodes: vec![] },
                    TwigMatch {
                        nodes: vec![DocNodeId(0), DocNodeId(u32::MAX)],
                    },
                ]
                .into(),
            },
            Answer {
                probability: f64::INFINITY,
                mappings: vec![],
                matches: vec![].into(),
            },
        ],
        aggregate: Some(AggregateResult {
            func: AggFunc::Sum,
            rows: vec![
                AggRow {
                    mapping: MappingId(1),
                    probability: 0.25,
                    value: None,
                },
                AggRow {
                    mapping: MappingId(2),
                    probability: -0.0,
                    value: Some(f64::NEG_INFINITY),
                },
                AggRow {
                    mapping: MappingId(3),
                    probability: 1e-300,
                    value: Some(-9_007_199_254_740_993.0),
                },
            ],
            marginal: None,
        }),
        stats: ExecStats {
            elapsed_us: u64::MAX,
            relevant: usize::MAX,
            ..stats
        },
    };
    assert_response_writer_eq_tree(&edge, &explain);
    let empty = QueryResponse {
        answers: vec![],
        aggregate: None,
        stats,
    };
    assert_response_writer_eq_tree(&empty, &explain);

    // `/batch`, with inline errors between the responses.
    let mut results: Vec<Result<QueryResponse, UxmError>> =
        responses.iter().cloned().map(Ok).collect();
    results.push(Ok(edge.clone()));
    for (i, e) in awkward_errors().into_iter().enumerate() {
        results.insert(2 * i, Err(e));
    }
    assert_eq!(batch_body(&results), batch_tree(&results));
    assert_eq!(batch_body(&[]), "{\"results\":[]}");

    // `/topk`, merged across two engine names.
    let mut all = Vec::new();
    for (name, response) in [("b\"eng", &responses[3]), ("a-eng", &responses[0])] {
        all.extend(response.answers.iter().map(|a| TopKAnswer {
            engine: name.into(),
            probability: a.probability,
            mappings: a.mappings.clone(),
            matches: a.matches.clone(),
        }));
    }
    assert!(!all.is_empty());
    for k in [0, 1, 3, 100] {
        let merged = merge_topk(all.clone(), k);
        assert_eq!(topk_body(&merged, k), topk_tree(&merged, k));
    }

    // `/aggregate`, with a null and a non-finite marginal among the
    // entries.
    let mut entries: Vec<(String, AggregateResult)> = responses
        .iter()
        .filter_map(|r| r.aggregate.clone())
        .filter(|a| a.func == AggFunc::Sum)
        .map(|a| ("engine \u{1F600}".to_string(), a))
        .collect();
    entries.push(("edge".into(), edge.aggregate.clone().unwrap()));
    let mut infinite = edge.aggregate.clone().unwrap();
    infinite.marginal = Some(f64::INFINITY);
    entries.push(("inf".into(), infinite));
    assert_eq!(
        aggregate_body(AggFunc::Sum, &entries),
        aggregate_tree(AggFunc::Sum, &entries)
    );
    assert_eq!(
        aggregate_body(AggFunc::Min, &[]),
        aggregate_tree(AggFunc::Min, &[])
    );

    // Error bodies.
    for e in awkward_errors() {
        let body = error_body(&e);
        assert_eq!(body, error_tree(&e).to_string());
        let parsed = Json::parse(&body).unwrap();
        let message = parsed.get("error").and_then(|x| x.get("message"));
        assert_eq!(message.and_then(Json::as_str), Some(e.to_string().as_str()));
    }
}

/// Characters the string generator draws from: every escape class,
/// plus plain and multi-byte text.
const TEXT: [char; 16] = [
    'a',
    'Z',
    '7',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '✓',
    '\u{1F600}',
];

fn text(codes: &[u8]) -> String {
    codes
        .iter()
        .map(|&c| TEXT[c as usize % TEXT.len()])
        .collect()
}

/// A number from a generated `(selector, unit)` pair: mostly
/// probabilities in `[0, 1)`, sometimes an edge value.
fn number((selector, unit): (u8, f64)) -> f64 {
    match selector {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 9_007_199_254_740_992.0,
        5 => -9_007_199_254_740_994.0,
        6 => (unit * 1e6).round(),
        7 => -unit * 1e-9,
        _ => unit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Proptest arm: arbitrary responses, batches, top-k and aggregate
    /// bodies and error messages print the same bytes through the
    /// writer as through the tree form.
    #[test]
    fn random_served_bodies_writer_eq_tree(
        answers in proptest::collection::vec(
            (
                (0u8..12, 0.0f64..1.0),
                proptest::collection::vec(0u32..5000, 0..4),
                proptest::collection::vec(proptest::collection::vec(0u32..100_000, 0..5), 0..4),
            ),
            0..6,
        ),
        rows in proptest::collection::vec(
            (0u32..200, (0u8..12, 0.0f64..1.0), (0u8..12, 0.0f64..1.0), proptest::prop::bool::ANY),
            0..5,
        ),
        marginal in ((0u8..12, 0.0f64..1.0), 0u8..3),
        counters in (0u64..u64::MAX, 0usize..500),
        message in proptest::collection::vec(0u8..64, 0..40),
        engine_name in proptest::collection::vec(0u8..64, 0..12),
        k in 0usize..8,
    ) {
        let answers: Vec<Answer> = answers
            .into_iter()
            .map(|(p, mappings, matches)| Answer {
                probability: number(p),
                mappings: mappings.into_iter().map(MappingId).collect(),
                matches: matches
                    .into_iter()
                    .map(|nodes| TwigMatch { nodes: nodes.into_iter().map(DocNodeId).collect() })
                    .collect(),
            })
            .collect();
        let aggregate = (marginal.1 > 0).then(|| AggregateResult {
            func: [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max][rows.len() % 4],
            rows: rows
                .iter()
                .map(|&(m, p, v, defined)| AggRow {
                    mapping: MappingId(m),
                    probability: number(p),
                    value: defined.then(|| number(v)),
                })
                .collect(),
            marginal: (marginal.1 > 1).then(|| number(marginal.0)),
        });
        let plan = Plan { evaluator: Evaluator::Compiled, reason: PlanReason::KindDefault };
        let stats = ExecStats {
            backend: Evaluator::Naive,
            ..ExecStats::new(plan, counters.1, counters.0)
        };
        let response = QueryResponse { answers: answers.clone(), aggregate: aggregate.clone(), stats };
        let explain = Explain { plan, program: None };
        let tree = response.to_json().to_string();
        prop_assert_eq!(response.to_json_string(), tree.clone());
        prop_assert_eq!(query_body(&response, None), tree.clone());
        prop_assert_eq!(query_body(&response, Some(&explain)), query_tree(&response, Some(&explain)));
        prop_assert_eq!(Json::parse(&tree).map(|v| v.to_string()), Ok(tree));

        let message = text(&message);
        let errors = [
            UxmError::Json(message.clone()),
            UxmError::UnknownEngine(message.clone()),
            UxmError::Internal(message.clone()),
        ];
        for e in &errors {
            let body = error_body(e);
            prop_assert_eq!(&body, &error_tree(e).to_string());
            let parsed = Json::parse(&body).map_err(|x| TestCaseError::fail(format!("{body}: {x}")))?;
            let message = parsed.get("error").and_then(|x| x.get("message")).and_then(Json::as_str);
            prop_assert_eq!(message, Some(e.to_string().as_str()));
        }
        let results: Vec<Result<QueryResponse, UxmError>> =
            vec![Ok(response.clone()), Err(errors[0].clone()), Ok(response), Err(errors[1].clone())];
        prop_assert_eq!(batch_body(&results), batch_tree(&results));

        let name = text(&engine_name);
        let topk: Vec<TopKAnswer> = answers
            .into_iter()
            .map(|a| TopKAnswer {
                engine: name.clone(),
                probability: a.probability,
                mappings: a.mappings,
                matches: a.matches,
            })
            .collect();
        prop_assert_eq!(topk_body(&topk, k), topk_tree(&topk, k));

        if let Some(aggregate) = aggregate {
            let entries = vec![(name.clone(), aggregate.clone()), (message, aggregate.clone())];
            prop_assert_eq!(
                aggregate_body(aggregate.func, &entries),
                aggregate_tree(aggregate.func, &entries)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Proptest arm: answers draw their match sets from a small pool of
    /// shared allocations in a random interleaving (A B A C B …). The
    /// pool holds empty sets and two allocations equal in content. The
    /// writer renders a repeated allocation once per body and copies its
    /// bytes after that; `/query` (with and without `explain`),
    /// `/batch` and `/topk` bodies must still print the tree form's
    /// bytes. Dropping the pool first leaves sets picked once unshared,
    /// so the direct path runs in the same bodies.
    #[test]
    fn shared_match_sets_writer_eq_tree(
        sets in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u32..100_000, 0..4), 0..3),
            1..5,
        ),
        picks in proptest::collection::vec((0usize..64, 0u32..5000, (0u8..12, 0.0f64..1.0)), 0..12),
        twin in 0usize..8,
        keep_pool in proptest::prop::bool::ANY,
        k in 0usize..14,
    ) {
        let mut pool: Vec<Arc<[TwigMatch]>> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|nodes| TwigMatch { nodes: nodes.iter().map(|&n| DocNodeId(n)).collect() })
                    .collect()
            })
            .collect();
        let twin: Vec<TwigMatch> = pool[twin % pool.len()].to_vec();
        pool.push(twin.into());
        pool.push(Vec::new().into());
        pool.push(Vec::new().into());
        let answers: Vec<Answer> = picks
            .iter()
            .map(|&(i, m, p)| Answer {
                probability: number(p),
                mappings: vec![MappingId(m)],
                matches: Arc::clone(&pool[i % pool.len()]),
            })
            .collect();
        if !keep_pool {
            drop(pool);
        }
        let plan = Plan { evaluator: Evaluator::Compiled, reason: PlanReason::KindDefault };
        let stats = ExecStats::new(plan, answers.len(), 42);
        let response = QueryResponse { answers: answers.clone(), aggregate: None, stats };
        let explain = Explain { plan, program: None };
        let tree = response.to_json().to_string();
        prop_assert_eq!(query_body(&response, None), tree.clone());
        prop_assert_eq!(query_body(&response, Some(&explain)), query_tree(&response, Some(&explain)));

        // A batch repeats the response (one allocation set across items)
        // and adds one whose answers run in reverse.
        let mut reversed = response.clone();
        reversed.answers.reverse();
        let results: Vec<Result<QueryResponse, UxmError>> = vec![
            Ok(response.clone()),
            Err(UxmError::Internal("between".into())),
            Ok(reversed),
            Ok(response),
        ];
        prop_assert_eq!(batch_body(&results), batch_tree(&results));

        let topk: Vec<TopKAnswer> = answers
            .into_iter()
            .enumerate()
            .map(|(i, a)| TopKAnswer {
                engine: ["a", "b"][i % 2].into(),
                probability: a.probability,
                mappings: a.mappings,
                matches: a.matches,
            })
            .collect();
        prop_assert_eq!(topk_body(&topk, k), topk_tree(&topk, k));
    }
}

/// Every golden canonical query pinned byte-exact above (the
/// `docs/wire-format.md` and `docs/query-language.md` examples), built
/// the same way.
fn golden_queries() -> Vec<Query> {
    let p = |s: &str| TwigPattern::parse(s).unwrap();
    let mut queries = vec![
        Query::ptq(p("//Line//Qty")),
        Query::topk(p("PO/Line[./No]//Qty"), 3)
            .with_evaluator(EvaluatorHint::Naive)
            .with_granularity(Granularity::Distinct)
            .with_min_probability(0.25),
        Query::keyword(vec!["Qty".into(), "order".into()]),
        Query::aggregate(p("//Line//Qty"), AggFunc::Sum)
            .with_evaluator(EvaluatorHint::Compiled)
            .with_min_probability(0.25),
    ];
    for pattern in [
        "//Line/Qty[.>=1.5]",
        "//Line/Qty[text()='42']",
        "//A[contains(.,'x y')]",
        "//A[@id='7'][@n<-2]",
        "//A[.<=2.50]/*",
        "Order//*[.>10]",
    ] {
        queries.push(Query::ptq(p(pattern)));
    }
    for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
        queries.push(Query::aggregate(p("//Line//Qty"), func));
    }
    queries
}

/// Deterministic mutants of `texts`: every truncation, every repeat of
/// a 1-, 2-, 5- or 13-byte segment, and splices of every pair (a prefix
/// of one, the rest of another, cut at the same offset). Cuts fall on
/// char boundaries, so every mutant is a string.
fn mutants(texts: &[String]) -> Vec<String> {
    let cuts = |s: &str| {
        (0..=s.len())
            .filter(|&i| s.is_char_boundary(i))
            .collect::<Vec<_>>()
    };
    let mut out = Vec::new();
    for a in texts {
        let at = cuts(a);
        for &i in &at {
            out.push(a[..i].to_string());
            for len in [1, 2, 5, 13] {
                if at.contains(&(i + len)) {
                    out.push(format!("{}{}", &a[..i + len], &a[i..]));
                }
            }
        }
        for b in texts {
            for &i in at.iter().filter(|&&i| b.is_char_boundary(i.min(b.len()))) {
                out.push(format!("{}{}", &a[..i], &b[i.min(b.len())..]));
            }
        }
    }
    out
}

/// One mutant must be a typed `UxmError`, or a query that round-trips
/// byte-stably and that the fixture engine answers, or refuses with a
/// typed error, under every evaluator hint.
fn check_mutant(engine: &QueryEngine, text: &str) {
    let Ok(query) = Query::from_json_str(text) else {
        return;
    };
    let once = query.to_json_string();
    let again = Query::from_json_str(&once).unwrap_or_else(|e| panic!("{once} re-parse: {e}"));
    assert_eq!(again, query, "lossless: {once}");
    assert_eq!(again.to_json_string(), once, "byte-stable: {once}");
    for hint in [
        EvaluatorHint::Auto,
        EvaluatorHint::Naive,
        EvaluatorHint::BlockTree,
        EvaluatorHint::Compiled,
    ] {
        let _typed: Result<QueryResponse, UxmError> =
            engine.run(&query.clone().with_evaluator(hint));
    }
}

/// Never-panic arm: splices, repeats and truncations of every golden
/// canonical query, and of its twig text inside that query, parse to a
/// typed error or to a query the engine runs; a panic names its mutant.
#[test]
fn mutated_golden_queries_never_panic() {
    let engine = po_engine();
    let golden: Vec<String> = golden_queries().iter().map(Query::to_json_string).collect();
    let mut cases = mutants(&golden);
    let patterns: Vec<String> = golden_queries()
        .iter()
        .filter_map(|q| Json::parse(&q.to_json_string()).ok())
        .filter_map(|j| j.get("pattern").and_then(Json::as_str).map(str::to_string))
        .collect();
    for pattern in mutants(&patterns) {
        let mut query = Json::parse(&golden[0]).unwrap();
        if let Json::Obj(members) = &mut query {
            for (key, value) in members.iter_mut() {
                if key == "pattern" {
                    *value = Json::str(&pattern);
                }
            }
        }
        cases.push(query.to_string());
    }
    assert!(cases.len() > 10_000, "{} mutants", cases.len());
    for text in &cases {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check_mutant(&engine, text)));
        assert!(outcome.is_ok(), "mutant {text:?} panicked");
    }
}
