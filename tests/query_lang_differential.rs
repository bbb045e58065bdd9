//! The query-language differential: an **independent naive oracle**,
//! re-implemented from the documented semantics
//! (`docs/query-language.md`) using only public `Document` / `Schema` /
//! `PossibleMappings` accessors — deliberately slow, never touching the
//! engine's evaluators, session state, or the twig matchers — checked
//! against all three backends (naive, block-tree, compiled) for every
//! new syntax form: value predicates (`=`, `contains`, numeric ranges,
//! `@attr` targets), descendant axes, wildcards, and aggregates, across
//! all ten Table II datasets and every evaluator hint.
//!
//! Two layers of assertion:
//!
//! 1. **backend agreement** — all hints return *identical* answers
//!    (full structural equality, f64 bits included); plan choice is a
//!    pure performance decision;
//! 2. **oracle agreement** — the naive hint's answers equal the
//!    oracle's independently derived relevant-mapping set, mapping
//!    probabilities, and match sets (compared as sorted sets; the
//!    oracle enumerates embeddings in its own order).
//!
//! Aggregates compare exactly across backends and within `1e-9` of the
//! oracle (its fold order may differ, which is f64-visible for `sum`).

use uxm::core::aggregate::{AggFunc, AggregateResult};
use uxm::core::api::{Answer, EvaluatorHint, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::{MappingId, PossibleMappings};
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::twig::{Axis, PredOp, PredTarget, TwigMatch, TwigPattern, ValuePred};
use uxm::xml::{parse_document, DocGenConfig, DocNodeId, Document, Schema};

// ---------------------------------------------------------------------
// the oracle (from the docs, not the engine)

/// The documented numeric coercion: trim, parse as `f64`, finite only.
fn oracle_numeric(value: &str) -> Option<f64> {
    let v: f64 = value.trim().parse().ok()?;
    v.is_finite().then_some(v)
}

/// One value predicate, per `docs/query-language.md`: read the node's
/// text or named attribute; a missing value satisfies nothing; string
/// ops compare bytes; numeric ops coerce first and a non-numeric value
/// satisfies no numeric comparison.
fn oracle_pred_ok(pred: &ValuePred, n: DocNodeId, doc: &Document) -> bool {
    let value = match &pred.target {
        PredTarget::Text => doc.text(n),
        PredTarget::Attr(name) => doc.attr(n, name),
    };
    let Some(value) = value else {
        return false;
    };
    match &pred.op {
        PredOp::Eq(want) => value == want,
        PredOp::Contains(want) => value.contains(want.as_str()),
        PredOp::Lt(x) => oracle_numeric(value).is_some_and(|v| v < *x),
        PredOp::Le(x) => oracle_numeric(value).is_some_and(|v| v <= *x),
        PredOp::Gt(x) => oracle_numeric(value).is_some_and(|v| v > *x),
        PredOp::Ge(x) => oracle_numeric(value).is_some_and(|v| v >= *x),
    }
}

/// Proper-ancestor test by walking the parent chain (the slow way — the
/// engine uses pre/post region encoding; agreeing is the point).
fn oracle_is_ancestor(doc: &Document, anc: DocNodeId, mut n: DocNodeId) -> bool {
    while let Some(p) = doc.parent(n) {
        if p == anc {
            return true;
        }
        n = p;
    }
    false
}

/// All embeddings of the pattern into the document where query node `i`
/// may match labels `allowed[i]` (`None` = wildcard, any label), by
/// brute-force backtracking over every document node per pattern node.
fn oracle_matches(
    q: &TwigPattern,
    allowed: &[Option<Vec<String>>],
    doc: &Document,
) -> Vec<TwigMatch> {
    // Per query node: every document node passing label + predicates.
    let candidates: Vec<Vec<DocNodeId>> = q
        .ids()
        .map(|id| {
            doc.ids()
                .filter(|&n| match &allowed[id.idx()] {
                    Some(labels) => labels.iter().any(|l| l == doc.label_str(n)),
                    None => true,
                })
                .filter(|&n| q.node(id).preds.iter().all(|p| oracle_pred_ok(p, n, doc)))
                .collect()
        })
        .collect();

    let mut out = Vec::new();
    let mut chosen: Vec<DocNodeId> = Vec::new();
    assign(q, &candidates, doc, &mut chosen, &mut out);
    out.sort();
    out
}

/// Assign pattern nodes in pre-order (ids ascending: parents first).
fn assign(
    q: &TwigPattern,
    candidates: &[Vec<DocNodeId>],
    doc: &Document,
    chosen: &mut Vec<DocNodeId>,
    out: &mut Vec<TwigMatch>,
) {
    let idx = chosen.len();
    if idx == q.len() {
        out.push(TwigMatch {
            nodes: chosen.clone(),
        });
        return;
    }
    let id = uxm::twig::PatternNodeId(idx as u32);
    let node = q.node(id);
    for &n in &candidates[idx] {
        let structural_ok = match node.parent {
            // Root: a `/`-anchored pattern must sit on the document root.
            None => match node.axis {
                Axis::Child => n == doc.root(),
                Axis::Descendant => true,
            },
            Some(parent) => {
                let p = chosen[parent.idx()];
                match node.axis {
                    Axis::Child => doc.parent(n) == Some(p),
                    Axis::Descendant => oracle_is_ancestor(doc, p, n),
                }
            }
        };
        if structural_ok {
            chosen.push(n);
            assign(q, candidates, doc, chosen, out);
            chosen.pop();
        }
    }
}

/// One oracle answer: a relevant mapping, its probability, its matches.
struct OracleAnswer {
    mapping: MappingId,
    probability: f64,
    matches: Vec<TwigMatch>,
}

/// The documented PTQ semantics end to end: per mapping, rewrite each
/// non-wildcard query label through the mapping (target schema nodes
/// with that label → their mapped source nodes → source labels); a
/// mapping with an unmappable non-wildcard node is irrelevant; the rest
/// answer with the rewritten pattern's embeddings.
fn oracle_ptq(q: &TwigPattern, pm: &PossibleMappings, doc: &Document) -> Vec<OracleAnswer> {
    let mut answers = Vec::new();
    for (id, m) in pm.iter() {
        let mut allowed: Vec<Option<Vec<String>>> = Vec::with_capacity(q.len());
        let mut relevant = true;
        for qid in q.ids() {
            let node = q.node(qid);
            if node.is_wildcard() {
                allowed.push(None);
                continue;
            }
            let mut labels: Vec<String> = pm
                .target
                .nodes_with_label(&node.label)
                .iter()
                .filter_map(|&t| m.source_for_target(t))
                .map(|s| pm.source.label(s).to_string())
                .collect();
            labels.sort();
            labels.dedup();
            if labels.is_empty() {
                relevant = false;
                break;
            }
            allowed.push(Some(labels));
        }
        if relevant {
            answers.push(OracleAnswer {
                mapping: id,
                probability: m.prob,
                matches: oracle_matches(q, &allowed, doc),
            });
        }
    }
    answers
}

/// The documented per-mapping aggregate fold, independently: count is
/// the match count; sum/min/max fold the numeric subject (spine-leaf)
/// values, undefined when no match contributes one.
fn oracle_row_value(
    func: AggFunc,
    matches: &[TwigMatch],
    q: &TwigPattern,
    doc: &Document,
) -> Option<f64> {
    if func == AggFunc::Count {
        return Some(matches.len() as f64);
    }
    let subject = q.spine_leaf();
    let values: Vec<f64> = matches
        .iter()
        .filter_map(|m| doc.text(m.nodes[subject.idx()]).and_then(oracle_numeric))
        .collect();
    let (&first, rest) = values.split_first()?;
    Some(rest.iter().fold(first, |acc, &v| match func {
        AggFunc::Count => unreachable!(),
        AggFunc::Sum => acc + v,
        AggFunc::Min => acc.min(v),
        AggFunc::Max => acc.max(v),
    }))
}

/// `Σ p·v / Σ p` over the defined rows, `None` when nothing defines a
/// value or no defining row carries mass.
fn oracle_marginal(rows: &[(f64, Option<f64>)]) -> Option<f64> {
    let (mut mass, mut acc, mut any) = (0.0, 0.0, false);
    for &(p, v) in rows {
        if let Some(v) = v {
            any = true;
            mass += p;
            acc += p * v;
        }
    }
    (any && mass > 0.0).then(|| acc / mass)
}

// ---------------------------------------------------------------------
// the differential harness

const HINTS: [EvaluatorHint; 4] = [
    EvaluatorHint::Auto,
    EvaluatorHint::Naive,
    EvaluatorHint::BlockTree,
    EvaluatorHint::Compiled,
];

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn sorted(mut matches: Vec<TwigMatch>) -> Vec<TwigMatch> {
    matches.sort();
    matches
}

/// Runs one PTQ under every hint, asserts full backend agreement, then
/// oracle agreement. Returns the (shared) answers for extra checks.
fn assert_ptq_differential(engine: &QueryEngine, q: &TwigPattern, label: &str) -> Vec<Answer> {
    let reference = engine
        .run(&Query::ptq(q.clone()).with_evaluator(HINTS[0]))
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .answers;
    for hint in &HINTS[1..] {
        let got = engine
            .run(&Query::ptq(q.clone()).with_evaluator(*hint))
            .unwrap()
            .answers;
        assert_eq!(got, reference, "{label}: {hint:?} diverges from auto");
        // Warm replay (every cache hot now) must change nothing.
        let warm = engine
            .run(&Query::ptq(q.clone()).with_evaluator(*hint))
            .unwrap()
            .answers;
        assert_eq!(warm, reference, "{label}: warm {hint:?} diverges");
    }

    let expected = oracle_ptq(q, engine.mappings(), engine.document());
    assert_eq!(
        reference.len(),
        expected.len(),
        "{label}: relevant-mapping count diverges from oracle"
    );
    for (got, want) in reference.iter().zip(&expected) {
        assert_eq!(got.mappings, vec![want.mapping], "{label}: mapping order");
        assert_eq!(
            got.probability.to_bits(),
            want.probability.to_bits(),
            "{label}: probability for {:?}",
            want.mapping
        );
        assert_eq!(
            sorted(got.matches.clone()),
            want.matches,
            "{label}: match set for {:?}",
            want.mapping
        );
    }
    reference
}

/// Runs one aggregate under every hint, asserts exact backend agreement
/// and oracle agreement within float tolerance.
fn assert_agg_differential(
    engine: &QueryEngine,
    q: &TwigPattern,
    func: AggFunc,
    label: &str,
) -> AggregateResult {
    let reference = engine
        .run(&Query::aggregate(q.clone(), func))
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .aggregate
        .unwrap_or_else(|| panic!("{label}: no aggregate block"));
    for hint in &HINTS[1..] {
        let got = engine
            .run(&Query::aggregate(q.clone(), func).with_evaluator(*hint))
            .unwrap()
            .aggregate
            .unwrap();
        assert_eq!(got, reference, "{label} {func}: {hint:?} diverges");
    }

    let expected = oracle_ptq(q, engine.mappings(), engine.document());
    assert_eq!(reference.rows.len(), expected.len(), "{label} {func}: rows");
    let mut oracle_rows = Vec::new();
    for (row, want) in reference.rows.iter().zip(&expected) {
        let value = oracle_row_value(func, &want.matches, q, engine.document());
        assert_eq!(row.mapping, want.mapping, "{label} {func}: row mapping");
        match (row.value, value) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!(close(a, b), "{label} {func}: {a} vs oracle {b}"),
            (a, b) => panic!("{label} {func}: definedness diverges ({a:?} vs {b:?})"),
        }
        oracle_rows.push((want.probability, value));
    }
    match (reference.marginal, oracle_marginal(&oracle_rows)) {
        (None, None) => {}
        (Some(a), Some(b)) => assert!(close(a, b), "{label} {func}: marginal {a} vs {b}"),
        (a, b) => panic!("{label} {func}: marginal definedness ({a:?} vs {b:?})"),
    }
    reference
}

/// One dataset's engine, sized to keep a 10-dataset sweep (with a
/// brute-force oracle behind it) affordable in debug builds.
fn dataset_engine(id: DatasetId) -> QueryEngine {
    let d = Dataset::load(id);
    let pm = PossibleMappings::top_h(&d.matching, 12);
    let doc = Document::generate(
        &d.matching.source,
        &DocGenConfig {
            target_nodes: 300,
            max_repeat: 3,
            text_prob: 0.7,
        },
        0x0D0C,
    );
    let tree = BlockTree::build(
        &d.matching.target,
        &pm,
        &BlockTreeConfig {
            tau: 0.2,
            ..BlockTreeConfig::default()
        },
    );
    QueryEngine::new(pm, doc, tree)
}

/// The new syntax forms, instantiated with real target-schema labels so
/// rewriting has something to do: `root` is the target root's label,
/// `a`/`b` the first two distinct non-root labels.
fn syntax_forms(root: &str, a: &str, b: &str) -> Vec<String> {
    vec![
        format!("//{a}"),
        format!("//{a}[contains(.,'e')]"),
        format!("//{a}[.>=1]"),
        format!("//{a}[.<3.5]"),
        format!("//{a}[@id='1']"),
        format!("//{a}[.='42']"),
        format!("//{b}//*"),
        format!("{root}//{a}"),
        format!("//{b}//{a}[contains(.,'a')][.>=0]"),
    ]
}

#[test]
fn all_backends_match_the_oracle_on_every_dataset() {
    for id in DatasetId::all() {
        let engine = dataset_engine(id);
        let target = &engine.mappings().target;
        let root = target.label(target.root()).to_string();
        let mut labels = target
            .ids()
            .map(|n| target.label(n).to_string())
            .filter(|l| *l != root);
        let a = labels.next().expect("target has a non-root label");
        let b = labels.find(|l| *l != a).unwrap_or_else(|| a.clone());
        for form in syntax_forms(&root, &a, &b) {
            let q = TwigPattern::parse(&form).unwrap_or_else(|e| panic!("{form}: {e}"));
            assert_ptq_differential(&engine, &q, &format!("{} {form}", id.name()));
        }
        // Aggregates over the plain and the predicated descendant form.
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            for form in [format!("//{a}"), format!("//{b}//{a}[.>=0]")] {
                let q = TwigPattern::parse(&form).unwrap();
                assert_agg_differential(&engine, &q, func, &format!("{} {form}", id.name()));
            }
        }
    }
}

// ---------------------------------------------------------------------
// a hand-built scenario where every predicate form actually selects

/// Three price mappings over a shop document with numeric text, a
/// non-numeric decoy, and attributes — so contains / ranges / attr
/// predicates and all four aggregates have non-trivial answers the test
/// can also pin by value, proving the differential is not vacuous.
fn shop_engine() -> QueryEngine {
    let source = Schema::parse_outline("Shop(BP(BPrice) RP(RPrice) Note)").unwrap();
    let target = Schema::parse_outline("SHOP(ITEM(PRICE))").unwrap();
    let s = {
        let source = source.clone();
        move |l: &str| source.nodes_with_label(l)[0]
    };
    let t = {
        let target = target.clone();
        move |l: &str| target.nodes_with_label(l)[0]
    };
    let pm = PossibleMappings::from_pairs(
        source,
        target.clone(),
        vec![
            (
                vec![
                    (s("Shop"), t("SHOP")),
                    (s("BP"), t("ITEM")),
                    (s("BPrice"), t("PRICE")),
                ],
                0.5,
            ),
            (
                vec![
                    (s("Shop"), t("SHOP")),
                    (s("RP"), t("ITEM")),
                    (s("RPrice"), t("PRICE")),
                ],
                0.3,
            ),
            (vec![(s("Shop"), t("SHOP"))], 0.2),
        ],
    );
    let doc = parse_document(
        "<Shop><BP><BPrice cur=\"usd\">10</BPrice><BPrice cur=\"eur\">7.5</BPrice>\
         <BPrice>n/a</BPrice></BP><RP><RPrice cur=\"usd\">3</RPrice></RP>\
         <Note>Bob</Note></Shop>",
    )
    .unwrap();
    let tree = BlockTree::build(&target, &pm, &BlockTreeConfig::default());
    QueryEngine::new(pm, doc, tree)
}

#[test]
fn predicates_select_and_agree_on_the_shop_scenario() {
    let engine = shop_engine();
    // (form, matches under m0 [BPrice], matches under m1 [RPrice])
    let cases = [
        ("//ITEM/PRICE", 3, 1),
        ("//ITEM/PRICE[.>=7.5]", 2, 0), // "n/a" is not numeric
        ("//ITEM/PRICE[.>7.5]", 1, 0),
        ("//ITEM/PRICE[.<3.5]", 0, 1),
        ("//ITEM/PRICE[contains(.,'/')]", 1, 0), // only "n/a"
        ("//ITEM/PRICE[.='10']", 1, 0),
        ("//ITEM/PRICE[@cur='usd']", 1, 1),
        ("//ITEM/PRICE[@cur='eur'][.<=8]", 1, 0), // conjunction
        ("//ITEM/PRICE[@cur>0]", 0, 0),           // attr never numeric
        ("//ITEM/*", 3, 1),                       // wildcard under ITEM
        ("SHOP//PRICE", 3, 1),                    // anchored root + descendant
        ("//ITEM/PRICE[.>100]", 0, 0),            // empty match sets kept
    ];
    for (form, m0, m1) in cases {
        let q = TwigPattern::parse(form).unwrap();
        let answers = assert_ptq_differential(&engine, &q, form);
        assert_eq!(answers.len(), 2, "{form}: both price mappings relevant");
        assert_eq!(
            (answers[0].matches.len(), answers[1].matches.len()),
            (m0, m1),
            "{form}: selected counts"
        );
    }
}

#[test]
fn aggregates_agree_and_pin_documented_values_on_the_shop_scenario() {
    let engine = shop_engine();
    let q = TwigPattern::parse("//ITEM/PRICE").unwrap();
    let pinned = [
        // (func, row values for m0/m1, marginal)
        (AggFunc::Count, [Some(3.0), Some(1.0)], Some(2.25)),
        (
            AggFunc::Sum,
            [Some(17.5), Some(3.0)],
            Some((0.5 * 17.5 + 0.3 * 3.0) / 0.8),
        ),
        (
            AggFunc::Min,
            [Some(7.5), Some(3.0)],
            Some((0.5 * 7.5 + 0.3 * 3.0) / 0.8),
        ),
        (
            AggFunc::Max,
            [Some(10.0), Some(3.0)],
            Some((0.5 * 10.0 + 0.3 * 3.0) / 0.8),
        ),
    ];
    for (func, rows, marginal) in pinned {
        let got = assert_agg_differential(&engine, &q, func, "shop //ITEM/PRICE");
        let values: Vec<Option<f64>> = got.rows.iter().map(|r| r.value).collect();
        assert_eq!(values, rows.to_vec(), "{func}: row values");
        assert_eq!(got.marginal, marginal, "{func}: marginal");
    }

    // Empty match sets: count is 0, the numeric folds are undefined —
    // and a fully undefined column has a null marginal.
    let none = TwigPattern::parse("//ITEM/PRICE[.>100]").unwrap();
    let count = assert_agg_differential(&engine, &none, AggFunc::Count, "shop empty count");
    assert_eq!(count.marginal, Some(0.0));
    let sum = assert_agg_differential(&engine, &none, AggFunc::Sum, "shop empty sum");
    assert!(sum.rows.iter().all(|r| r.value.is_none()));
    assert_eq!(sum.marginal, None);

    // Mixed definedness: only "n/a" matches `contains '/'`, so sum is
    // defined for neither mapping... except m1 has no match at all —
    // both rows are null and so is the marginal, while count stays 1/0.
    let decoy = TwigPattern::parse("//ITEM/PRICE[contains(.,'/')]").unwrap();
    let sum = assert_agg_differential(&engine, &decoy, AggFunc::Sum, "shop decoy sum");
    assert_eq!(sum.marginal, None, "non-numeric matches define no sum");
    let count = assert_agg_differential(&engine, &decoy, AggFunc::Count, "shop decoy count");
    assert_eq!(count.marginal, Some((0.5 * 1.0 + 0.3 * 0.0) / 0.8));
}
