//! The paper's running example (§I, Figures 1–3): XCBL vs OpenTrans
//! purchase orders, where `CONTACT_NAME` of the invoice party has three
//! near-tied candidate correspondences.
//!
//! Reproduces the introduction's query answer
//! `{("Cathy", 0.3), ("Bob", 0.3), ("Alice", 0.2)}`.
//!
//! ```sh
//! cargo run --release --example purchase_order
//! ```

use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::prelude::*;
use uxm::xml::parse_document;

fn main() {
    // Fig. 1(a): the source schema, with the paper's element labels
    // (BCN / RCN / OCN are the three ContactName elements).
    let source = Schema::parse_outline("Order(BP(BOC(BCN) ROC(RCN) OOC(OCN)) SP(SCN))").unwrap();
    // Fig. 1(b): the target schema.
    let target = Schema::parse_outline("ORDER(INVOICE_PARTY(CONTACT_NAME))").unwrap();

    // Fig. 2: the source document.
    let doc = parse_document(
        "<Order>\
           <BP>\
             <BOC><BCN>Cathy</BCN></BOC>\
             <ROC><RCN>Bob</RCN></ROC>\
             <OOC><OCN>Alice</OCN></OOC>\
           </BP>\
           <SP><SCN>Dave</SCN></SP>\
         </Order>",
    )
    .unwrap();

    // The three possible mappings of the introduction, with probabilities
    // 0.3 / 0.3 / 0.2 (the remaining 0.2 is an irrelevant mapping).
    let s = |l: &str| source.nodes_with_label(l)[0];
    let t = |l: &str| target.nodes_with_label(l)[0];
    let mappings = PossibleMappings::from_pairs(
        source.clone(),
        target.clone(),
        vec![
            (
                vec![(s("BP"), t("INVOICE_PARTY")), (s("BCN"), t("CONTACT_NAME"))],
                0.3,
            ),
            (
                vec![(s("BP"), t("INVOICE_PARTY")), (s("RCN"), t("CONTACT_NAME"))],
                0.3,
            ),
            (
                vec![(s("BP"), t("INVOICE_PARTY")), (s("OCN"), t("CONTACT_NAME"))],
                0.2,
            ),
            (vec![(s("Order"), t("ORDER"))], 0.2),
        ],
    );

    // The introduction's query: Q = //IP//ICN, asked through the unified
    // entry point — one session, one typed query, one response shape.
    let tree = BlockTree::build(
        &mappings.target,
        &mappings,
        &BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        },
    );
    let engine = QueryEngine::new(mappings, doc, tree);
    let q = TwigPattern::parse("//INVOICE_PARTY//CONTACT_NAME").unwrap();
    let query = Query::ptq(q);
    println!("query: {query}\n");

    let response = engine.run(&query).unwrap();
    let doc = engine.document();
    println!("PTQ answers (one per relevant mapping):");
    for a in &response.answers {
        for m in a.matches.iter() {
            let name = doc.text(m.nodes[1]).unwrap_or("?");
            println!("  ({name:?}, {:.1})", a.probability);
        }
    }

    // The auto plan ran the PTQ kind's default evaluator (compiled);
    // pinning either of the paper's algorithms returns identical
    // answers — the choice is pure performance.
    for hint in [EvaluatorHint::Naive, EvaluatorHint::BlockTree] {
        let pinned = engine.run(&query.clone().with_evaluator(hint)).unwrap();
        assert_eq!(response.answers, pinned.answers);
    }
    println!(
        "\nblock tree: {} c-blocks; auto plan chose {} ({}); both pinned \
         evaluators returned identical answers",
        engine.tree().block_count(),
        response.stats.plan.evaluator,
        response.stats.plan.reason,
    );
}
