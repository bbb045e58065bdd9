//! Property-based tests for the core contribution: block-tree invariants,
//! lossless compression, and exact agreement between the basic and
//! block-tree PTQ evaluators on arbitrary mapping sets and queries.

use proptest::prelude::*;
use uxm::core::api::{Answer, EvaluatorHint, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::compress::compress;
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::twig::TwigPattern;
use uxm::xml::{DocGenConfig, Document, Schema, SchemaNodeId};

/// `q`'s answers on a fresh session over `(pm, doc, tree)`, with the
/// evaluator pinned.
fn ptq(
    q: &TwigPattern,
    pm: &PossibleMappings,
    doc: &Document,
    tree: &BlockTree,
    hint: EvaluatorHint,
) -> Vec<Answer> {
    let engine = QueryEngine::new(pm.clone(), doc.clone(), tree.clone());
    let query = Query::ptq(q.clone()).with_evaluator(hint);
    engine.run(&query).unwrap().answers
}

/// Fixed schema pair with enough structure for interesting blocks.
fn schemas() -> (Schema, Schema) {
    let source = Schema::parse_outline(
        "Ord(BuyerA(NameA MailA) BuyerB(NameB MailB) Ship(Str City) \
         Item*(No Qty Price))",
    )
    .unwrap();
    let target = Schema::parse_outline(
        "PO(Cust(CName CMail) Dest(Street Town) Line(LineNo Quantity Amount))",
    )
    .unwrap();
    (source, target)
}

/// Strategy: a random set of 4–12 possible mappings. Each target element
/// picks among plausible source candidates (or none); duplicates in the
/// choice vector are filtered to keep mappings one-to-one.
fn mappings_strategy() -> impl Strategy<Value = PossibleMappings> {
    let (source, target) = schemas();
    let n_t = target.len();
    let n_s = source.len();
    proptest::collection::vec(proptest::collection::vec(0usize..(n_s + 3), n_t), 4..12).prop_map(
        move |choice_sets| {
            let sets = choice_sets
                .into_iter()
                .enumerate()
                .map(|(i, choices)| {
                    let mut used = vec![false; n_s];
                    let mut pairs = Vec::new();
                    for (t_idx, s_choice) in choices.into_iter().enumerate() {
                        if s_choice < n_s && !used[s_choice] {
                            used[s_choice] = true;
                            pairs.push((SchemaNodeId(s_choice as u32), SchemaNodeId(t_idx as u32)));
                        }
                    }
                    (pairs, 1.0 + i as f64 * 0.1)
                })
                .collect();
            PossibleMappings::from_pairs(source.clone(), target.clone(), sets)
        },
    )
}

const QUERIES: [&str; 8] = [
    "PO/Line/Quantity",
    "PO//CMail",
    "PO[./Cust/CName]/Line[./LineNo]/Quantity",
    "//Line[./Amount]//LineNo",
    "PO/Dest[./Town]/Street",
    "//Cust//CName",
    "PO",
    "PO[./Dest/Street][./Cust/CMail]//Quantity",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocks_satisfy_definition(pm in mappings_strategy(), tau in 0.1f64..1.0) {
        let cfg = BlockTreeConfig { tau, ..BlockTreeConfig::default() };
        let tree = BlockTree::build(&pm.target.clone(), &pm, &cfg);
        for b in tree.blocks() {
            prop_assert!(
                b.validate(&pm.target, &pm, tree.min_support).is_ok(),
                "{:?}",
                b.validate(&pm.target, &pm, tree.min_support)
            );
        }
    }

    #[test]
    fn compression_roundtrips(pm in mappings_strategy(), tau in 0.1f64..1.0) {
        let cfg = BlockTreeConfig { tau, ..BlockTreeConfig::default() };
        let tree = BlockTree::build(&pm.target.clone(), &pm, &cfg);
        let cm = compress(&pm, &tree);
        for (mid, m) in pm.iter() {
            prop_assert_eq!(cm.reconstruct(&tree, mid), m.pairs);
        }
    }

    #[test]
    fn basic_equals_block_tree(
        pm in mappings_strategy(),
        tau in 0.1f64..0.9,
        seed in 0u64..50,
        q_idx in 0usize..QUERIES.len(),
    ) {
        let doc = Document::generate(
            &pm.source,
            &DocGenConfig { target_nodes: 120, max_repeat: 3, text_prob: 0.6 },
            seed,
        );
        let cfg = BlockTreeConfig { tau, ..BlockTreeConfig::default() };
        let tree = BlockTree::build(&pm.target.clone(), &pm, &cfg);
        let q = TwigPattern::parse(QUERIES[q_idx]).unwrap();
        let basic = ptq(&q, &pm, &doc, &tree, EvaluatorHint::Naive);
        let with_tree = ptq(&q, &pm, &doc, &tree, EvaluatorHint::BlockTree);
        prop_assert_eq!(basic, with_tree, "query {}", QUERIES[q_idx]);
    }

    #[test]
    fn block_caps_are_respected(pm in mappings_strategy(), max_b in 0usize..10) {
        let cfg = BlockTreeConfig {
            tau: 0.1,
            max_blocks: max_b,
            max_failures: 10,
        };
        let tree = BlockTree::build(&pm.target.clone(), &pm, &cfg);
        prop_assert!(tree.block_count() <= max_b);
    }

    #[test]
    fn fewer_blocks_never_changes_answers(
        pm in mappings_strategy(),
        seed in 0u64..20,
    ) {
        // Query correctness must be independent of MAX_B (paper §IV-B).
        let doc = Document::generate(
            &pm.source,
            &DocGenConfig { target_nodes: 100, max_repeat: 2, text_prob: 0.5 },
            seed,
        );
        let q = TwigPattern::parse("PO/Line/Quantity").unwrap();
        let full = BlockTree::build(&pm.target.clone(), &pm, &BlockTreeConfig::default());
        let capped = BlockTree::build(
            &pm.target.clone(),
            &pm,
            &BlockTreeConfig { max_blocks: 1, ..BlockTreeConfig::default() },
        );
        let a = ptq(&q, &pm, &doc, &full, EvaluatorHint::BlockTree);
        let b = ptq(&q, &pm, &doc, &capped, EvaluatorHint::BlockTree);
        prop_assert_eq!(a, b);
    }
}
