//! End-to-end integration tests: matcher → possible mappings → block tree
//! → PTQ, across generated datasets and the paper's query workload.

use uxm::core::api::{Answer, EvaluatorHint, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::compress::{compress, compression_ratio};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::core::stats::o_ratio;
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::datagen::queries::paper_queries;
use uxm::twig::TwigPattern;
use uxm::xml::{DocGenConfig, Document};

/// The paper's query workload (D7: XCBL → Apertum), sized down for test
/// speed and shared across tests.
fn workload() -> &'static (PossibleMappings, Document, BlockTree) {
    static WORKLOAD: std::sync::OnceLock<(PossibleMappings, Document, BlockTree)> =
        std::sync::OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let d = Dataset::load(DatasetId::D7);
        let pm = PossibleMappings::top_h(&d.matching, 40);
        let doc = Document::generate(
            &d.matching.source,
            &DocGenConfig {
                target_nodes: 800,
                max_repeat: 4,
                text_prob: 0.8,
            },
            11,
        );
        let tree = BlockTree::build(&d.matching.target, &pm, &BlockTreeConfig::default());
        (pm, doc, tree)
    })
}

/// One query session over [`workload`].
fn engine() -> &'static QueryEngine {
    static ENGINE: std::sync::OnceLock<QueryEngine> = std::sync::OnceLock::new();
    ENGINE.get_or_init(|| {
        let (pm, doc, tree) = workload();
        QueryEngine::new(pm.clone(), doc.clone(), tree.clone())
    })
}

/// `q` as a PTQ pinned to Algorithm 3 (`Naive`) or 4 (`BlockTree`).
fn ptq(q: &TwigPattern, hint: EvaluatorHint) -> Vec<Answer> {
    let query = Query::ptq(q.clone()).with_evaluator(hint);
    engine().run(&query).unwrap().answers
}

#[test]
fn basic_and_block_tree_agree_on_all_paper_queries() {
    for (i, q) in paper_queries().iter().enumerate() {
        assert_eq!(
            ptq(q, EvaluatorHint::Naive),
            ptq(q, EvaluatorHint::BlockTree),
            "Q{} differs",
            i + 1
        );
    }
}

#[test]
fn paper_queries_have_answers_on_d6() {
    let mut answered = 0;
    for q in &paper_queries() {
        let res = ptq(q, EvaluatorHint::BlockTree);
        if res.iter().any(|a| !a.matches.is_empty()) {
            answered += 1;
        }
    }
    assert!(
        answered >= 6,
        "only {answered}/10 queries found matches — workload too sparse"
    );
}

#[test]
fn probabilities_are_a_distribution() {
    let (pm, _, _) = workload();
    let total: f64 = pm.iter().map(|(_, m)| m.prob).sum();
    assert!((total - 1.0).abs() < 1e-9);
    assert!(pm.iter().all(|(_, m)| m.prob >= 0.0));
}

#[test]
fn mappings_are_one_to_one() {
    let (pm, _, _) = workload();
    for (_, m) in pm.iter() {
        let mut targets: Vec<_> = m.pairs.iter().map(|p| p.1).collect();
        targets.sort_unstable();
        let before = targets.len();
        targets.dedup();
        assert_eq!(before, targets.len(), "duplicate target in mapping");
        let mut sources: Vec<_> = m.pairs.iter().map(|p| p.0).collect();
        sources.sort_unstable();
        let before = sources.len();
        sources.dedup();
        assert_eq!(before, sources.len(), "duplicate source in mapping");
    }
}

#[test]
fn block_tree_blocks_satisfy_definition_on_real_workload() {
    let (pm, _, tree) = workload();
    for b in tree.blocks() {
        b.validate(&pm.target, pm, tree.min_support)
            .unwrap_or_else(|e| panic!("invalid block: {e}"));
    }
}

#[test]
fn compression_is_lossless_on_real_workload() {
    let (pm, _, tree) = workload();
    let cm = compress(pm, tree);
    for (mid, m) in pm.iter() {
        assert_eq!(cm.reconstruct(tree, mid), m.pairs, "mapping {mid:?}");
    }
}

#[test]
fn compression_saves_space_on_overlapping_mappings() {
    let (pm, _, tree) = workload();
    let ratio = compression_ratio(pm, tree);
    assert!(
        ratio > 0.0,
        "expected positive compression on o-ratio {:.2} workload, got {ratio:.3}",
        o_ratio(pm)
    );
}

#[test]
fn topk_is_prefix_of_full_by_probability() {
    let q = &paper_queries()[9];
    let full = ptq(q, EvaluatorHint::BlockTree);
    for k in [1, 5, 20] {
        let topk = Query::topk(q.clone(), k).with_evaluator(EvaluatorHint::BlockTree);
        let top = engine().run(&topk).unwrap().answers;
        assert!(top.len() <= k);
        // every top-k answer matches the full result for its mapping
        for a in &top {
            let f = full
                .iter()
                .find(|f| f.mappings == a.mappings)
                .expect("mapping in full result");
            assert_eq!(f.matches, a.matches);
        }
        // and no skipped mapping has higher probability than the lowest kept
        let min_kept = top
            .iter()
            .map(|a| a.probability)
            .fold(f64::INFINITY, f64::min);
        let kept: Vec<_> = top.iter().map(|a| &a.mappings).collect();
        for f in &full {
            if !kept.contains(&&f.mappings) {
                assert!(f.probability <= min_kept + 1e-12);
            }
        }
    }
}

#[test]
fn tau_one_blocks_are_universal() {
    let (pm, _, _) = workload();
    let tree = BlockTree::build(
        &pm.target.clone(),
        pm,
        &BlockTreeConfig {
            tau: 1.0,
            ..BlockTreeConfig::default()
        },
    );
    for b in tree.blocks() {
        assert_eq!(b.support(), pm.len(), "tau=1 blocks must span all mappings");
    }
}

#[test]
fn generated_document_conforms_to_source_schema() {
    let d = Dataset::load(DatasetId::D6);
    let doc = Document::generate(&d.matching.source, &DocGenConfig::order_xml(), 3);
    let schema_paths: std::collections::HashSet<String> = d
        .matching
        .source
        .ids()
        .map(|id| d.matching.source.path(id).replace('.', "/"))
        .collect();
    for id in doc.ids() {
        assert!(
            schema_paths.contains(&doc.path(id)),
            "bad path {}",
            doc.path(id)
        );
    }
}

#[test]
fn xml_roundtrip_of_generated_document() {
    let d = Dataset::load(DatasetId::D1);
    let doc = Document::generate(&d.matching.source, &DocGenConfig::small(), 5);
    let xml = uxm::xml::writer::to_xml(&doc);
    let back = uxm::xml::parse_document(&xml).unwrap();
    assert_eq!(doc.len(), back.len());
    assert_eq!(uxm::xml::writer::to_xml(&back), xml);
}
