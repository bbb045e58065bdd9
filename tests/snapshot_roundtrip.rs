//! Engine-snapshot persistence: encode→decode must preserve query
//! answers on every Table II dataset, arbitrary corruption must never
//! panic, and every snapshot-specific `DecodeError` variant must be
//! reachable from a decoder that started with valid bytes.

use proptest::prelude::*;
use uxm::core::api::{EvaluatorHint, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::core::storage::{decode_engine_snapshot, encode_engine_snapshot, DecodeError};
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::datagen::queries::paper_queries;
use uxm::xml::{DocGenConfig, Document};

fn engine(id: DatasetId, m: usize, nodes: usize) -> QueryEngine {
    let d = Dataset::load(id);
    let pm = PossibleMappings::top_h(&d.matching, m);
    let doc = Document::generate(
        &d.matching.source,
        &DocGenConfig {
            target_nodes: nodes,
            max_repeat: 3,
            text_prob: 0.7,
        },
        0xBEEF,
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

/// The acceptance-criterion property: a snapshot saved and rehydrated
/// gives byte-identical PTQ (and top-k, and keyword) results, on every
/// Table II dataset.
#[test]
fn snapshot_roundtrip_preserves_answers_on_every_dataset() {
    let queries = paper_queries();
    for id in DatasetId::all() {
        let original = engine(id, 12, 250);
        let bytes = encode_engine_snapshot(&original);
        let back = decode_engine_snapshot(&bytes).expect("snapshot decodes");
        let name = id.name();

        // A decoded engine holds no block tree; only a pinned block-tree
        // run builds one.
        let spot = &queries[1];
        assert_eq!(back.footprint().block_tree, 0, "{name}: hydrated tree");
        for hint in [
            EvaluatorHint::Auto,
            EvaluatorHint::Naive,
            EvaluatorHint::Compiled,
        ] {
            back.run(&Query::ptq(spot.clone()).with_evaluator(hint))
                .unwrap();
            assert_eq!(back.footprint().block_tree, 0, "{name}: {hint:?} run");
        }
        back.run(&Query::ptq(spot.clone()).with_evaluator(EvaluatorHint::BlockTree))
            .unwrap();
        assert!(back.footprint().block_tree > 0, "{name}: block-tree run");

        assert_eq!(back.source(), original.source(), "{name}: source schema");
        assert_eq!(back.target(), original.target(), "{name}: target schema");
        assert_eq!(
            back.tree().blocks(),
            original.tree().blocks(),
            "{name}: block tree"
        );
        for (a, b) in back.mappings().iter().zip(original.mappings().iter()) {
            assert_eq!(a, b, "{name}: mapping");
        }
        // Spot queries across evaluators; all ten on the D7 vocabulary.
        let spots: &[usize] = if id == DatasetId::D7 {
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        } else {
            &[2, 7, 10]
        };
        let same = |query: &Query, what: &str| {
            assert_eq!(
                back.run(query).unwrap().answers,
                original.run(query).unwrap().answers,
                "{name}: {what}"
            );
        };
        for &qi in spots {
            let q = &queries[qi - 1];
            for hint in [EvaluatorHint::BlockTree, EvaluatorHint::Naive] {
                let query = Query::ptq(q.clone()).with_evaluator(hint);
                same(&query, &format!("Q{qi} ptq {hint:?}"));
            }
            let topk = Query::topk(q.clone(), 5).with_evaluator(EvaluatorHint::BlockTree);
            same(&topk, &format!("Q{qi} topk"));
        }
        same(&Query::keyword(vec!["order".to_string()]), "keyword");
    }
}

/// Re-encoding a decoded snapshot is byte-stable (the codec has one
/// canonical form), so snapshot files can be compared by hash.
#[test]
fn snapshot_reencode_is_byte_identical() {
    let original = engine(DatasetId::D4, 10, 200);
    let bytes = encode_engine_snapshot(&original);
    let back = decode_engine_snapshot(&bytes).unwrap();
    assert_eq!(encode_engine_snapshot(&back), bytes);
    assert_eq!(back.footprint().block_tree, 0, "encoding builds no tree");
}

/// One valid snapshot, built once and shared by all property cases.
fn valid_snapshot() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| encode_engine_snapshot(&engine(DatasetId::D1, 6, 120)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flipping any byte of a valid snapshot yields `Ok` or a clean
    /// `DecodeError` — never a panic.
    #[test]
    fn corrupt_snapshot_never_panics(pos in 0usize..1 << 16, xor in 1u8..=255) {
        let bytes = valid_snapshot();
        let mut corrupt = bytes.to_vec();
        let p = pos % corrupt.len();
        corrupt[p] ^= xor;
        let _ = decode_engine_snapshot(&corrupt);
    }

    /// Truncating a valid snapshot at any point errors, never succeeds or
    /// panics.
    #[test]
    fn truncated_snapshot_always_errors(cut_seed in 0usize..1 << 16) {
        let bytes = valid_snapshot();
        let cut = cut_seed % bytes.len();
        prop_assert!(decode_engine_snapshot(&bytes[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------
// every snapshot-specific DecodeError variant

/// LEB128, mirrored from the codec for byte surgery.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn header() -> Vec<u8> {
    // The handcrafted payloads below are v2 bodies (varint sections), so
    // the version is pinned to 2 — under the v3 default they would hit
    // the fixed-width sectioned decoder instead.
    let mut out = Vec::from(*b"UXMS");
    varint(&mut out, 2);
    out
}

#[test]
fn unsupported_version_variant() {
    let mut bytes = encode_engine_snapshot(&engine(DatasetId::D1, 4, 80));
    bytes[4] = 0x7F; // the version varint sits right after the magic
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::UnsupportedVersion(0x7F)
    );
    // Version 0 (ancient) is rejected the same way.
    bytes[4] = 0;
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::UnsupportedVersion(0)
    );
}

#[test]
fn bad_string_variant() {
    let mut bytes = header();
    varint(&mut bytes, 3); // schema name of length 3...
    bytes.extend_from_slice(&[0xC3, 0x28, 0x41]); // ...broken UTF-8
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::BadString
    );
}

#[test]
fn malformed_variant() {
    // Schema with zero nodes.
    let mut empty = header();
    put_str(&mut empty, "source");
    varint(&mut empty, 0);
    assert_eq!(
        decode_engine_snapshot(&empty).unwrap_err(),
        DecodeError::Malformed
    );

    // Schema node whose parent does not precede it in pre-order.
    let mut cyclic = header();
    put_str(&mut cyclic, "source");
    varint(&mut cyclic, 2);
    put_str(&mut cyclic, "Root");
    cyclic.push(0);
    put_str(&mut cyclic, "Child");
    varint(&mut cyclic, 1); // its own id — a cycle
    cyclic.push(0);
    assert_eq!(
        decode_engine_snapshot(&cyclic).unwrap_err(),
        DecodeError::Malformed
    );
}

#[test]
fn bad_magic_and_truncated_variants() {
    let bytes = encode_engine_snapshot(&engine(DatasetId::D1, 4, 80));
    // A mapping-set file is not a snapshot.
    assert_eq!(
        decode_engine_snapshot(b"UXM1rest").unwrap_err(),
        DecodeError::BadMagic
    );
    assert_eq!(
        decode_engine_snapshot(&bytes[..3]).unwrap_err(),
        DecodeError::Truncated
    );
    assert_eq!(
        decode_engine_snapshot(&bytes[..bytes.len() - 1]).unwrap_err(),
        DecodeError::Truncated
    );
}

#[test]
fn id_out_of_range_variant_through_embedded_payload() {
    // Corrupt the embedded block-compressed payload: find the "UXM1"
    // magic inside the committed v1 fixture and bump a stored anchor id
    // to the target-schema length, which the inner decoder must reject.
    // Only v1 snapshots embed the "UXM1" payload (v2 inlines the block
    // section), so this pins the legacy decode path.
    let bytes = std::fs::read("tests/fixtures/snapshot_v1.uxm").expect("v1 fixture committed");
    let e = decode_engine_snapshot(&bytes).expect("v1 fixture decodes");
    assert!(e.tree().block_count() > 0, "fixture has a first block");
    let inner = bytes
        .windows(4)
        .position(|w| w == b"UXM1")
        .expect("v1 fixture carries the embedded UXM1 payload");
    // Layout after the inner magic: varint min_support, varint n_blocks,
    // varint anchor-of-first-block. For the fixture each fits one byte.
    let anchor_pos = inner + 6;
    let mut corrupt = bytes.clone();
    corrupt[anchor_pos] = e.target().len() as u8; // one past the last id
    match decode_engine_snapshot(&corrupt) {
        Err(DecodeError::IdOutOfRange) => {}
        other => panic!("expected IdOutOfRange, got {other:?}"),
    }
}
