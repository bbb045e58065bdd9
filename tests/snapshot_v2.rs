//! Legacy snapshot formats v1 and v2: nothing writes them any more, but
//! the decoders stay. The committed golden fixtures must keep decoding
//! to engines that agree with each other and with a freshly built
//! engine, and arbitrary corruption of the v2 fixture's bytes must never
//! panic the columnar decode paths.

use proptest::prelude::*;
use uxm::core::api::{EvaluatorHint, Query};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::core::storage::{
    decode_engine_snapshot, encode_engine_snapshot, snapshot_version, DecodeError,
};
use uxm::twig::TwigPattern;
use uxm::xml::writer::to_xml;
use uxm::xml::{Document, Schema};

const V1_FIXTURE: &str = "tests/fixtures/snapshot_v1.uxm";
const V2_FIXTURE: &str = "tests/fixtures/snapshot_v2.uxm";
const V3_FIXTURE: &str = "tests/fixtures/snapshot_v3.uxm";

/// The fully deterministic engine behind the committed golden fixtures: no
/// matcher, no generator — explicit mappings over a hand-built document,
/// so any build of this repository reproduces it bit for bit.
fn fixture_engine() -> QueryEngine {
    let source = Schema::parse_outline(
        "Order(Buyer(Name Contact(EMail)) POLine(LineNo Quantity UnitPrice))",
    )
    .unwrap();
    let target =
        Schema::parse_outline("PO(Purchaser(PName PContact(PEMail)) Line(No Qty Amount))").unwrap();
    let s = |l: &str| source.nodes_with_label(l)[0];
    let t = |l: &str| target.nodes_with_label(l)[0];
    let pm = PossibleMappings::from_pairs(
        source.clone(),
        target.clone(),
        vec![
            (
                vec![
                    (s("Order"), t("PO")),
                    (s("Buyer"), t("Purchaser")),
                    (s("Name"), t("PName")),
                    (s("EMail"), t("PEMail")),
                    (s("LineNo"), t("No")),
                    (s("Quantity"), t("Qty")),
                    (s("UnitPrice"), t("Amount")),
                ],
                3.0,
            ),
            (
                vec![
                    (s("Order"), t("PO")),
                    (s("Buyer"), t("Purchaser")),
                    (s("Name"), t("PName")),
                    (s("EMail"), t("PEMail")),
                    (s("LineNo"), t("No")),
                    (s("UnitPrice"), t("Qty")),
                    (s("Quantity"), t("Amount")),
                ],
                2.0,
            ),
            (
                vec![
                    (s("Order"), t("PO")),
                    (s("Contact"), t("Purchaser")),
                    (s("EMail"), t("PName")),
                    (s("LineNo"), t("No")),
                    (s("Quantity"), t("Qty")),
                ],
                1.0,
            ),
        ],
    );
    let doc = {
        let mut b = Document::builder("Order");
        let root = b.root();
        let buyer = b.add_child(root, "Buyer");
        let name = b.add_child(buyer, "Name");
        b.set_text(name, "Ada");
        let contact = b.add_child(buyer, "Contact");
        let email = b.add_child(contact, "EMail");
        b.set_text(email, "ada@example.org");
        for (no, qty, price) in [("1", "3", "9.50"), ("2", "1", "4.25")] {
            let line = b.add_child(root, "POLine");
            b.add_attr(line, "id", no);
            let ln = b.add_child(line, "LineNo");
            b.set_text(ln, no);
            let q = b.add_child(line, "Quantity");
            b.set_text(q, qty);
            let p = b.add_child(line, "UnitPrice");
            b.set_text(p, price);
        }
        b.finish()
    };
    QueryEngine::build(pm, doc)
}

fn fixture_queries() -> Vec<Query> {
    ["PO//Qty", "PO/Line/No", "//Amount", "PO/Purchaser//PEMail"]
        .iter()
        .map(|qs| Query::ptq(TwigPattern::parse(qs).unwrap()))
        .collect()
}

/// The committed v1 golden fixture still decodes, reports version 1, and
/// answers queries identically to a freshly built engine — the backwards
/// compatibility contract CI pins on every push.
#[test]
fn v1_golden_fixture_decodes() {
    let bytes =
        std::fs::read(V1_FIXTURE).expect("v1 fixture committed at tests/fixtures/snapshot_v1.uxm");
    assert_eq!(snapshot_version(&bytes).unwrap(), 1);
    let decoded = decode_engine_snapshot(&bytes).expect("v1 still decodes");
    let fresh = fixture_engine();
    for q in fixture_queries() {
        assert_eq!(
            decoded.run(&q).unwrap().answers,
            fresh.run(&q).unwrap().answers,
            "{q}"
        );
    }
    // And re-encoding under the current version upgrades it losslessly.
    let upgraded = decode_engine_snapshot(&encode_engine_snapshot(&decoded)).unwrap();
    for q in fixture_queries() {
        assert_eq!(
            upgraded.run(&q).unwrap().answers,
            fresh.run(&q).unwrap().answers,
            "upgraded {q}"
        );
    }
}

/// The three committed golden fixtures (v1, v2, and the 4096-aligned
/// v3) decode to the same schemas, mappings, block tree, and document,
/// and answer every fixture query like a freshly built engine under
/// every evaluator hint (the legacy decode paths agree).
#[test]
fn v1_and_v2_decoders_agree() {
    let fresh = fixture_engine();
    let decoded: Vec<QueryEngine> = [V1_FIXTURE, V2_FIXTURE, V3_FIXTURE]
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).expect("fixture committed");
            decode_engine_snapshot(&bytes).expect("fixture decodes")
        })
        .collect();
    for (e, path) in decoded.iter().zip([V1_FIXTURE, V2_FIXTURE, V3_FIXTURE]) {
        assert_eq!(e.source(), fresh.source(), "{path}: source");
        assert_eq!(e.target(), fresh.target(), "{path}: target");
        assert_eq!(e.tree().blocks(), fresh.tree().blocks(), "{path}: blocks");
        assert_eq!(e.mappings().len(), fresh.mappings().len(), "{path}: |M|");
        for (a, b) in e.mappings().iter().zip(fresh.mappings().iter()) {
            assert_eq!(a, b, "{path}: mapping");
        }
        assert_eq!(
            to_xml(e.document()),
            to_xml(fresh.document()),
            "{path}: document"
        );
        for q in fixture_queries() {
            for hint in [
                EvaluatorHint::Auto,
                EvaluatorHint::Naive,
                EvaluatorHint::BlockTree,
                EvaluatorHint::Compiled,
            ] {
                let q = q.clone().with_evaluator(hint);
                assert_eq!(
                    e.run(&q).unwrap().answers,
                    fresh.run(&q).unwrap().answers,
                    "{path}: {q} {hint:?}"
                );
            }
        }
    }
}

/// The committed v2 fixture's bytes, shared by all corruption cases.
fn valid_v2_snapshot() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let bytes = std::fs::read(V2_FIXTURE).expect("v2 fixture committed");
        assert_eq!(snapshot_version(&bytes).unwrap(), 2);
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flipping any byte of a valid v2 snapshot yields `Ok` or a clean
    /// `DecodeError` — the columnar decode paths never panic.
    #[test]
    fn corrupt_v2_snapshot_never_panics(pos in 0usize..1 << 16, xor in 1u8..=255) {
        let bytes = valid_v2_snapshot();
        let mut corrupt = bytes.to_vec();
        let p = pos % corrupt.len();
        corrupt[p] ^= xor;
        let _ = decode_engine_snapshot(&corrupt);
    }

    /// Truncating a valid v2 snapshot at any point errors cleanly.
    #[test]
    fn truncated_v2_snapshot_errors(cut in 0usize..1 << 16) {
        let bytes = valid_v2_snapshot();
        let cut = cut % bytes.len();
        match decode_engine_snapshot(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("truncated snapshot decoded at cut {cut}"),
        }
    }

    /// Appending trailing garbage to a valid v2 snapshot is rejected.
    #[test]
    fn trailing_garbage_v2_rejected(extra in 1usize..16, byte in 0u8..=255) {
        let mut bytes = valid_v2_snapshot().to_vec();
        bytes.extend(std::iter::repeat_n(byte, extra));
        prop_assert!(decode_engine_snapshot(&bytes).is_err());
    }
}

/// The crafted-corruption cases that pin specific v2 `DecodeError`
/// variants: a text span node out of range, non-monotone text nodes, and
/// invalid UTF-8 in the contiguous buffers all fail loudly.
#[test]
fn v2_structural_corruption_reports_typed_errors() {
    // An unknown version is rejected with the claimed version.
    let mut bytes = valid_v2_snapshot().to_vec();
    bytes[4] = 77; // version varint sits right after the magic
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::UnsupportedVersion(77)
    );
}
