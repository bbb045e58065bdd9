//! Snapshot format v3: 64-byte-aligned fixed-width sections must
//! round-trip answers byte-stably on every Table II dataset, agree with
//! the v1 and v2 decoders on the committed golden fixtures, keep
//! decoding the 4096-aligned v3 fixture, and turn every header,
//! table, and column corruption into a typed `DecodeError` — never a
//! panic, never a hostile-length allocation.

use proptest::prelude::*;
use uxm::core::api::{EvaluatorHint, Query};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::core::storage::{
    decode_engine_snapshot, encode_engine_snapshot, snapshot_version, xxh64, DecodeError,
    SECTION_ALIGN, SNAPSHOT_VERSION,
};
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::datagen::queries::paper_queries;
use uxm::twig::TwigPattern;
use uxm::xml::{DocGenConfig, Document, Schema};

const V1_FIXTURE: &str = "tests/fixtures/snapshot_v1.uxm";
const V2_FIXTURE: &str = "tests/fixtures/snapshot_v2.uxm";
const V3_FIXTURE: &str = "tests/fixtures/snapshot_v3.uxm";

// ---------------------------------------------------------------------
// v3 container geometry, mirrored from the codec for byte surgery

/// Magic (4) + version byte (1) + pad (3) + file_len/section_count/table
/// checksum (3 × u64).
const HEADER_LEN: usize = 32;
/// kind, offset, len, count, elem_size, xxh64 (6 × u64).
const ENTRY_LEN: usize = 48;
/// Sections in a canonical v3 file.
const SECTIONS: usize = 23;
const TABLE_END: usize = HEADER_LEN + ENTRY_LEN * SECTIONS;

/// Reads field `j` (0..6) of section-table entry `i`.
fn entry_field(bytes: &[u8], i: usize, j: usize) -> u64 {
    let at = HEADER_LEN + i * ENTRY_LEN + 8 * j;
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Overwrites field `j` of section-table entry `i`.
fn set_entry_field(bytes: &mut [u8], i: usize, j: usize, v: u64) {
    let at = HEADER_LEN + i * ENTRY_LEN + 8 * j;
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Recomputes the table checksum after byte surgery on the section
/// table, so corruption below the table is reachable (otherwise every
/// edit stops at `BadChecksum` on the table itself).
fn reseal_table(bytes: &mut [u8]) {
    let sum = xxh64(&bytes[HEADER_LEN..TABLE_END], 0);
    bytes[24..32].copy_from_slice(&sum.to_le_bytes());
}

// ---------------------------------------------------------------------
// engines under test

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
        0x5EED,
    );
    QueryEngine::build(pm, doc)
}

/// The fully deterministic engine behind the committed golden fixtures
/// (identical to the one in `tests/snapshot_v2.rs`): no matcher, no
/// generator — explicit mappings over a hand-built document, so any
/// build of this repository reproduces the fixtures bit for bit.
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

// ---------------------------------------------------------------------
// round trip + layout invariants

/// The tentpole acceptance criterion: the default (v3) snapshot round
/// trip preserves `QueryResponse` answers byte-for-byte on every
/// Table II dataset under every evaluator hint, and re-encodes
/// byte-stably.
#[test]
fn v3_roundtrip_all_datasets() {
    let queries = paper_queries();
    for id in DatasetId::all() {
        let original = engine(id, 12, 250);
        let bytes = encode_engine_snapshot(&original);
        assert_eq!(
            snapshot_version(&bytes).unwrap(),
            SNAPSHOT_VERSION,
            "{}: snapshots default to v3",
            id.name()
        );
        let back = decode_engine_snapshot(&bytes).expect("v3 decodes");
        assert_eq!(back.source(), original.source(), "{}: source", id.name());
        assert_eq!(back.target(), original.target(), "{}: target", id.name());
        assert_eq!(
            back.tree().blocks(),
            original.tree().blocks(),
            "{}: blocks",
            id.name()
        );
        for (a, b) in back.mappings().iter().zip(original.mappings().iter()) {
            assert_eq!(a, b, "{}: mapping", id.name());
        }
        for qi in [2usize, 7, 10] {
            for hint in [EvaluatorHint::Naive, EvaluatorHint::BlockTree] {
                let q = Query::ptq(queries[qi - 1].clone()).with_evaluator(hint);
                assert_eq!(
                    back.run(&q).unwrap().answers,
                    original.run(&q).unwrap().answers,
                    "{} Q{qi} {hint:?}",
                    id.name()
                );
            }
        }
        assert_eq!(
            encode_engine_snapshot(&back),
            bytes,
            "{}: byte-stable re-encode",
            id.name()
        );
    }
}

/// Every section in a freshly written v3 file starts on a 64-byte
/// boundary past the section table, sits fully inside the file, and the
/// header's `file_len` pins the exact size.
#[test]
fn v3_sections_are_64_byte_aligned() {
    assert_eq!(SECTION_ALIGN, 64);
    let bytes = encode_engine_snapshot(&engine(DatasetId::D4, 10, 200));
    let file_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    assert_eq!(file_len as usize, bytes.len());
    let count = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    assert_eq!(count as usize, SECTIONS);
    for i in 0..SECTIONS {
        let offset = entry_field(&bytes, i, 1) as usize;
        let len = entry_field(&bytes, i, 2) as usize;
        let count = entry_field(&bytes, i, 3);
        let elem = entry_field(&bytes, i, 4);
        assert_eq!(offset % SECTION_ALIGN, 0, "section {i} offset {offset}");
        assert!(offset >= TABLE_END, "section {i} inside the table");
        assert!(offset + len <= bytes.len(), "section {i} extent");
        assert_eq!(count * elem, len as u64, "section {i} count×elem");
        assert_eq!(
            xxh64(&bytes[offset..offset + len], 0),
            entry_field(&bytes, i, 5),
            "section {i} checksum"
        );
    }
}

// ---------------------------------------------------------------------
// cross-version agreement on the committed golden fixtures

/// The committed v2 golden fixture decodes, reports version 2, and
/// answers like a freshly built engine.
#[test]
fn v2_golden_fixture_decodes() {
    let bytes =
        std::fs::read(V2_FIXTURE).expect("v2 fixture committed at tests/fixtures/snapshot_v2.uxm");
    assert_eq!(snapshot_version(&bytes).unwrap(), 2);
    let decoded = decode_engine_snapshot(&bytes).expect("v2 still decodes");
    let fresh = fixture_engine();
    for q in fixture_queries() {
        assert_eq!(
            decoded.run(&q).unwrap().answers,
            fresh.run(&q).unwrap().answers,
            "{q}"
        );
    }
}

/// The committed v3 golden fixture was written when sections started on
/// 4096-byte boundaries. It still decodes, keeps that alignment on disk,
/// and answers every fixture query exactly like a freshly built engine
/// under every evaluator hint — so snapshot directories written before
/// the alignment change keep loading.
#[test]
fn v3_golden_fixture_decodes() {
    let bytes =
        std::fs::read(V3_FIXTURE).expect("v3 fixture committed at tests/fixtures/snapshot_v3.uxm");
    assert_eq!(snapshot_version(&bytes).unwrap(), 3);
    for i in 0..SECTIONS {
        let offset = entry_field(&bytes, i, 1);
        assert_eq!(offset % 4096, 0, "section {i} offset {offset}");
    }
    let decoded = decode_engine_snapshot(&bytes).expect("4096-aligned v3 still decodes");
    let fresh = fixture_engine();
    for q in fixture_queries() {
        for hint in [
            EvaluatorHint::Auto,
            EvaluatorHint::Naive,
            EvaluatorHint::BlockTree,
            EvaluatorHint::Compiled,
        ] {
            let q = q.clone().with_evaluator(hint);
            assert_eq!(
                decoded.run(&q).unwrap().answers,
                fresh.run(&q).unwrap().answers,
                "{q} {hint:?}"
            );
        }
    }
}

/// The compatibility contract CI pins on every push: the committed v1,
/// v2, and 4096-aligned v3 fixtures and a freshly written (64-aligned)
/// v3 file of the same engine all hydrate to engines with
/// byte-identical answers.
#[test]
fn v1_v2_v3_decoders_agree() {
    let fresh = fixture_engine();
    let from = |path: &str| {
        let e = decode_engine_snapshot(&std::fs::read(path).expect("fixture committed"))
            .expect("fixture decodes");
        assert_eq!(e.footprint().block_tree, 0, "{path}: decoded with a tree");
        e
    };
    let (from_v1, from_v2, from_v3_fixture) =
        (from(V1_FIXTURE), from(V2_FIXTURE), from(V3_FIXTURE));
    let v3_bytes = encode_engine_snapshot(&fresh);
    assert_eq!(snapshot_version(&v3_bytes).unwrap(), 3);
    let from_v3 = decode_engine_snapshot(&v3_bytes).expect("v3 decodes");
    for q in fixture_queries() {
        let want = fresh.run(&q).unwrap().answers;
        assert_eq!(from_v1.run(&q).unwrap().answers, want, "v1 {q}");
        assert_eq!(from_v2.run(&q).unwrap().answers, want, "v2 {q}");
        assert_eq!(
            from_v3_fixture.run(&q).unwrap().answers,
            want,
            "v3 fixture {q}"
        );
        assert_eq!(from_v3.run(&q).unwrap().answers, want, "v3 {q}");
    }
}

// ---------------------------------------------------------------------
// crafted corruption: every failure is a typed DecodeError

/// One valid v3 snapshot, built once and shared by all corruption cases.
fn valid_v3_snapshot() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| encode_engine_snapshot(&engine(DatasetId::D2, 6, 120)))
}

#[test]
fn v3_header_corruption_is_typed() {
    let good = valid_v3_snapshot();

    // Unknown version byte.
    let mut bytes = good.to_vec();
    bytes[4] = 99;
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::UnsupportedVersion(99)
    );

    // Non-zero prelude padding is non-canonical.
    let mut bytes = good.to_vec();
    bytes[6] = 1;
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::Malformed
    );

    // A lying file_len reads as truncation (in either direction).
    let mut bytes = good.to_vec();
    bytes[8] ^= 0x01;
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::Truncated
    );

    // A wrong section count is malformed.
    let mut bytes = good.to_vec();
    bytes[16] = SECTIONS as u8 + 1;
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::Malformed
    );

    // Any table flip without resealing trips the table checksum.
    let mut bytes = good.to_vec();
    bytes[HEADER_LEN + 3] ^= 0x40;
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::BadChecksum
    );
}

/// A section offset nudged off its 64-byte boundary, or pointing back
/// into the section table (with the table checksum recomputed, so the
/// edit is otherwise "valid"), is rejected as `Misaligned`.
#[test]
fn v3_misaligned_section_offset() {
    let mut bytes = valid_v3_snapshot().to_vec();
    let offset = entry_field(&bytes, 0, 1);
    set_entry_field(&mut bytes, 0, 1, offset + 8);
    reseal_table(&mut bytes);
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::Misaligned
    );

    // 64-byte aligned, but below the end of the table: inside it.
    let inside = (TABLE_END / 64 * 64) as u64;
    assert!(inside > 0 && (inside as usize) < TABLE_END);
    let mut bytes = valid_v3_snapshot().to_vec();
    set_entry_field(&mut bytes, 0, 1, inside);
    reseal_table(&mut bytes);
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::Misaligned
    );
}

/// An overstated element count — including a hostile `u64::MAX` that
/// would overflow `count × elem_size` — is caught by arithmetic alone,
/// before any allocation can be sized from it.
#[test]
fn v3_overstated_count_cannot_allocate() {
    // SEC_DOC_LABELS (entry 10) has elem_size 4: count is checked
    // against the byte length, so count+1 no longer multiplies out.
    let mut bytes = valid_v3_snapshot().to_vec();
    let count = entry_field(&bytes, 10, 3);
    set_entry_field(&mut bytes, 10, 3, count + 1);
    reseal_table(&mut bytes);
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::Malformed
    );

    let mut bytes = valid_v3_snapshot().to_vec();
    set_entry_field(&mut bytes, 10, 3, u64::MAX);
    reseal_table(&mut bytes);
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::Malformed
    );
}

/// A single flipped byte inside a column's payload trips that section's
/// checksum (the table itself still verifies). The same holds for the
/// block-tree sections (kinds 6–10) of the 4096-aligned fixture, which
/// the decoder discards unread: it still checksums them.
#[test]
fn v3_column_checksum_detects_content_flip() {
    let mut bytes = valid_v3_snapshot().to_vec();
    let offset = entry_field(&bytes, 10, 1) as usize;
    let len = entry_field(&bytes, 10, 2) as usize;
    assert!(len > 0, "labels column is never empty");
    bytes[offset + len / 2] ^= 0x80;
    assert_eq!(
        decode_engine_snapshot(&bytes).unwrap_err(),
        DecodeError::BadChecksum
    );

    let fixture = std::fs::read(V3_FIXTURE).expect("v3 fixture committed");
    for i in 5..10 {
        let offset = entry_field(&fixture, i, 1) as usize;
        let len = entry_field(&fixture, i, 2) as usize;
        assert!(len > 0, "fixture block-tree section {i} is not empty");
        let mut bytes = fixture.clone();
        bytes[offset + len / 2] ^= 0x80;
        assert_eq!(
            decode_engine_snapshot(&bytes).unwrap_err(),
            DecodeError::BadChecksum,
            "block-tree section {i}"
        );
    }
}

/// Truncating mid-section is caught by `file_len` before any section is
/// trusted.
#[test]
fn v3_mid_section_truncation_errors() {
    let bytes = valid_v3_snapshot();
    // Cut one byte into the first section (META, never empty), leaving
    // the header and section table fully intact.
    let offset = entry_field(bytes, 0, 1) as usize;
    assert_eq!(
        decode_engine_snapshot(&bytes[..offset + 1]).unwrap_err(),
        DecodeError::Truncated
    );
}

// ---------------------------------------------------------------------
// property corruption: the decoder never panics

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flipping any byte of a valid v3 snapshot yields `Ok` or a clean
    /// `DecodeError` — the fixed-width decode paths never panic.
    #[test]
    fn corrupt_v3_snapshot_never_panics(pos in 0usize..1 << 20, xor in 1u8..=255) {
        let bytes = valid_v3_snapshot();
        let mut corrupt = bytes.to_vec();
        let p = pos % corrupt.len();
        corrupt[p] ^= xor;
        let _ = decode_engine_snapshot(&corrupt);
    }

    /// Truncating a valid v3 snapshot at any point errors cleanly.
    #[test]
    fn truncated_v3_snapshot_errors(cut in 0usize..1 << 20) {
        let bytes = valid_v3_snapshot();
        let cut = cut % bytes.len();
        prop_assert!(decode_engine_snapshot(&bytes[..cut]).is_err());
    }

    /// Appending trailing garbage to a valid v3 snapshot is rejected
    /// (`file_len` pins the exact size).
    #[test]
    fn trailing_garbage_v3_rejected(extra in 1usize..16, byte in 0u8..=255) {
        let mut bytes = valid_v3_snapshot().to_vec();
        bytes.extend(std::iter::repeat_n(byte, extra));
        prop_assert!(decode_engine_snapshot(&bytes).is_err());
    }
}
