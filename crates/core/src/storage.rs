//! Binary storage for mapping sets and whole engine sessions.
//!
//! The paper's compression ratio (§VI-2) is a storage metric; this module
//! makes it concrete: a mapping set can be serialized *verbatim*
//! ([`encode_plain`]) or *through its block tree* ([`encode_compressed`]):
//! blocks are stored once, and each mapping stores block pointers plus
//! residual correspondences (the output of
//! [`crate::compress::compress`]). Both decode back to an identical
//! [`PossibleMappings`].
//!
//! On top of the mapping codecs sits the **engine snapshot**
//! ([`encode_engine_snapshot`] / [`decode_engine_snapshot`]): one
//! versioned container holding what a [`QueryEngine`] session needs —
//! both schemas, the mapping set, and the source document — so a
//! [`crate::registry::EngineRegistry`] can hydrate a serving engine from
//! a single file with no out-of-band state. The block tree is not
//! stored: only a pinned `block-tree` plan reads it, and a hydrated
//! engine builds it on that first run ([`QueryEngine::tree`]).
//!
//! # Snapshot format (version 3, current)
//!
//! Version 3 is a **sectioned container whose sections are the resident
//! arena columns, verbatim**: a fixed-width checksummed header and
//! section table up front, then every column of the engine — document
//! label/parent/post/level columns, both CSR indexes, text/attr span
//! tables and buffers, mapping score/prob columns and the flat CSR pair
//! arena — as a 64-byte-aligned, little-endian, fixed-width section with
//! its own length and xxhash-style checksum (see `docs/wire-format.md`
//! for the byte-level grammar). Five block-tree sections (kinds 6–10)
//! keep their slots in the table but are written empty; files from
//! before the tree was dropped hold one there, which the decoder
//! checksums and discards:
//!
//! ```text
//! magic   "UXMS"; version byte 3; three zero pad bytes
//! header  file_len (u64), section_count (u64), table xxh64 (u64)
//! table   one 48-byte entry per section:
//!         kind, offset, len, count, elem_size, xxh64 (all u64 LE)
//! ...     each section zero-padded to the next 64-byte boundary
//! ```
//!
//! The encoder is one `extend_from_slice` per column; the decoder
//! verifies the header, validates every section's bounds / alignment /
//! count / checksum, then bulk-copies each column straight into
//! [`Document::from_raw_columns`] /
//! [`PossibleMappings::from_raw_columns`] — no per-element decoding, no
//! derived-index recomputation. The registry reads a snapshot file with
//! one `std::fs::read`.
//!
//! **Version history** (`SNAPSHOT_VERSION`):
//!
//! * **1** — initial format: schemas, a length-prefixed embedded
//!   `encode_compressed` payload, then the document with per-node
//!   text/attribute records. Decoded, no longer written.
//! * **2** — columnar document and mapping sections, varint-packed:
//!   smaller files (no per-node flag bytes or length-prefixed strings)
//!   and faster hydration than v1 (the decoder feeds
//!   `Document::from_columns` / `PossibleMappings::from_columns`
//!   directly). Decoded, no longer written.
//! * **3** — aligned fixed-width arena sections as above: larger files
//!   (pairs stored flat, derived columns stored rather than recomputed)
//!   bought back as near-memcpy hydration. The only version written.
//!   Sections were first padded to 4096-byte boundaries; the writer
//!   now pads to [`SECTION_ALIGN`] = 64 bytes, and the decoder accepts
//!   any multiple of 64 past the section table, so both layouts load.
//!   The five block-tree sections are now written empty and META's
//!   `min_support` is written 0 and ignored; the layout is unchanged,
//!   so no version bump was needed.
//!   Decoders reject any other version with
//!   [`DecodeError::UnsupportedVersion`], so stale snapshot files fail
//!   loudly instead of misparsing.
//!
//! Versions 1–2 use LEB128 varints throughout; version 3 reserves
//! varints for the small `META` section (schemas, label table, the
//! unused `min_support` slot) and stores every column fixed-width so
//! hydration never branches per element. The v1/v2 decoders still
//! rebuild the stored tree's blocks, because their mappings are stored
//! as block pointers, then drop the tree.
//!
//! # Examples
//!
//! A snapshot round trip preserves answers exactly (the per-dataset
//! byte-level guarantee lives in `tests/snapshot_roundtrip.rs`):
//!
//! ```
//! use uxm_core::api::Query;
//! use uxm_core::engine::QueryEngine;
//! use uxm_core::mapping::PossibleMappings;
//! use uxm_core::storage::{decode_engine_snapshot, encode_engine_snapshot};
//! use uxm_matching::Matcher;
//! use uxm_twig::TwigPattern;
//! use uxm_xml::{DocGenConfig, Document, Schema};
//!
//! let source = Schema::parse_outline("Order(Buyer(Name) Item(Price))").unwrap();
//! let target = Schema::parse_outline("PO(Vendor(ContactName) Line(UnitPrice))").unwrap();
//! let matching = Matcher::default().match_schemas(&source, &target);
//! let pm = PossibleMappings::top_h(&matching, 8);
//! let doc = Document::generate(&source, &DocGenConfig::small(), 7);
//! let engine = QueryEngine::build(pm, doc);
//!
//! // One self-contained artifact: schemas + mappings + document.
//! let bytes = encode_engine_snapshot(&engine);
//! let restored = decode_engine_snapshot(&bytes).unwrap();
//!
//! let q = Query::ptq(TwigPattern::parse("PO//ContactName").unwrap());
//! assert_eq!(
//!     engine.run(&q).unwrap().answers,
//!     restored.run(&q).unwrap().answers,
//! );
//! ```

use crate::block::Block;
use crate::block_tree::BlockTree;
use crate::compress::compress;
use crate::engine::QueryEngine;
use crate::mapping::{Mapping, MappingId, PossibleMappings};
use std::fmt;
use uxm_xml::{ColumnError, DocNodeId, Document, LabelId, Schema, SchemaNodeId};

const MAGIC_PLAIN: &[u8; 4] = b"UXM0";
const MAGIC_BLOCK: &[u8; 4] = b"UXM1";
const MAGIC_SNAPSHOT: &[u8; 4] = b"UXMS";

/// Current engine-snapshot format version (see the module docs for the
/// version history). The encoder writes this version; the decoder
/// accepts it **and** still reads version-1 and version-2 files.
pub const SNAPSHOT_VERSION: u64 = 3;

/// Decode failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes or format mismatch.
    BadMagic,
    /// Input ended mid-value.
    Truncated,
    /// A stored id exceeds the schema / block table bounds.
    IdOutOfRange,
    /// A snapshot written by an unknown (newer or corrupted) format
    /// version; the value is the version the file claims.
    UnsupportedVersion(u64),
    /// A stored string is not valid UTF-8.
    BadString,
    /// Structurally impossible data: an empty node table, or a node whose
    /// parent does not precede it in pre-order.
    Malformed,
    /// A v3 section (or the section table itself) whose stored xxh64
    /// checksum does not match its bytes.
    BadChecksum,
    /// A v3 section offset that is not 64-byte aligned (every section
    /// must start on a [`SECTION_ALIGN`]-byte boundary past the section
    /// table).
    Misaligned,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic / wrong format"),
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::IdOutOfRange => write!(f, "stored id out of range"),
            DecodeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            DecodeError::BadString => write!(f, "stored string is not valid UTF-8"),
            DecodeError::Malformed => write!(f, "structurally malformed input"),
            DecodeError::BadChecksum => write!(f, "section checksum mismatch"),
            DecodeError::Misaligned => write!(f, "section offset is not 64-byte aligned"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes the mapping set verbatim.
pub fn encode_plain(pm: &PossibleMappings) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC_PLAIN);
    put_varint(&mut out, pm.len() as u64);
    for (_, m) in pm.iter() {
        out.extend_from_slice(&m.score.to_le_bits_bytes());
        out.extend_from_slice(&m.prob.to_le_bits_bytes());
        put_varint(&mut out, m.pairs.len() as u64);
        for &(s, t) in m.pairs {
            put_varint(&mut out, s.0 as u64);
            put_varint(&mut out, t.0 as u64);
        }
    }
    out
}

/// Deserializes a verbatim mapping set (schemas travel out of band — they
/// are part of the matching, not the mapping set).
pub fn decode_plain(
    bytes: &[u8],
    source: Schema,
    target: Schema,
) -> Result<PossibleMappings, DecodeError> {
    let mut r = Reader::new(bytes);
    r.expect_magic(MAGIC_PLAIN)?;
    let n = r.varint()? as usize;
    let mut mappings = Vec::with_capacity(n);
    for _ in 0..n {
        let score = r.f64()?;
        let prob = r.f64()?;
        let pairs = r.pairs(source.len(), target.len())?;
        mappings.push(Mapping { pairs, score, prob });
    }
    r.finish()?;
    Ok(PossibleMappings::from_parts(source, target, mappings))
}

/// Serializes the mapping set through its block tree: blocks once,
/// then per mapping (score, prob, block pointers, residual pairs).
pub fn encode_compressed(pm: &PossibleMappings, tree: &BlockTree) -> Vec<u8> {
    let cm = compress(pm, tree);
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC_BLOCK);
    put_varint(&mut out, tree.min_support as u64);
    put_blocks(&mut out, tree.blocks());
    put_varint(&mut out, pm.len() as u64);
    for (mid, m) in pm.iter() {
        let c = &cm.mappings[mid.idx()];
        out.extend_from_slice(&m.score.to_le_bits_bytes());
        out.extend_from_slice(&m.prob.to_le_bits_bytes());
        put_varint(&mut out, c.blocks.len() as u64);
        for &b in &c.blocks {
            put_varint(&mut out, b.0 as u64);
        }
        put_varint(&mut out, c.residual.len() as u64);
        for &(s, t) in &c.residual {
            put_varint(&mut out, s.0 as u64);
            put_varint(&mut out, t.0 as u64);
        }
    }
    out
}

/// Deserializes a block-compressed mapping set, reconstructing both the
/// block tree and the full mappings.
pub fn decode_compressed(
    bytes: &[u8],
    source: Schema,
    target: Schema,
) -> Result<(PossibleMappings, BlockTree), DecodeError> {
    let mut r = Reader::new(bytes);
    r.expect_magic(MAGIC_BLOCK)?;
    let min_support = r.varint()? as usize;
    let n_blocks = r.varint()? as usize;
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let anchor = r.varint()? as u32;
        if anchor as usize >= target.len() {
            return Err(DecodeError::IdOutOfRange);
        }
        let corrs = r.pairs(source.len(), target.len())?;
        let n_m = r.varint()? as usize;
        let mut mappings = Vec::with_capacity(n_m);
        for _ in 0..n_m {
            mappings.push(MappingId(r.varint()? as u32));
        }
        blocks.push(Block {
            anchor: SchemaNodeId(anchor),
            corrs,
            mappings,
        });
    }
    let tree = BlockTree::from_blocks(&target, blocks, min_support);

    let n = r.varint()? as usize;
    let mut mappings = Vec::with_capacity(n);
    for _ in 0..n {
        let score = r.f64()?;
        let prob = r.f64()?;
        let n_b = r.varint()? as usize;
        let mut pairs: Vec<(SchemaNodeId, SchemaNodeId)> = Vec::new();
        for _ in 0..n_b {
            let b = r.varint()? as usize;
            let block = tree.blocks().get(b).ok_or(DecodeError::IdOutOfRange)?;
            pairs.extend_from_slice(&block.corrs);
        }
        pairs.extend(r.pairs(source.len(), target.len())?);
        pairs.sort_by_key(|&(s, t)| (t, s));
        pairs.dedup();
        mappings.push(Mapping { pairs, score, prob });
    }
    r.finish()?;
    Ok((PossibleMappings::from_parts(source, target, mappings), tree))
}

/// Measured on-disk compression ratio: `1 - compressed / plain`.
pub fn measured_compression_ratio(pm: &PossibleMappings, tree: &BlockTree) -> f64 {
    let plain = encode_plain(pm).len() as f64;
    let compressed = encode_compressed(pm, tree).len() as f64;
    1.0 - compressed / plain
}

// ---------------------------------------------------------------------
// engine snapshots

/// The decoded parts of an engine snapshot, before session-state
/// construction.
///
/// [`decode_engine_snapshot`] wraps these in a [`QueryEngine`];
/// callers that only *inspect* a snapshot (e.g. `uxm registry list`) can
/// stop here and skip building symbol tables and relevance bitsets.
pub struct EngineSnapshot {
    /// The mapping set.
    pub mappings: PossibleMappings,
    /// The source document.
    pub document: Document,
}

/// Peeks the format version of an engine snapshot without decoding its
/// body (`uxm stats` and the compat tooling report it).
pub fn snapshot_version(bytes: &[u8]) -> Result<u64, DecodeError> {
    let mut r = Reader::new(bytes);
    r.expect_magic(MAGIC_SNAPSHOT)?;
    r.varint()
}

/// Deserializes an engine snapshot into its parts, without building any
/// session state.
pub fn decode_engine_snapshot_parts(bytes: &[u8]) -> Result<EngineSnapshot, DecodeError> {
    let mut r = Reader::new(bytes);
    r.expect_magic(MAGIC_SNAPSHOT)?;
    let version = r.varint()?;
    match version {
        1 => {
            let source = r.schema()?;
            let target = r.schema()?;
            let payload_len = r.varint()? as usize;
            let payload = r.take(payload_len)?;
            let (mappings, _) = decode_compressed(payload, source, target)?;
            let document = r.document()?;
            r.finish()?;
            Ok(EngineSnapshot { mappings, document })
        }
        2 => {
            let source = r.schema()?;
            let target = r.schema()?;
            let mappings = r.columnar_mappings(source, target)?;
            let document = r.document_columnar()?;
            r.finish()?;
            Ok(EngineSnapshot { mappings, document })
        }
        3 => decode_engine_snapshot_v3(bytes),
        other => Err(DecodeError::UnsupportedVersion(other)),
    }
}

/// Deserializes an engine snapshot and rebuilds the session state
/// (symbol tables, relevance bitsets, the correspondence index) from it.
/// The rehydrated engine holds no block tree until a pinned `block-tree`
/// query builds one, and answers every query identically to the one
/// that was saved.
pub fn decode_engine_snapshot(bytes: &[u8]) -> Result<QueryEngine, DecodeError> {
    let parts = decode_engine_snapshot_parts(bytes)?;
    Ok(QueryEngine::build(parts.mappings, parts.document))
}

// ---------------------------------------------------------------------
// snapshot v3: aligned fixed-width arena sections

/// Every v3 section starts on a boundary of this many bytes (one cache
/// line, and a multiple of every column's element size). Files written
/// with the earlier 4096-byte padding are multiples of it too, so they
/// still decode.
pub const SECTION_ALIGN: usize = 64;

/// Byte length of the fixed v3 prelude + header: magic (4), version
/// byte (1), pad (3), `file_len` / `section_count` / table xxh64
/// (3 × u64).
const V3_HEADER_LEN: usize = 32;
/// Byte length of one section-table entry: kind, offset, len, count,
/// elem_size, xxh64 (6 × u64).
const V3_ENTRY_LEN: usize = 48;

/// v3 section kinds, in canonical on-disk order.
const SEC_META: u64 = 1;
const SEC_MAP_SCORES: u64 = 2;
const SEC_MAP_PROBS: u64 = 3;
const SEC_MAP_PAIR_OFFSETS: u64 = 4;
const SEC_MAP_PAIRS: u64 = 5;
const SEC_BLK_ANCHORS: u64 = 6;
const SEC_BLK_CORR_OFFSETS: u64 = 7;
const SEC_BLK_CORRS: u64 = 8;
const SEC_BLK_MAP_OFFSETS: u64 = 9;
const SEC_BLK_MAP_IDS: u64 = 10;
const SEC_DOC_LABELS: u64 = 11;
const SEC_DOC_PARENTS: u64 = 12;
const SEC_DOC_POSTS: u64 = 13;
const SEC_DOC_LEVELS: u64 = 14;
const SEC_DOC_CHILD_OFFSETS: u64 = 15;
const SEC_DOC_CHILD_LIST: u64 = 16;
const SEC_DOC_BY_LABEL_OFFSETS: u64 = 17;
const SEC_DOC_BY_LABEL_LIST: u64 = 18;
const SEC_DOC_TEXT_SPANS: u64 = 19;
const SEC_DOC_TEXT_BUF: u64 = 20;
const SEC_DOC_ATTR_OFFSETS: u64 = 21;
const SEC_DOC_ATTR_SPANS: u64 = 22;
const SEC_DOC_ATTR_BUF: u64 = 23;

/// The canonical v3 layout: `(kind, element size in bytes)` for every
/// section, in the exact order the encoder emits and the decoder
/// requires.
const V3_LAYOUT: [(u64, u64); 23] = [
    (SEC_META, 1),
    (SEC_MAP_SCORES, 8),
    (SEC_MAP_PROBS, 8),
    (SEC_MAP_PAIR_OFFSETS, 4),
    (SEC_MAP_PAIRS, 8),
    (SEC_BLK_ANCHORS, 4),
    (SEC_BLK_CORR_OFFSETS, 4),
    (SEC_BLK_CORRS, 8),
    (SEC_BLK_MAP_OFFSETS, 4),
    (SEC_BLK_MAP_IDS, 4),
    (SEC_DOC_LABELS, 4),
    (SEC_DOC_PARENTS, 4),
    (SEC_DOC_POSTS, 4),
    (SEC_DOC_LEVELS, 4),
    (SEC_DOC_CHILD_OFFSETS, 4),
    (SEC_DOC_CHILD_LIST, 4),
    (SEC_DOC_BY_LABEL_OFFSETS, 4),
    (SEC_DOC_BY_LABEL_LIST, 4),
    (SEC_DOC_TEXT_SPANS, 8),
    (SEC_DOC_TEXT_BUF, 1),
    (SEC_DOC_ATTR_OFFSETS, 4),
    (SEC_DOC_ATTR_SPANS, 16),
    (SEC_DOC_ATTR_BUF, 1),
];

const V3_SECTION_COUNT: usize = V3_LAYOUT.len();
const V3_TABLE_END: usize = V3_HEADER_LEN + V3_ENTRY_LEN * V3_SECTION_COUNT;

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

#[inline]
fn xxh_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

/// Incremental XXH64 state, so the v3 decoder can fold a section into
/// the checksum in cache-sized chunks *while copying it* — one pass over
/// memory instead of a hash pass followed by a copy pass.
struct Xxh64 {
    v: [u64; 4],
    seed: u64,
    /// Bytes consumed by `update` (always a multiple of 32).
    len: u64,
}

impl Xxh64 {
    fn new(seed: u64) -> Xxh64 {
        Xxh64 {
            v: [
                seed.wrapping_add(XXH_P1).wrapping_add(XXH_P2),
                seed.wrapping_add(XXH_P2),
                seed,
                seed.wrapping_sub(XXH_P1),
            ],
            seed,
            len: 0,
        }
    }

    /// Folds `block` (length a multiple of 32) into the accumulators.
    fn update(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len() % 32, 0);
        let [mut v1, mut v2, mut v3, mut v4] = self.v;
        let u64_at = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        for stripe in block.chunks_exact(32) {
            v1 = xxh_round(v1, u64_at(&stripe[0..]));
            v2 = xxh_round(v2, u64_at(&stripe[8..]));
            v3 = xxh_round(v3, u64_at(&stripe[16..]));
            v4 = xxh_round(v4, u64_at(&stripe[24..]));
        }
        self.v = [v1, v2, v3, v4];
        self.len += block.len() as u64;
    }

    /// Consumes the final partial stripe (`tail.len() < 32`) and
    /// finalizes. Matches the one-shot reference digest bit-for-bit.
    fn finish(self, tail: &[u8]) -> u64 {
        debug_assert!(tail.len() < 32);
        let [v1, v2, v3, v4] = self.v;
        let mut h = if self.len > 0 {
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            h = xxh_merge_round(h, v1);
            h = xxh_merge_round(h, v2);
            h = xxh_merge_round(h, v3);
            xxh_merge_round(h, v4)
        } else {
            self.seed.wrapping_add(XXH_P5)
        };
        h = h.wrapping_add(self.len + tail.len() as u64);
        let mut rest = tail;
        let u64_at = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        while rest.len() >= 8 {
            h = (h ^ xxh_round(0, u64_at(rest)))
                .rotate_left(27)
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let v = u64::from(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")));
            h = (h ^ v.wrapping_mul(XXH_P1))
                .rotate_left(23)
                .wrapping_mul(XXH_P2)
                .wrapping_add(XXH_P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
                .rotate_left(11)
                .wrapping_mul(XXH_P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }
}

/// XXH64 (seed-parameterized xxHash, 64-bit variant) over `bytes`.
///
/// Self-contained so the workspace stays dependency-free; exposed `pub`
/// so corruption tests can forge section tables whose checksums verify
/// (the only way to reach the deeper typed errors).
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let body = bytes.len() & !31;
    let mut state = Xxh64::new(seed);
    state.update(&bytes[..body]);
    state.finish(&bytes[body..])
}

/// Streams `sec` once: every cache-sized chunk is folded into the
/// running XXH64 *and* handed to `emit` while still hot in L1/L2, then
/// the digest is compared against the section-table checksum. `emit`
/// always receives slices whose length is a multiple of 32 except for
/// the final sub-stripe tail, so any element width that divides 32
/// never sees a torn element. Output built from a section that turns
/// out corrupt is simply dropped by the caller via `?`.
fn verify_while_copying(
    sec: &[u8],
    expected: u64,
    mut emit: impl FnMut(&[u8]),
) -> Result<(), DecodeError> {
    const CHUNK: usize = 32 * 1024;
    let body = sec.len() & !31;
    let mut state = Xxh64::new(0);
    for chunk in sec[..body].chunks(CHUNK) {
        state.update(chunk);
        emit(chunk);
    }
    let tail = &sec[body..];
    if state.finish(tail) != expected {
        return Err(DecodeError::BadChecksum);
    }
    emit(tail);
    Ok(())
}

#[inline]
fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Appends a `u32` column as its little-endian wire bytes in one shot.
fn put_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `u32` has no padding bytes and byte alignment suffices
        // for `u8`; on little-endian the in-memory bytes of an
        // initialized &[u32] are exactly the wire encoding.
        let raw = unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), vals.len() * 4) };
        out.extend_from_slice(raw);
    }
    #[cfg(target_endian = "big")]
    for &v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends an `f64` column as its little-endian IEEE-754 bit patterns.
fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `put_u32s` — `f64` has no padding and its LE
        // in-memory bytes equal `to_bits().to_le_bytes()`.
        let raw = unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), vals.len() * 8) };
        out.extend_from_slice(raw);
    }
    #[cfg(target_endian = "big")]
    for &v in vals {
        out.extend_from_slice(&v.to_le_bits_bytes());
    }
}

/// Appends schema-id pairs as `(s, t)` little-endian `u32`s. Written
/// per element: Rust does not guarantee tuple memory layout, and the
/// wire field order must be deterministic.
fn put_id_pairs(out: &mut Vec<u8>, pairs: &[(SchemaNodeId, SchemaNodeId)]) {
    for &(s, t) in pairs {
        out.extend_from_slice(&s.0.to_le_bytes());
        out.extend_from_slice(&t.0.to_le_bytes());
    }
}

/// Appends `(u32, u32)` spans per element (see [`put_id_pairs`]).
fn put_u32_pairs(out: &mut Vec<u8>, spans: &[(u32, u32)]) {
    for &(a, b) in spans {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
}

/// Appends attribute `(name span, value span)` records as four `u32`s.
#[allow(clippy::type_complexity)]
fn put_spans2(out: &mut Vec<u8>, spans: &[((u32, u32), (u32, u32))]) {
    for &((a, b), (c, d)) in spans {
        for v in [a, b, c, d] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Incremental v3 container writer: reserves the header + section table
/// up front, pads each section to [`SECTION_ALIGN`], and backpatches the
/// table (with per-section and whole-table checksums) on `finish`.
struct V3Writer {
    out: Vec<u8>,
    table: Vec<[u64; 6]>,
}

impl V3Writer {
    fn new() -> V3Writer {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_SNAPSHOT);
        out.push(SNAPSHOT_VERSION as u8); // single-byte varint
        out.extend_from_slice(&[0, 0, 0]); // pad to 8
        out.resize(V3_TABLE_END, 0); // header + table, backpatched later
        V3Writer {
            out,
            table: Vec::with_capacity(V3_SECTION_COUNT),
        }
    }

    /// Writes one section: aligns, runs `fill` to append the content,
    /// and records the table entry (including the content checksum).
    fn section(&mut self, kind: u64, elem_size: u64, count: u64, fill: impl FnOnce(&mut Vec<u8>)) {
        self.out.resize(align_up(self.out.len()), 0);
        let offset = self.out.len();
        fill(&mut self.out);
        let len = (self.out.len() - offset) as u64;
        debug_assert_eq!(len, count * elem_size, "section {kind} length drifted");
        let checksum = xxh64(&self.out[offset..], 0);
        self.table
            .push([kind, offset as u64, len, count, elem_size, checksum]);
    }

    fn finish(mut self) -> Vec<u8> {
        debug_assert_eq!(self.table.len(), V3_SECTION_COUNT);
        let mut table_bytes = Vec::with_capacity(V3_ENTRY_LEN * self.table.len());
        for entry in &self.table {
            for v in entry {
                table_bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        let file_len = self.out.len() as u64;
        self.out[8..16].copy_from_slice(&file_len.to_le_bytes());
        self.out[16..24].copy_from_slice(&(self.table.len() as u64).to_le_bytes());
        self.out[24..32].copy_from_slice(&xxh64(&table_bytes, 0).to_le_bytes());
        self.out[V3_HEADER_LEN..V3_TABLE_END].copy_from_slice(&table_bytes);
        self.out
    }
}

/// Serializes a whole engine session — schemas, mapping set and
/// document — into one container in the version-3 layout, the only one
/// written: every resident arena column becomes one aligned fixed-width
/// section (see the module docs). Encoding is `extend_from_slice` per
/// column — no varints, no per-element work outside the small `META`
/// section. The block tree is neither stored nor built: its five
/// sections are written empty.
pub fn encode_engine_snapshot(engine: &QueryEngine) -> Vec<u8> {
    let pm = engine.mappings();
    let cols = engine.document().raw_columns();

    // META: schemas, the unused `min_support` slot (0), and the document
    // label table — the only varint-encoded bytes in a v3 file.
    let mut meta = Vec::new();
    put_schema(&mut meta, engine.source());
    put_schema(&mut meta, engine.target());
    put_varint(&mut meta, 0);
    put_varint(&mut meta, cols.label_names.len() as u64);
    for name in cols.label_names {
        put_str(&mut meta, name);
    }

    let mut w = V3Writer::new();
    let n_m = pm.len() as u64;
    w.section(SEC_META, 1, meta.len() as u64, |o| {
        o.extend_from_slice(&meta)
    });
    w.section(SEC_MAP_SCORES, 8, n_m, |o| put_f64s(o, pm.scores()));
    w.section(SEC_MAP_PROBS, 8, n_m, |o| put_f64s(o, pm.probabilities()));
    w.section(SEC_MAP_PAIR_OFFSETS, 4, n_m + 1, |o| {
        put_u32s(o, pm.pair_offsets())
    });
    w.section(SEC_MAP_PAIRS, 8, pm.total_pairs() as u64, |o| {
        put_id_pairs(o, pm.pairs_flat())
    });
    // The five block-tree slots (kinds 6–10) stay in the table, empty.
    for &(kind, elem_size) in &V3_LAYOUT[5..10] {
        w.section(kind, elem_size, 0, |_| {});
    }
    let n = cols.labels.len() as u64;
    w.section(SEC_DOC_LABELS, 4, n, |o| put_u32s(o, cols.labels));
    w.section(SEC_DOC_PARENTS, 4, n, |o| put_u32s(o, cols.parents));
    w.section(SEC_DOC_POSTS, 4, n, |o| put_u32s(o, cols.posts));
    w.section(SEC_DOC_LEVELS, 4, n, |o| put_u32s(o, cols.levels));
    w.section(SEC_DOC_CHILD_OFFSETS, 4, n + 1, |o| {
        put_u32s(o, cols.child_offsets)
    });
    w.section(SEC_DOC_CHILD_LIST, 4, n - 1, |o| {
        put_u32s(o, cols.child_list)
    });
    w.section(
        SEC_DOC_BY_LABEL_OFFSETS,
        4,
        cols.by_label_offsets.len() as u64,
        |o| put_u32s(o, cols.by_label_offsets),
    );
    w.section(SEC_DOC_BY_LABEL_LIST, 4, n, |o| {
        put_u32s(o, cols.by_label_list)
    });
    w.section(SEC_DOC_TEXT_SPANS, 8, n, |o| {
        put_u32_pairs(o, cols.text_spans)
    });
    w.section(SEC_DOC_TEXT_BUF, 1, cols.text_buf.len() as u64, |o| {
        o.extend_from_slice(cols.text_buf.as_bytes())
    });
    w.section(SEC_DOC_ATTR_OFFSETS, 4, n + 1, |o| {
        put_u32s(o, cols.attr_offsets)
    });
    w.section(SEC_DOC_ATTR_SPANS, 16, cols.attr_spans.len() as u64, |o| {
        put_spans2(o, cols.attr_spans)
    });
    w.section(SEC_DOC_ATTR_BUF, 1, cols.attr_buf.len() as u64, |o| {
        o.extend_from_slice(cols.attr_buf.as_bytes())
    });
    w.finish()
}

/// Appends a little-endian `u32` run to `out` (any multiple-of-4
/// length). On little-endian targets this is one memcpy: the wire bytes
/// are already the in-memory representation.
fn extend_u32s(out: &mut Vec<u32>, chunk: &[u8]) {
    #[cfg(target_endian = "little")]
    {
        let n = chunk.len() / 4;
        let old = out.len();
        out.reserve(n);
        // SAFETY: the spare capacity holds exactly `chunk.len()` bytes,
        // the ranges cannot overlap (Vec spare capacity vs. a borrowed
        // section), and any bit pattern is a valid `u32`.
        unsafe {
            std::ptr::copy_nonoverlapping(
                chunk.as_ptr(),
                out.as_mut_ptr().add(old).cast::<u8>(),
                chunk.len(),
            );
            out.set_len(old + n);
        }
    }
    #[cfg(not(target_endian = "little"))]
    out.extend(
        chunk
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
    );
}

/// Appends a little-endian `f64` run to `out` (any multiple-of-8 length).
fn extend_f64s(out: &mut Vec<f64>, chunk: &[u8]) {
    #[cfg(target_endian = "little")]
    {
        let n = chunk.len() / 8;
        let old = out.len();
        out.reserve(n);
        // SAFETY: as in `extend_u32s`; any bit pattern is a valid `f64`.
        unsafe {
            std::ptr::copy_nonoverlapping(
                chunk.as_ptr(),
                out.as_mut_ptr().add(old).cast::<u8>(),
                chunk.len(),
            );
            out.set_len(old + n);
        }
    }
    #[cfg(not(target_endian = "little"))]
    out.extend(
        chunk
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")))),
    );
}

/// Reads a `u32` column, verifying the section checksum in the same
/// pass as the copy.
fn read_u32s(sec: &[u8], sum: u64) -> Result<Vec<u32>, DecodeError> {
    let mut out = Vec::with_capacity(sec.len() / 4);
    verify_while_copying(sec, sum, |c| extend_u32s(&mut out, c))?;
    Ok(out)
}

/// Reads an `f64` column, verifying the section checksum in the same
/// pass as the copy.
fn read_f64s(sec: &[u8], sum: u64) -> Result<Vec<f64>, DecodeError> {
    let mut out = Vec::with_capacity(sec.len() / 8);
    verify_while_copying(sec, sum, |c| extend_f64s(&mut out, c))?;
    Ok(out)
}

/// Reads a schema-id pair column, checksummed in the same pass. Tuple
/// layout is not guaranteed, so each element is rebuilt from one `u64`
/// load — a shift-split LLVM vectorizes — instead of a bulk copy; the
/// chunk is L1-hot from the checksum fold so the split is compute-only.
fn read_id_pairs(sec: &[u8], sum: u64) -> Result<Vec<(SchemaNodeId, SchemaNodeId)>, DecodeError> {
    let mut out = Vec::with_capacity(sec.len() / 8);
    verify_while_copying(sec, sum, |chunk| {
        out.extend(chunk.chunks_exact(8).map(|c| {
            let v = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            (SchemaNodeId(v as u32), SchemaNodeId((v >> 32) as u32))
        }))
    })?;
    Ok(out)
}

/// Reads a `(u32, u32)` span column, checksummed in the same pass.
fn read_u32_pairs(sec: &[u8], sum: u64) -> Result<Vec<(u32, u32)>, DecodeError> {
    let mut out = Vec::with_capacity(sec.len() / 8);
    verify_while_copying(sec, sum, |chunk| {
        out.extend(chunk.chunks_exact(8).map(|c| {
            let v = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            (v as u32, (v >> 32) as u32)
        }))
    })?;
    Ok(out)
}

/// Reads an attribute span column, checksummed in the same pass.
#[allow(clippy::type_complexity)]
fn read_spans2(sec: &[u8], sum: u64) -> Result<Vec<((u32, u32), (u32, u32))>, DecodeError> {
    let mut out = Vec::with_capacity(sec.len() / 16);
    verify_while_copying(sec, sum, |chunk| {
        out.extend(chunk.chunks_exact(16).map(|c| {
            let lo = u64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
            let hi = u64::from_le_bytes(c[8..].try_into().expect("8 bytes"));
            (
                (lo as u32, (lo >> 32) as u32),
                (hi as u32, (hi >> 32) as u32),
            )
        }))
    })?;
    Ok(out)
}

/// Reads a string-buffer section, checksummed in the same pass as the
/// copy (so the bytes are only traversed once before UTF-8 validation).
fn read_string(sec: &[u8], sum: u64) -> Result<String, DecodeError> {
    let mut out = Vec::with_capacity(sec.len());
    verify_while_copying(sec, sum, |c| out.extend_from_slice(c))?;
    String::from_utf8(out).map_err(|_| DecodeError::BadString)
}

/// The version-3 decoder: O(sections) header work, then one bulk copy
/// per column into the zero-recompute constructors.
fn decode_engine_snapshot_v3(bytes: &[u8]) -> Result<EngineSnapshot, DecodeError> {
    // Prelude: the caller verified magic + version; canonical files zero
    // the three pad bytes.
    if bytes.len() < V3_TABLE_END {
        return Err(DecodeError::Truncated);
    }
    if bytes[5..8] != [0, 0, 0] {
        return Err(DecodeError::Malformed);
    }
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
    // `file_len` pins the exact size up front, so truncation and trailing
    // garbage are caught before any section is trusted.
    if u64_at(8) != bytes.len() as u64 {
        return Err(DecodeError::Truncated);
    }
    if u64_at(16) != V3_SECTION_COUNT as u64 {
        return Err(DecodeError::Malformed);
    }
    let table_bytes = &bytes[V3_HEADER_LEN..V3_TABLE_END];
    if xxh64(table_bytes, 0) != u64_at(24) {
        return Err(DecodeError::BadChecksum);
    }

    // Validate every table entry: canonical kind order, alignment,
    // in-bounds extent, count × elem_size == len (so a hostile count can
    // never drive an allocation past the actual file size). Section
    // *content* checksums are deferred to the reads below: each section
    // is checksummed in the same cache-sized chunks as its bulk copy
    // (`verify_while_copying`), so its bytes are traversed once, not
    // hashed in an upfront sweep and then read all over again. Every
    // section is consumed exactly once, so no checksum goes unverified.
    let mut sections: Vec<(&[u8], u64)> = Vec::with_capacity(V3_SECTION_COUNT);
    for (i, &(kind, elem_size)) in V3_LAYOUT.iter().enumerate() {
        let e = V3_HEADER_LEN + i * V3_ENTRY_LEN;
        let entry_u64 = |j: usize| u64_at(e + 8 * j);
        if entry_u64(0) != kind || entry_u64(4) != elem_size {
            return Err(DecodeError::Malformed);
        }
        let offset = entry_u64(1) as usize;
        let len = entry_u64(2) as usize;
        let count = entry_u64(3);
        if !offset.is_multiple_of(SECTION_ALIGN) || offset < V3_TABLE_END {
            return Err(DecodeError::Misaligned);
        }
        let end = offset.checked_add(len).ok_or(DecodeError::Truncated)?;
        if end > bytes.len() {
            return Err(DecodeError::Truncated);
        }
        if count.checked_mul(elem_size) != Some(len as u64) {
            return Err(DecodeError::Malformed);
        }
        sections.push((&bytes[offset..end], entry_u64(5)));
    }
    let sec = |kind: u64| sections[kind as usize - 1];
    // META is the one section read through `Reader` (varint-packed), so
    // it is verified whole before parsing.
    let meta = {
        let (meta, sum) = sec(SEC_META);
        if xxh64(meta, 0) != sum {
            return Err(DecodeError::BadChecksum);
        }
        meta
    };

    // META: schemas, the ignored `min_support` slot, label table
    // (varint-packed).
    let mut r = Reader::new(meta);
    let source = r.schema()?;
    let target = r.schema()?;
    r.varint()?;
    let n_labels = r.varint()? as usize;
    let mut label_names = Vec::with_capacity(n_labels.min(4096));
    for _ in 0..n_labels {
        label_names.push(r.str()?.to_string());
    }
    r.finish()?;

    // Mapping columns, bulk-copied; deep validation (CSR shape, id
    // bounds, per-run sort order) lives in `from_raw_columns`.
    let scores = {
        let (sec, sum) = sec(SEC_MAP_SCORES);
        read_f64s(sec, sum)?
    };
    let probs = {
        let (sec, sum) = sec(SEC_MAP_PROBS);
        read_f64s(sec, sum)?
    };
    if probs.len() != scores.len() {
        return Err(DecodeError::Malformed);
    }
    let pair_offsets = {
        let (sec, sum) = sec(SEC_MAP_PAIR_OFFSETS);
        read_u32s(sec, sum)?
    };
    let pairs = {
        let (sec, sum) = sec(SEC_MAP_PAIRS);
        read_id_pairs(sec, sum)?
    };

    // Block-tree sections: empty in files written now; an older file's
    // tree is checksummed like every other section, then discarded.
    for kind in SEC_BLK_ANCHORS..=SEC_BLK_MAP_IDS {
        let (sec, sum) = sec(kind);
        if xxh64(sec, 0) != sum {
            return Err(DecodeError::BadChecksum);
        }
    }
    let mappings =
        PossibleMappings::from_raw_columns(source, target, scores, probs, pair_offsets, pairs)
            .ok_or(DecodeError::Malformed)?;

    // Document columns, straight into the zero-recompute constructor.
    let text_buf = {
        let (sec, sum) = sec(SEC_DOC_TEXT_BUF);
        read_string(sec, sum)?
    };
    let attr_buf = {
        let (sec, sum) = sec(SEC_DOC_ATTR_BUF);
        read_string(sec, sum)?
    };
    let labels = {
        let (sec, sum) = sec(SEC_DOC_LABELS);
        read_u32s(sec, sum)?
    };
    let parents = {
        let (sec, sum) = sec(SEC_DOC_PARENTS);
        read_u32s(sec, sum)?
    };
    let posts = {
        let (sec, sum) = sec(SEC_DOC_POSTS);
        read_u32s(sec, sum)?
    };
    let levels = {
        let (sec, sum) = sec(SEC_DOC_LEVELS);
        read_u32s(sec, sum)?
    };
    let child_offsets = {
        let (sec, sum) = sec(SEC_DOC_CHILD_OFFSETS);
        read_u32s(sec, sum)?
    };
    let child_list = {
        let (sec, sum) = sec(SEC_DOC_CHILD_LIST);
        read_u32s(sec, sum)?
    };
    let text_spans = {
        let (sec, sum) = sec(SEC_DOC_TEXT_SPANS);
        read_u32_pairs(sec, sum)?
    };
    let attr_offsets = {
        let (sec, sum) = sec(SEC_DOC_ATTR_OFFSETS);
        read_u32s(sec, sum)?
    };
    let attr_spans = {
        let (sec, sum) = sec(SEC_DOC_ATTR_SPANS);
        read_spans2(sec, sum)?
    };
    let by_label_offsets = {
        let (sec, sum) = sec(SEC_DOC_BY_LABEL_OFFSETS);
        read_u32s(sec, sum)?
    };
    let by_label_list = {
        let (sec, sum) = sec(SEC_DOC_BY_LABEL_LIST);
        read_u32s(sec, sum)?
    };
    let cols = uxm_xml::document::DocumentColumns {
        label_names,
        labels,
        parents,
        posts,
        levels,
        child_offsets,
        child_list,
        text_buf,
        text_spans,
        attr_buf,
        attr_offsets,
        attr_spans,
        by_label_offsets,
        by_label_list,
    };
    let document = Document::from_raw_columns(cols).map_err(column_error)?;

    Ok(EngineSnapshot { mappings, document })
}

/// Shared `ColumnError` → `DecodeError` mapping for the columnar
/// document constructors.
fn column_error(e: ColumnError) -> DecodeError {
    match e {
        ColumnError::BadParent => DecodeError::Malformed,
        ColumnError::BadLabel => DecodeError::IdOutOfRange,
        ColumnError::BadSpan => DecodeError::BadString,
        ColumnError::BadIndex => DecodeError::Malformed,
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_str(out, &schema.name);
    put_varint(out, schema.len() as u64);
    for id in schema.ids() {
        put_str(out, schema.label(id));
        if let Some(p) = schema.parent(id) {
            put_varint(out, p.0 as u64);
        }
        out.push(schema.node(id).repeatable as u8);
    }
}

/// The block encoding (anchor, corrs, mapping ids) of the standalone
/// "UXM1" codec.
fn put_blocks(out: &mut Vec<u8>, blocks: &[Block]) {
    put_varint(out, blocks.len() as u64);
    for b in blocks {
        put_varint(out, b.anchor.0 as u64);
        put_varint(out, b.corrs.len() as u64);
        for &(s, t) in &b.corrs {
            put_varint(out, s.0 as u64);
            put_varint(out, t.0 as u64);
        }
        put_varint(out, b.mappings.len() as u64);
        for &m in &b.mappings {
            put_varint(out, m.0 as u64);
        }
    }
}

// ---------------------------------------------------------------------
// varint plumbing

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

trait F64Bytes {
    fn to_le_bits_bytes(self) -> [u8; 8];
}

impl F64Bytes for f64 {
    fn to_le_bits_bytes(self) -> [u8; 8] {
        self.to_bits().to_le_bytes()
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn expect_magic(&mut self, magic: &[u8; 4]) -> Result<(), DecodeError> {
        if self.bytes.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        if &self.bytes[..4] != magic {
            return Err(DecodeError::BadMagic);
        }
        self.pos = 4;
        Ok(())
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
            self.pos += 1;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(DecodeError::Truncated);
            }
        }
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        let end = self.pos + 8;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(
            slice.try_into().expect("8 bytes"),
        )))
    }

    fn pairs(
        &mut self,
        n_source: usize,
        n_target: usize,
    ) -> Result<Vec<(SchemaNodeId, SchemaNodeId)>, DecodeError> {
        let n = self.varint()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let s = self.varint()? as u32;
            let t = self.varint()? as u32;
            if s as usize >= n_source || t as usize >= n_target {
                return Err(DecodeError::IdOutOfRange);
            }
            out.push((SchemaNodeId(s), SchemaNodeId(t)));
        }
        Ok(out)
    }

    /// Consumes the next `n` raw bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::BadString)
    }

    /// A schema stored by `put_schema`: pre-order nodes, parent preceding
    /// child.
    fn schema(&mut self) -> Result<Schema, DecodeError> {
        let name = self.str()?.to_string();
        let n = self.varint()? as usize;
        if n == 0 {
            return Err(DecodeError::Malformed);
        }
        let root_label = self.str()?.to_string();
        let mut schema = Schema::new(name, root_label);
        let root_rep = self.take(1)?[0] != 0;
        schema.set_repeatable(SchemaNodeId(0), root_rep);
        for id in 1..n {
            let label = self.str()?.to_string();
            let parent = self.varint()? as usize;
            if parent >= id {
                return Err(DecodeError::Malformed);
            }
            let repeatable = self.take(1)?[0] != 0;
            schema.add_child_full(SchemaNodeId(parent as u32), label, repeatable);
        }
        Ok(schema)
    }

    /// A document stored by `put_document`: nodes in document order,
    /// parent preceding child (the builder's append contract).
    fn document(&mut self) -> Result<Document, DecodeError> {
        let n_labels = self.varint()? as usize;
        let mut labels = Vec::with_capacity(n_labels.min(4096));
        for _ in 0..n_labels {
            labels.push(self.str()?.to_string());
        }
        let n = self.varint()? as usize;
        if n == 0 {
            return Err(DecodeError::Malformed);
        }
        let mut builder: Option<uxm_xml::document::DocumentBuilder> = None;
        for id in 0..n {
            let label = labels
                .get(self.varint()? as usize)
                .ok_or(DecodeError::IdOutOfRange)?;
            let node = match (&mut builder, id) {
                (slot @ None, 0) => {
                    *slot = Some(Document::builder(label));
                    DocNodeId(0)
                }
                (Some(b), _) => {
                    let parent = self.varint()? as usize;
                    if parent >= id {
                        return Err(DecodeError::Malformed);
                    }
                    b.add_child(DocNodeId(parent as u32), label)
                }
                (None, _) => unreachable!("builder set on id 0"),
            };
            let b = builder.as_mut().expect("builder initialized");
            if self.take(1)?[0] != 0 {
                let text = self.str()?.to_string();
                b.set_text(node, text);
            }
            let n_attrs = self.varint()? as usize;
            for _ in 0..n_attrs {
                let name = self.str()?.to_string();
                let value = self.str()?.to_string();
                b.add_attr(node, name, value);
            }
        }
        Ok(builder.expect("at least the root").finish())
    }

    /// A varint that must fit in a `u32` (column offsets and lengths).
    fn varint_u32(&mut self) -> Result<u32, DecodeError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| DecodeError::Malformed)
    }

    /// The v2 mapping section: shared blocks, then columnar score /
    /// probability columns and per-mapping block pointers + residuals,
    /// reconstructed straight into the columnar [`PossibleMappings`].
    fn columnar_mappings(
        &mut self,
        source: Schema,
        target: Schema,
    ) -> Result<PossibleMappings, DecodeError> {
        // Only each block's correspondences are kept, to expand the
        // mappings' block pointers; the tree itself is not rebuilt.
        self.varint()?; // min_support
        let n_blocks = self.varint()? as usize;
        let mut block_corrs = Vec::with_capacity(n_blocks.min(4096));
        for _ in 0..n_blocks {
            if self.varint_u32()? as usize >= target.len() {
                return Err(DecodeError::IdOutOfRange); // anchor
            }
            block_corrs.push(self.pairs(source.len(), target.len())?);
            for _ in 0..self.varint()? {
                self.varint_u32()?; // supporting mapping id
            }
        }

        let n = self.varint()? as usize;
        let mut scores = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            scores.push(self.f64()?);
        }
        let mut probs = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            probs.push(self.f64()?);
        }
        let mut pair_offsets = Vec::with_capacity(n + 1);
        pair_offsets.push(0u32);
        let mut pairs: Vec<(SchemaNodeId, SchemaNodeId)> = Vec::new();
        let mut row: Vec<(SchemaNodeId, SchemaNodeId)> = Vec::new();
        for _ in 0..n {
            row.clear();
            let n_b = self.varint()? as usize;
            for _ in 0..n_b {
                let b = self.varint()? as usize;
                let corrs = block_corrs.get(b).ok_or(DecodeError::IdOutOfRange)?;
                row.extend_from_slice(corrs);
            }
            row.extend(self.pairs(source.len(), target.len())?);
            row.sort_by_key(|&(s, t)| (t, s));
            row.dedup();
            pairs.extend_from_slice(&row);
            let end = u32::try_from(pairs.len()).map_err(|_| DecodeError::Malformed)?;
            pair_offsets.push(end);
        }
        PossibleMappings::from_columns(source, target, scores, probs, pair_offsets, pairs)
            .ok_or(DecodeError::Malformed)
    }

    /// The v2 columnar document section, decoded straight into
    /// [`Document::from_columns`] — no per-node `String` allocation and
    /// no incremental builder.
    fn document_columnar(&mut self) -> Result<Document, DecodeError> {
        let n_labels = self.varint()? as usize;
        let mut label_names = Vec::with_capacity(n_labels.min(4096));
        for _ in 0..n_labels {
            label_names.push(self.str()?.to_string());
        }
        let n = self.varint()? as usize;
        if n == 0 {
            return Err(DecodeError::Malformed);
        }
        let cap = n.min(1 << 20);
        let mut labels = Vec::with_capacity(cap);
        for _ in 0..n {
            labels.push(LabelId(self.varint_u32()?));
        }
        let mut parents = Vec::with_capacity(cap);
        parents.push(Document::NO_PARENT);
        for _ in 1..n {
            parents.push(self.varint_u32()?);
        }

        // Sparse text spans: (node, byte len) with strictly increasing
        // nodes, then the one contiguous buffer.
        let n_text = self.varint()? as usize;
        let mut text_entries = Vec::with_capacity(n_text.min(cap));
        let mut total_text = 0usize;
        let mut last: Option<u32> = None;
        for _ in 0..n_text {
            let node = self.varint_u32()?;
            let len = self.varint_u32()?;
            if node as usize >= n {
                return Err(DecodeError::IdOutOfRange);
            }
            if last.is_some_and(|l| node <= l) {
                return Err(DecodeError::Malformed);
            }
            last = Some(node);
            text_entries.push((node, len));
            total_text += len as usize;
        }
        let text_buf = std::str::from_utf8(self.take(total_text)?)
            .map_err(|_| DecodeError::BadString)?
            .to_string();
        let mut text_spans = vec![(Document::NO_PARENT, 0u32); n];
        let mut off = 0u32;
        for &(node, len) in &text_entries {
            text_spans[node as usize] = (off, len);
            off += len;
        }

        // Flat attribute spans: (node, name len, value len) with
        // non-decreasing nodes, then the one contiguous buffer.
        let n_attrs = self.varint()? as usize;
        let mut attr_counts = vec![0u32; n];
        let mut attr_lens = Vec::with_capacity(n_attrs.min(cap));
        let mut total_attr = 0usize;
        let mut last_node: Option<u32> = None;
        for _ in 0..n_attrs {
            let node = self.varint_u32()?;
            if node as usize >= n {
                return Err(DecodeError::IdOutOfRange);
            }
            if last_node.is_some_and(|l| node < l) {
                return Err(DecodeError::Malformed);
            }
            last_node = Some(node);
            let name_len = self.varint_u32()?;
            let value_len = self.varint_u32()?;
            attr_counts[node as usize] += 1;
            total_attr += name_len as usize + value_len as usize;
            attr_lens.push((name_len, value_len));
        }
        let attr_buf = std::str::from_utf8(self.take(total_attr)?)
            .map_err(|_| DecodeError::BadString)?
            .to_string();
        let mut attr_spans = Vec::with_capacity(attr_lens.len());
        let mut off = 0u32;
        for &(name_len, value_len) in &attr_lens {
            attr_spans.push(((off, name_len), (off + name_len, value_len)));
            off += name_len + value_len;
        }

        Document::from_columns(
            label_names,
            labels,
            parents,
            text_buf,
            text_spans,
            attr_buf,
            attr_counts,
            attr_spans,
        )
        .map_err(column_error)
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_tree::BlockTreeConfig;
    use uxm_matching::Matcher;

    fn workload() -> (PossibleMappings, BlockTree) {
        let source = Schema::parse_outline(
            "Order(Buyer(Name Contact(EMail)) POLine(LineNo Quantity UnitPrice))",
        )
        .unwrap();
        let target =
            Schema::parse_outline("PO(Purchaser(PName PContact(PEMail)) Line(No Qty Amount))")
                .unwrap();
        let matching = Matcher::context().match_schemas(&source, &target);
        let pm = PossibleMappings::top_h(&matching, 24);
        let tree = BlockTree::build(&target, &pm, &BlockTreeConfig::default());
        (pm, tree)
    }

    fn assert_same_mappings(a: &PossibleMappings, b: &PossibleMappings) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn plain_roundtrip() {
        let (pm, _) = workload();
        let bytes = encode_plain(&pm);
        let back = decode_plain(&bytes, pm.source.clone(), pm.target.clone()).unwrap();
        assert_same_mappings(&pm, &back);
    }

    #[test]
    fn compressed_roundtrip_restores_mappings_and_tree() {
        let (pm, tree) = workload();
        let bytes = encode_compressed(&pm, &tree);
        let (back, back_tree) =
            decode_compressed(&bytes, pm.source.clone(), pm.target.clone()).unwrap();
        assert_same_mappings(&pm, &back);
        assert_eq!(tree.blocks(), back_tree.blocks());
        assert_eq!(tree.min_support, back_tree.min_support);
        // rebuilt index answers lookups
        for b in tree.blocks() {
            assert!(back_tree.has_blocks(b.anchor));
        }
    }

    #[test]
    fn compressed_is_smaller_on_overlapping_sets() {
        // A heavily-overlapping set (the regime the paper targets): a
        // shared 9-element subtree across 60 mappings varying in one leaf.
        let source = Schema::parse_outline("O(A0 A1 A2 A3 A4 A5 A6 A7 A8 B1 B2)").unwrap();
        let target = Schema::parse_outline("R(X(C1 C2 C3 C4 C5 C6 C7 C8) Y)").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let mut shared = vec![(s("A0"), t("X"))];
        for i in 1..=8 {
            shared.push((s(&format!("A{i}")), t(&format!("C{i}"))));
        }
        let sets = (0..60)
            .map(|i| {
                let mut pairs = shared.clone();
                pairs.push((s(if i % 2 == 0 { "B1" } else { "B2" }), t("Y")));
                (pairs, 1.0 + i as f64 * 0.01)
            })
            .collect();
        let pm = PossibleMappings::from_pairs(source, target.clone(), sets);
        let tree = BlockTree::build(&target, &pm, &BlockTreeConfig::default());
        let ratio = measured_compression_ratio(&pm, &tree);
        assert!(
            ratio > 0.1,
            "expected on-disk savings, got ratio {ratio:.3} \
             (plain {} vs compressed {})",
            encode_plain(&pm).len(),
            encode_compressed(&pm, &tree).len()
        );
    }

    #[test]
    fn detects_bad_magic() {
        let (pm, tree) = workload();
        let plain = encode_plain(&pm);
        assert_eq!(
            decode_compressed(&plain, pm.source.clone(), pm.target.clone()).unwrap_err(),
            DecodeError::BadMagic
        );
        let compressed = encode_compressed(&pm, &tree);
        assert_eq!(
            decode_plain(&compressed, pm.source.clone(), pm.target.clone()).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn detects_truncation() {
        let (pm, _) = workload();
        let bytes = encode_plain(&pm);
        for cut in [3, bytes.len() / 2, bytes.len() - 1] {
            let err =
                decode_plain(&bytes[..cut], pm.source.clone(), pm.target.clone()).unwrap_err();
            assert_eq!(err, DecodeError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn detects_out_of_range_ids() {
        let (pm, _) = workload();
        let bytes = encode_plain(&pm);
        // shrink the target schema so stored ids overflow it
        let tiny = Schema::parse_outline("X").unwrap();
        let err = decode_plain(&bytes, pm.source.clone(), tiny).unwrap_err();
        assert_eq!(err, DecodeError::IdOutOfRange);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (pm, _) = workload();
        let mut bytes = encode_plain(&pm);
        bytes.push(0xFF);
        let err = decode_plain(&bytes, pm.source.clone(), pm.target.clone()).unwrap_err();
        assert_eq!(err, DecodeError::Truncated);
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries() {
        use uxm_twig::TwigPattern;
        use uxm_xml::DocGenConfig;

        let (pm, tree) = workload();
        let mut doc = {
            let mut b = Document::builder("Order");
            let root = b.root();
            let line = b.add_child(root, "POLine");
            let qty = b.add_child(line, "Quantity");
            b.set_text(qty, "3");
            b.add_attr(line, "id", "L1");
            b.finish()
        };
        // Also exercise a generated (larger) document.
        for generated in [false, true] {
            if generated {
                doc = Document::generate(&pm.source, &DocGenConfig::small(), 5);
            }
            let engine = QueryEngine::new(pm.clone(), doc.clone(), tree.clone());
            let bytes = encode_engine_snapshot(&engine);
            let back = decode_engine_snapshot(&bytes).unwrap();
            assert_eq!(back.source(), engine.source());
            assert_eq!(back.target(), engine.target());
            assert_same_mappings(back.mappings(), engine.mappings());
            assert_eq!(back.tree().blocks(), engine.tree().blocks());
            assert_eq!(back.document().len(), engine.document().len());
            for qs in ["PO//Qty", "PO/Line", "//Amount"] {
                let query = crate::api::Query::ptq(TwigPattern::parse(qs).unwrap());
                assert_eq!(
                    back.run(&query).unwrap().answers,
                    engine.run(&query).unwrap().answers,
                    "{qs}"
                );
            }
        }
    }

    #[test]
    fn snapshot_preserves_text_and_attrs() {
        let (pm, tree) = workload();
        let doc = {
            let mut b = Document::builder("Order");
            let root = b.root();
            let n = b.add_child(root, "Item");
            b.set_text(n, "héllo — utf8 ✓");
            b.add_attr(n, "currency", "EUR");
            b.add_attr(n, "unit", "kg");
            b.finish()
        };
        let engine = QueryEngine::new(pm, doc, tree);
        let back = decode_engine_snapshot(&encode_engine_snapshot(&engine)).unwrap();
        let item = back.document().nodes_with_label("Item")[0];
        assert_eq!(back.document().text(item), Some("héllo — utf8 ✓"));
        assert_eq!(back.document().attr(item, "currency"), Some("EUR"));
        assert_eq!(back.document().attr(item, "unit"), Some("kg"));
    }

    #[test]
    fn snapshot_rejects_unsupported_version() {
        let (pm, tree) = workload();
        let doc = Document::builder("Order").finish();
        let mut bytes = encode_engine_snapshot(&QueryEngine::new(pm, doc, tree));
        bytes[4] = 99; // version varint lives right after the magic
        assert_eq!(
            decode_engine_snapshot(&bytes).unwrap_err(),
            DecodeError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn snapshot_rejects_bad_strings_and_malformed_trees() {
        // Hand-craft a (v2-body) snapshot whose source schema name is
        // invalid UTF-8 — v2 is the newest version whose body starts
        // with an inline schema, so these stay pinned to version 2.
        let mut bad_string = Vec::new();
        bad_string.extend_from_slice(MAGIC_SNAPSHOT);
        put_varint(&mut bad_string, 2);
        put_varint(&mut bad_string, 2); // name length...
        bad_string.extend_from_slice(&[0xFF, 0xFE]); // ...invalid bytes
        assert_eq!(
            decode_engine_snapshot(&bad_string).unwrap_err(),
            DecodeError::BadString
        );

        // A schema node whose parent does not precede it.
        let mut bad_parent = Vec::new();
        bad_parent.extend_from_slice(MAGIC_SNAPSHOT);
        put_varint(&mut bad_parent, 2);
        put_str(&mut bad_parent, "s");
        put_varint(&mut bad_parent, 2); // two nodes
        put_str(&mut bad_parent, "Root");
        bad_parent.push(0);
        put_str(&mut bad_parent, "Child");
        put_varint(&mut bad_parent, 5); // parent id 5 >= node id 1
        bad_parent.push(0);
        assert_eq!(
            decode_engine_snapshot(&bad_parent).unwrap_err(),
            DecodeError::Malformed
        );

        // An empty node table.
        let mut empty = Vec::new();
        empty.extend_from_slice(MAGIC_SNAPSHOT);
        put_varint(&mut empty, 2);
        put_str(&mut empty, "s");
        put_varint(&mut empty, 0); // zero schema nodes
        assert_eq!(
            decode_engine_snapshot(&empty).unwrap_err(),
            DecodeError::Malformed
        );
    }

    #[test]
    fn snapshot_truncation_and_magic() {
        let (pm, tree) = workload();
        let doc = Document::builder("Order").finish();
        let bytes = encode_engine_snapshot(&QueryEngine::new(pm, doc, tree));
        assert_eq!(
            decode_engine_snapshot(&bytes[..bytes.len() - 1]).unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            decode_engine_snapshot(b"UXM0whatever").unwrap_err(),
            DecodeError::BadMagic
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_engine_snapshot(&trailing).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn xxh64_reference_vectors() {
        // Published XXH64 test vectors (seed 0).
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog", 0),
            0x0B24_2D36_1FDA_71BC
        );
        // Seed participates.
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abc", 1));
    }

    #[test]
    fn v3_container_framing() {
        let (pm, tree) = workload();
        let doc = {
            let mut b = Document::builder("Order");
            let root = b.root();
            let n = b.add_child(root, "POLine");
            b.set_text(n, "x");
            b.finish()
        };
        let bytes = encode_engine_snapshot(&QueryEngine::new(pm, doc, tree));
        assert_eq!(&bytes[..4], MAGIC_SNAPSHOT);
        assert_eq!(bytes[4], 3);
        assert_eq!(&bytes[5..8], &[0, 0, 0]);
        assert_eq!(snapshot_version(&bytes).unwrap(), SNAPSHOT_VERSION);
        let u64_at =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        assert_eq!(u64_at(8), bytes.len() as u64, "file_len");
        assert_eq!(u64_at(16), V3_SECTION_COUNT as u64, "section_count");
        for (i, &(kind, _)) in V3_LAYOUT.iter().enumerate() {
            let e = V3_HEADER_LEN + i * V3_ENTRY_LEN;
            assert_eq!(u64_at(e), kind, "kind order");
            let offset = u64_at(e + 8) as usize;
            assert_eq!(offset % SECTION_ALIGN, 0, "section {i} aligned");
            assert!(offset >= V3_TABLE_END, "section {i} inside the table");
        }
        // Canonical re-encode is byte-identical: every column is stored
        // verbatim, so decode → encode must be a fixed point.
        let parts = decode_engine_snapshot_parts(&bytes).unwrap();
        let engine = QueryEngine::build(parts.mappings, parts.document);
        assert_eq!(encode_engine_snapshot(&engine), bytes);
    }

    #[test]
    fn v3_corruption_is_typed() {
        let (pm, tree) = workload();
        let doc = Document::builder("Order").finish();
        let bytes = encode_engine_snapshot(&QueryEngine::new(pm, doc, tree));
        // Flip one byte inside the section table: table checksum.
        let mut t = bytes.clone();
        t[V3_HEADER_LEN + 8] ^= 1;
        assert_eq!(
            decode_engine_snapshot(&t).unwrap_err(),
            DecodeError::BadChecksum
        );
        // Flip one content byte in the first section: section checksum.
        let mut c = bytes.clone();
        let first = u64::from_le_bytes(
            bytes[V3_HEADER_LEN + 8..V3_HEADER_LEN + 16]
                .try_into()
                .unwrap(),
        );
        c[first as usize] ^= 1;
        assert_eq!(
            decode_engine_snapshot(&c).unwrap_err(),
            DecodeError::BadChecksum
        );
        // Non-zero prelude padding is rejected as malformed.
        let mut p = bytes.clone();
        p[6] = 1;
        assert_eq!(
            decode_engine_snapshot(&p).unwrap_err(),
            DecodeError::Malformed
        );
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.finish().is_ok());
        }
    }
}
