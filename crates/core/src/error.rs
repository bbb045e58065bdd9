//! The crate-wide error type: [`UxmError`].
//!
//! [`UxmError`] absorbs the error types of the layers below it —
//! [`KeywordError`] from keyword evaluation, [`DecodeError`] from
//! snapshot codecs, and [`TwigParseError`] from query parsing (via `From`
//! impls, so `?` just works), giving every layer — CLI, registry batches,
//! [`crate::engine::QueryEngine::run`] — one typed error surface.

use crate::json::JsonError;
use crate::keyword::KeywordError;
use crate::storage::DecodeError;
use std::fmt;
use uxm_twig::TwigParseError;

/// Any failure the query stack can report.
///
/// `KeywordError`, `DecodeError`, and `TwigParseError` are wrapped; the
/// registry's failures (`UnknownEngine`, `InvalidName`, `NoSnapshotDir`,
/// `Io`) are variants of their own.
#[derive(Clone, Debug, PartialEq)]
pub enum UxmError {
    /// A twig pattern failed to parse.
    Parse(TwigParseError),
    /// A keyword query was rejected by the evaluator.
    Keyword(KeywordError),
    /// A stored artifact (mapping set or engine snapshot) failed to
    /// decode.
    Decode(DecodeError),
    /// No engine is registered (or snapshotted) under that name.
    UnknownEngine(String),
    /// An engine name unusable as a snapshot file stem (path separators,
    /// `..`, or empty).
    InvalidName(String),
    /// Snapshot persistence was requested but no snapshot directory is
    /// configured.
    NoSnapshotDir,
    /// Reading or writing a file failed (the message names the path).
    Io(String),
    /// An input artifact (schema outline/XSD, XML document) failed to
    /// parse; the message names the file.
    Input(String),
    /// A batch run completed but some requests failed (each already
    /// reported individually).
    Batch {
        /// How many requests failed.
        failed: usize,
    },
    /// The service shed this request: a shared resource (connection
    /// queue, hydration budget) is saturated and admitting more work
    /// would degrade everyone. Served as HTTP 503 with a `Retry-After`
    /// header; the request was not evaluated and is safe to retry.
    Overloaded {
        /// Which resource was saturated (e.g. `"connection queue"`).
        reason: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// This client exceeded its fair share of a per-client limit, so the
    /// request was shed to keep one hot client from starving the rest.
    /// Served as HTTP 429 with a `Retry-After` header; safe to retry.
    RateLimited {
        /// Which limit was hit (e.g. `"connections per client"`).
        reason: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A request handler failed unexpectedly (e.g. panicked); the
    /// failure was contained to the one request and the service keeps
    /// running. Served as HTTP 500.
    Internal(String),
    /// The shard that owns the requested engine could not be reached
    /// over the router's internal hop (see [`crate::router`]). Served as
    /// HTTP 503 with a `Retry-After` header; the router retries once
    /// against a fresh ring before reporting this, so it usually means a
    /// shard process is genuinely down mid-rebalance.
    ShardUnavailable {
        /// The unreachable shard's id.
        shard: u64,
        /// What failed on the internal hop.
        reason: String,
    },
    /// A wire-format document failed to parse or had the wrong shape.
    Json(String),
    /// A structurally valid [`crate::api::Query`] with unusable options
    /// (e.g. a non-finite probability threshold).
    InvalidQuery(String),
    /// Malformed command-line usage (CLI layer only).
    Usage(String),
}

impl fmt::Display for UxmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UxmError::Parse(e) => write!(f, "query parse: {e}"),
            UxmError::Keyword(e) => write!(f, "keyword query: {e}"),
            UxmError::Decode(e) => write!(f, "snapshot decode: {e}"),
            UxmError::UnknownEngine(n) => write!(f, "no engine named {n:?}"),
            UxmError::InvalidName(n) => write!(f, "invalid engine name {n:?}"),
            UxmError::NoSnapshotDir => write!(f, "registry has no snapshot directory"),
            UxmError::Io(e) => write!(f, "i/o: {e}"),
            UxmError::Input(e) => write!(f, "input: {e}"),
            UxmError::Batch { failed } => write!(f, "batch: {failed} request(s) failed"),
            UxmError::Overloaded {
                reason,
                retry_after_ms,
            } => write!(f, "overloaded: {reason} (retry in {retry_after_ms}ms)"),
            UxmError::RateLimited {
                reason,
                retry_after_ms,
            } => write!(f, "rate limited: {reason} (retry in {retry_after_ms}ms)"),
            UxmError::Internal(e) => write!(f, "internal: {e}"),
            UxmError::ShardUnavailable { shard, reason } => {
                write!(f, "shard {shard} unavailable: {reason}")
            }
            UxmError::Json(e) => write!(f, "wire format: {e}"),
            UxmError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            UxmError::Usage(e) => write!(f, "usage: {e}"),
        }
    }
}

impl std::error::Error for UxmError {}

impl From<TwigParseError> for UxmError {
    fn from(e: TwigParseError) -> UxmError {
        UxmError::Parse(e)
    }
}

impl From<KeywordError> for UxmError {
    fn from(e: KeywordError) -> UxmError {
        UxmError::Keyword(e)
    }
}

impl From<DecodeError> for UxmError {
    fn from(e: DecodeError) -> UxmError {
        UxmError::Decode(e)
    }
}

impl From<JsonError> for UxmError {
    fn from(e: JsonError) -> UxmError {
        UxmError::Json(e.to_string())
    }
}

impl UxmError {
    /// Wraps an I/O failure, prefixing the path it concerned.
    pub fn io(path: impl fmt::Display, e: std::io::Error) -> UxmError {
        UxmError::Io(format!("{path}: {e}"))
    }

    /// The stable kebab-case kind name carried in wire-format error
    /// bodies (`{"error":{"kind":…}}`, see [`crate::server`] and
    /// `docs/wire-format.md`). One name per variant; messages may
    /// change between releases, kinds do not.
    pub fn kind(&self) -> &'static str {
        match self {
            UxmError::Parse(_) => "parse",
            UxmError::Keyword(_) => "keyword",
            UxmError::Decode(_) => "decode",
            UxmError::UnknownEngine(_) => "unknown-engine",
            UxmError::InvalidName(_) => "invalid-name",
            UxmError::NoSnapshotDir => "no-snapshot-dir",
            UxmError::Io(_) => "io",
            UxmError::Input(_) => "input",
            UxmError::Batch { .. } => "batch",
            UxmError::Overloaded { .. } => "overloaded",
            UxmError::RateLimited { .. } => "rate-limited",
            UxmError::Internal(_) => "internal",
            UxmError::ShardUnavailable { .. } => "shard-unavailable",
            UxmError::Json(_) => "json",
            UxmError::InvalidQuery(_) => "invalid-query",
            UxmError::Usage(_) => "usage",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_absorb_layer_errors() {
        let k: UxmError = KeywordError::Empty.into();
        assert_eq!(k, UxmError::Keyword(KeywordError::Empty));
        let d: UxmError = DecodeError::BadMagic.into();
        assert_eq!(d, UxmError::Decode(DecodeError::BadMagic));
        let p: UxmError = TwigParseError::Empty.into();
        assert_eq!(p, UxmError::Parse(TwigParseError::Empty));
        let j: UxmError = crate::json::JsonError {
            offset: 3,
            message: "expected ':'",
        }
        .into();
        assert!(matches!(j, UxmError::Json(_)));
    }

    #[test]
    fn shed_kinds_are_stable() {
        let o = UxmError::Overloaded {
            reason: "connection queue full".into(),
            retry_after_ms: 250,
        };
        assert_eq!(o.kind(), "overloaded");
        assert!(o.to_string().contains("250ms"));
        let r = UxmError::RateLimited {
            reason: "connections per client".into(),
            retry_after_ms: 100,
        };
        assert_eq!(r.kind(), "rate-limited");
        assert!(r.to_string().starts_with("rate limited:"));
        assert_eq!(
            UxmError::Internal("handler panicked".into()).kind(),
            "internal"
        );
        let s = UxmError::ShardUnavailable {
            shard: 3,
            reason: "connect refused".into(),
        };
        assert_eq!(s.kind(), "shard-unavailable");
        assert_eq!(s.to_string(), "shard 3 unavailable: connect refused");
    }

    #[test]
    fn display_is_prefixed_by_layer() {
        assert_eq!(
            UxmError::UnknownEngine("po".into()).to_string(),
            "no engine named \"po\""
        );
        assert!(UxmError::Keyword(KeywordError::Empty)
            .to_string()
            .starts_with("keyword query:"));
        assert!(UxmError::io("f.txt", std::io::Error::other("boom"))
            .to_string()
            .contains("f.txt"));
    }
}
