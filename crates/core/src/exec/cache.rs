//! The per-engine program cache: compile once, replay on every
//! repeated query.
//!
//! Keys are the **canonical query shape** — the execution granularity,
//! the top-k bound, and the pattern's canonical rendering. Symbols and
//! target candidates are resolved *into* the cached program (compile
//! inlines them as constants), which is why the cache must be
//! per-engine: a program is only meaningful against the session whose
//! arenas it was compiled over.

use super::program::{Program, SetMode};
use crate::aggregate::AggFunc;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use uxm_twig::TwigPattern;

/// Lock shards per cache. Keys hash to a shard, so concurrent readers
/// (and writers) of *different* keys never contend on a lock; readers of
/// the same key share a read lock.
const CACHE_SHARDS: usize = 16;

/// Upper bound on cached programs per shard (~1024 programs total).
const PROGRAMS_PER_SHARD: usize = 64;

/// A string-keyed map split across [`CACHE_SHARDS`] `RwLock`ed shards.
struct Sharded<V> {
    shards: Vec<RwLock<HashMap<String, V>>>,
}

impl<V> Sharded<V> {
    fn new() -> Sharded<V> {
        Sharded {
            shards: (0..CACHE_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    /// `key`'s shard, picked by an unkeyed multiply-rotate hash over
    /// the key's 8-byte words. The shard only spreads lock traffic; the
    /// map inside keeps its keyed SipHash, because keys come from
    /// clients.
    fn shard(&self, key: &str) -> &RwLock<HashMap<String, V>> {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
        let mut words = key.as_bytes().chunks_exact(8);
        let mut h = 0u64;
        for word in &mut words {
            h = step(
                h,
                u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
            );
        }
        for &b in words.remainder() {
            h = step(h, u64::from(b));
        }
        // The high half: the product's low bits see only the input's.
        &self.shards[(h >> 32) as usize % CACHE_SHARDS]
    }

    /// Applies `f` to `key`'s entry under the shard's read lock.
    fn read<R>(&self, key: &str, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shard(key).read().expect("cache lock").get(key).map(f)
    }

    /// Updates `key`'s entry (default-created if absent) under the shard's
    /// write lock. A shard holding `cap` distinct keys is cleared
    /// wholesale before a *new* key is admitted — crude, but it bounds a
    /// long-lived session serving unbounded ad-hoc queries, and a clear
    /// only costs recompiling programs still in rotation.
    fn update(&self, key: &str, cap: usize, f: impl FnOnce(&mut V))
    where
        V: Default,
    {
        let mut shard = self.shard(key).write().expect("cache lock");
        if shard.len() >= cap && !shard.contains_key(key) {
            shard.clear();
        }
        f(shard.entry(key.to_string()).or_default())
    }
}

/// Cumulative program-cache counters for one engine, surfaced through
/// `GET /stats` and `uxm explain`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Lookups served by a cached program.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Programs compiled over this engine's lifetime. Equal to `misses`
    /// unless concurrent cold lookups raced on one key (each racer
    /// compiles; last write wins, the results are identical).
    pub compiled: u64,
}

/// A sharded map from canonical query shape to its compiled [`Program`].
pub(crate) struct ProgramCache {
    shards: Sharded<Option<Arc<Program>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compiled: AtomicU64,
}

impl ProgramCache {
    pub(crate) fn new() -> ProgramCache {
        ProgramCache {
            shards: Sharded::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiled: AtomicU64::new(0),
        }
    }

    /// The canonical cache key: granularity tag + top-k bound +
    /// aggregate function + the pattern's canonical rendering (so
    /// textual variants of one twig share a program, while an aggregate
    /// program — which ends in `agg-fold` — never aliases a plain PTQ
    /// over the same pattern). Predicates and wildcards need no extra
    /// key component: the canonical rendering spells them out. The key
    /// is written into one `String`, the pattern rendered straight in.
    pub(crate) fn key(
        mode: SetMode,
        k: Option<usize>,
        agg: Option<AggFunc>,
        pattern: &TwigPattern,
    ) -> String {
        let mut key = String::with_capacity(64);
        key.push_str(match mode {
            SetMode::Symbols => "L:",
            SetMode::SchemaNodes => "N:",
        });
        match k {
            Some(k) => write!(key, "{k}").expect("writing to a String cannot fail"),
            None => key.push('-'),
        }
        key.push(':');
        key.push_str(agg.map_or("-", AggFunc::wire_name));
        key.push(':');
        write!(key, "{pattern}").expect("writing to a String cannot fail");
        key
    }

    /// Returns the cached program for `key`, or compiles, caches, and
    /// returns it. The boolean is `true` on a cache hit. Compilation
    /// runs outside any lock; two threads racing on a cold key both
    /// compile identical programs and last-write-wins.
    pub(crate) fn get_or_compile(
        &self,
        key: &str,
        compile: impl FnOnce() -> Program,
    ) -> (Arc<Program>, bool) {
        if let Some(Some(hit)) = self.shards.read(key, Clone::clone) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compiled.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(compile());
        self.shards.update(key, PROGRAMS_PER_SHARD, |slot| {
            *slot = Some(Arc::clone(&program));
        });
        (program, false)
    }

    /// Cumulative counters.
    pub(crate) fn stats(&self) -> ProgramCacheStats {
        ProgramCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiled: self.compiled.load(Ordering::Relaxed),
        }
    }
}
