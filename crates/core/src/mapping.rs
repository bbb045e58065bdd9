//! Possible mappings with probabilities, stored columnar.
//!
//! A *possible mapping* (paper §I) is a partial one-to-one function from
//! source to target elements; a schema matching is modelled as a
//! probability distribution over possible mappings, obtained by ranking
//! assignments (§V) and normalizing their scores.
//!
//! [`PossibleMappings`] keeps the whole set in structure-of-arrays form:
//! one contiguous `Vec<f64>` each for scores and probabilities, and one
//! flat correspondence array addressed per mapping through a CSR offsets
//! table — no per-mapping `Vec` allocations, no pointer chasing on the
//! evaluation hot path. Borrowing a mapping yields a cheap [`MappingRef`]
//! view (a slice plus two floats). Source and target element labels are
//! additionally interned into one [`SymbolTable`] namespace so label-level
//! rewriting can run on dense `u32` symbols; the `String`-returning APIs
//! are shims over the symbol paths.

use uxm_assignment::merge::RankedMapping;
use uxm_assignment::murty::RankVariant;
use uxm_assignment::partition::{murty_top_h_mappings, partition_top_h};
use uxm_matching::SchemaMatching;
use uxm_xml::{Schema, SchemaNodeId, Symbol, SymbolTable};

/// Index of a mapping within a [`PossibleMappings`] set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MappingId(pub u32);

impl MappingId {
    /// Widens to a `usize` for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One possible mapping `m_i` with its probability `p_i`, in owned form.
///
/// The columnar [`PossibleMappings`] store does not hold `Mapping`s
/// directly — this type is the construction/decode currency (e.g. the
/// storage codec builds a `Vec<Mapping>` and hands it to
/// [`PossibleMappings::from_parts`]) and the owned counterpart of the
/// borrowed [`MappingRef`] view.
#[derive(Clone, Debug, PartialEq)]
pub struct Mapping {
    /// Correspondence pairs `(source, target)`, sorted by target element.
    /// At most one pair per source and per target (one-to-one).
    pub pairs: Vec<(SchemaNodeId, SchemaNodeId)>,
    /// The raw assignment score (sum of correspondence scores).
    pub score: f64,
    /// Normalized probability; the set sums to 1.
    pub prob: f64,
}

/// A borrowed view of one mapping inside a [`PossibleMappings`] set: a
/// slice into the flat correspondence array plus the score/probability
/// read from their contiguous columns. `Copy`, so it passes by value.
#[derive(Clone, Copy, Debug)]
pub struct MappingRef<'a> {
    /// Correspondence pairs `(source, target)`, sorted by target element.
    pub pairs: &'a [(SchemaNodeId, SchemaNodeId)],
    /// The raw assignment score (sum of correspondence scores).
    pub score: f64,
    /// Normalized probability; the set sums to 1.
    pub prob: f64,
}

impl PartialEq for MappingRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.pairs == other.pairs && self.score == other.score && self.prob == other.prob
    }
}

impl<'a> MappingRef<'a> {
    /// The source element mapped to target `t`, if any (binary search).
    pub fn source_for_target(&self, t: SchemaNodeId) -> Option<SchemaNodeId> {
        self.pairs
            .binary_search_by_key(&t, |&(_, tt)| tt)
            .ok()
            .map(|i| self.pairs[i].0)
    }

    /// True iff the mapping contains exactly this pair.
    pub fn contains_pair(&self, s: SchemaNodeId, t: SchemaNodeId) -> bool {
        self.source_for_target(t) == Some(s)
    }

    /// Number of correspondences.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True for the empty mapping.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Copies the view into an owned [`Mapping`].
    pub fn to_owned(&self) -> Mapping {
        Mapping {
            pairs: self.pairs.to_vec(),
            score: self.score,
            prob: self.prob,
        }
    }
}

impl Mapping {
    /// The source element mapped to target `t`, if any (binary search).
    pub fn source_for_target(&self, t: SchemaNodeId) -> Option<SchemaNodeId> {
        self.as_ref().source_for_target(t)
    }

    /// True iff the mapping contains exactly this pair.
    pub fn contains_pair(&self, s: SchemaNodeId, t: SchemaNodeId) -> bool {
        self.as_ref().contains_pair(s, t)
    }

    /// Number of correspondences.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True for the empty mapping.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Borrows the owned mapping as a [`MappingRef`] view.
    pub fn as_ref(&self) -> MappingRef<'_> {
        MappingRef {
            pairs: &self.pairs,
            score: self.score,
            prob: self.prob,
        }
    }
}

/// A set `M` of possible mappings between two schemas, with probabilities,
/// in columnar (structure-of-arrays) layout.
#[derive(Clone, Debug)]
pub struct PossibleMappings {
    /// The source schema `S`.
    pub source: Schema,
    /// The target schema `T`.
    pub target: Schema,
    /// Raw assignment scores, one per mapping.
    scores: Vec<f64>,
    /// Normalized probabilities, one per mapping (sums to 1).
    probs: Vec<f64>,
    /// CSR offsets: mapping `i`'s pairs are
    /// `pairs[pair_offsets[i]..pair_offsets[i+1]]`.
    pair_offsets: Vec<u32>,
    /// All correspondence pairs, flat; each mapping's run is sorted by
    /// target element.
    pairs: Vec<(SchemaNodeId, SchemaNodeId)>,
    /// Source and target element labels interned into one namespace.
    labels: SymbolTable,
    /// Per source schema node: its label's symbol.
    source_syms: Vec<Symbol>,
    /// Per target schema node: its label's symbol.
    target_syms: Vec<Symbol>,
}

impl PossibleMappings {
    /// Derives the top-`h` possible mappings of `matching` using the
    /// partition-based generator (§V-B) and normalizes probabilities.
    pub fn top_h(matching: &SchemaMatching, h: usize) -> PossibleMappings {
        Self::from_ranked(
            matching.source.clone(),
            matching.target.clone(),
            partition_top_h(matching, h),
        )
    }

    /// Like [`PossibleMappings::top_h`] but using whole-graph Murty ranking
    /// (the paper's baseline generator).
    pub fn top_h_murty(matching: &SchemaMatching, h: usize) -> PossibleMappings {
        Self::from_ranked(
            matching.source.clone(),
            matching.target.clone(),
            murty_top_h_mappings(matching, h, RankVariant::PascoalLazy),
        )
    }

    /// Wraps pre-ranked mappings, normalizing scores into probabilities.
    /// A zero total score (all mappings empty) falls back to uniform.
    pub fn from_ranked(
        source: Schema,
        target: Schema,
        ranked: Vec<RankedMapping>,
    ) -> PossibleMappings {
        let total: f64 = ranked.iter().map(|r| r.score).sum();
        let n = ranked.len().max(1);
        let mut pm = PossibleMappings::empty_columns(source, target, ranked.len());
        for r in ranked {
            pm.push_row(
                &r.pairs,
                r.score,
                if total > 0.0 {
                    r.score / total
                } else {
                    1.0 / n as f64
                },
            );
        }
        pm
    }

    /// Builds directly from mappings (tests); normalizes probabilities
    /// from the given scores.
    pub fn from_pairs(
        source: Schema,
        target: Schema,
        sets: Vec<(Vec<(SchemaNodeId, SchemaNodeId)>, f64)>,
    ) -> PossibleMappings {
        let ranked = sets
            .into_iter()
            .map(|(mut pairs, score)| {
                pairs.sort_by_key(|&(s, t)| (t, s));
                RankedMapping { pairs, score }
            })
            .collect();
        Self::from_ranked(source, target, ranked)
    }

    /// Wraps fully-specified mappings verbatim (the storage codec's decode
    /// path) — scores and probabilities are taken as stored, not
    /// renormalized.
    pub fn from_parts(source: Schema, target: Schema, mappings: Vec<Mapping>) -> Self {
        let mut pm = PossibleMappings::empty_columns(source, target, mappings.len());
        for m in mappings {
            pm.push_row(&m.pairs, m.score, m.prob);
        }
        pm
    }

    /// Assembles the columnar set directly (the snapshot v2 decoder's
    /// fast path). `pair_offsets` must have one more entry than `scores`,
    /// start at 0, be non-decreasing, and end at `pairs.len()`; callers
    /// validate pair ids against the schemas beforehand.
    pub fn from_columns(
        source: Schema,
        target: Schema,
        scores: Vec<f64>,
        probs: Vec<f64>,
        pair_offsets: Vec<u32>,
        pairs: Vec<(SchemaNodeId, SchemaNodeId)>,
    ) -> Option<PossibleMappings> {
        let n = scores.len();
        if probs.len() != n
            || pair_offsets.len() != n + 1
            || pair_offsets.first() != Some(&0)
            || *pair_offsets.last().expect("n+1 entries") as usize != pairs.len()
            || pair_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return None;
        }
        let (labels, source_syms, target_syms) = intern_labels(&source, &target);
        Some(PossibleMappings {
            source,
            target,
            scores,
            probs,
            pair_offsets,
            pairs,
            labels,
            source_syms,
            target_syms,
        })
    }

    /// Assembles the columnar set from **verbatim** arena columns — the
    /// snapshot v3 decoder's zero-copy path. On top of the shape checks
    /// of [`PossibleMappings::from_columns`], every pair is
    /// bounds-checked against the schemas in one linear scan and every
    /// per-mapping run must be sorted by target id (the order
    /// [`MappingRef::source_for_target`]'s binary search relies on);
    /// there is no per-pair decode, sort, or dedup.
    pub fn from_raw_columns(
        source: Schema,
        target: Schema,
        scores: Vec<f64>,
        probs: Vec<f64>,
        pair_offsets: Vec<u32>,
        pairs: Vec<(SchemaNodeId, SchemaNodeId)>,
    ) -> Option<PossibleMappings> {
        // CSR shape first — the run slicing below depends on it.
        if pair_offsets.len() != scores.len() + 1
            || pair_offsets.first() != Some(&0)
            || pair_offsets.windows(2).any(|w| w[0] > w[1])
            || *pair_offsets.last()? as usize != pairs.len()
        {
            return None;
        }
        let (ns, nt) = (source.len() as u32, target.len() as u32);
        if pairs.iter().any(|&(s, t)| s.0 >= ns || t.0 >= nt) {
            return None;
        }
        let sorted_by_target = pair_offsets.windows(2).all(|w| {
            let run = &pairs[w[0] as usize..w[1] as usize];
            run.windows(2).all(|p| (p[0].1, p[0].0) <= (p[1].1, p[1].0))
        });
        if !sorted_by_target {
            return None;
        }
        PossibleMappings::from_columns(source, target, scores, probs, pair_offsets, pairs)
    }

    fn empty_columns(source: Schema, target: Schema, capacity: usize) -> PossibleMappings {
        let (labels, source_syms, target_syms) = intern_labels(&source, &target);
        PossibleMappings {
            source,
            target,
            scores: Vec::with_capacity(capacity),
            probs: Vec::with_capacity(capacity),
            pair_offsets: {
                let mut v = Vec::with_capacity(capacity + 1);
                v.push(0);
                v
            },
            pairs: Vec::new(),
            labels,
            source_syms,
            target_syms,
        }
    }

    fn push_row(&mut self, pairs: &[(SchemaNodeId, SchemaNodeId)], score: f64, prob: f64) {
        self.pairs.extend_from_slice(pairs);
        self.pair_offsets.push(self.pairs.len() as u32);
        self.scores.push(score);
        self.probs.push(prob);
    }

    /// Number of mappings (the paper's `|M|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no mappings exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Borrow a mapping as a [`MappingRef`] view.
    #[inline]
    pub fn mapping(&self, id: MappingId) -> MappingRef<'_> {
        let (a, b) = (
            self.pair_offsets[id.idx()] as usize,
            self.pair_offsets[id.idx() + 1] as usize,
        );
        MappingRef {
            pairs: &self.pairs[a..b],
            score: self.scores[id.idx()],
            prob: self.probs[id.idx()],
        }
    }

    /// The probability column — one contiguous `f64` per mapping.
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// The probability of one mapping (O(1) column read).
    #[inline]
    pub fn prob(&self, id: MappingId) -> f64 {
        self.probs[id.idx()]
    }

    /// Total number of correspondence pairs across all mappings.
    #[inline]
    pub fn total_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The score column — one contiguous `f64` per mapping (the snapshot
    /// v3 encoder writes it verbatim).
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The CSR pair offsets: mapping `i`'s pairs are
    /// `pairs_flat()[pair_offsets()[i]..pair_offsets()[i+1]]`.
    #[inline]
    pub fn pair_offsets(&self) -> &[u32] {
        &self.pair_offsets
    }

    /// The flat pair arena behind every mapping, in CSR order.
    #[inline]
    pub fn pairs_flat(&self) -> &[(SchemaNodeId, SchemaNodeId)] {
        &self.pairs
    }

    /// Iterate over `(id, mapping view)`.
    pub fn iter(&self) -> impl Iterator<Item = (MappingId, MappingRef<'_>)> {
        self.ids().map(|id| (id, self.mapping(id)))
    }

    /// All mapping ids.
    pub fn ids(&self) -> impl Iterator<Item = MappingId> {
        (0..self.scores.len() as u32).map(MappingId)
    }

    /// The shared label namespace (source + target element labels).
    #[inline]
    pub fn label_table(&self) -> &SymbolTable {
        &self.labels
    }

    /// The interned source-label symbols that target-label `label` can
    /// rewrite to under mapping `id` — the allocation-lean core of
    /// [`PossibleMappings::source_labels_for`]: for every target element
    /// labelled `label` that the mapping covers, the symbol of its mapped
    /// source element's label (sorted, deduplicated).
    pub fn source_label_syms_for(&self, id: MappingId, label: &str) -> Vec<Symbol> {
        let m = self.mapping(id);
        let mut out: Vec<Symbol> = self
            .target
            .nodes_with_label(label)
            .into_iter()
            .filter_map(|t| m.source_for_target(t))
            .map(|s| self.source_syms[s.idx()])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The source labels that target-label `label` can rewrite to under
    /// mapping `id`, as owned strings in sorted order. A shim over
    /// [`PossibleMappings::source_label_syms_for`] for `String`-level
    /// callers.
    pub fn source_labels_for(&self, id: MappingId, label: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .source_label_syms_for(id, label)
            .into_iter()
            .map(|s| self.labels.name(s).to_string())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Node-granularity variant of [`PossibleMappings::source_labels_for`]:
    /// the source *schema nodes* target-label `label` rewrites to under
    /// mapping `id`.
    pub fn source_nodes_for(&self, id: MappingId, label: &str) -> Vec<SchemaNodeId> {
        let m = self.mapping(id);
        let mut out: Vec<SchemaNodeId> = self
            .target
            .nodes_with_label(label)
            .into_iter()
            .filter_map(|t| m.source_for_target(t))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Resident heap bytes of the columnar store (scores, probabilities,
    /// offsets, flat pairs, and the label symbol arrays); excludes the
    /// schemas, which the engine accounts separately.
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.scores.len() + self.probs.len()) * size_of::<f64>()
            + self.pair_offsets.len() * size_of::<u32>()
            + self.pairs.len() * size_of::<(SchemaNodeId, SchemaNodeId)>()
            + (self.source_syms.len() + self.target_syms.len()) * size_of::<Symbol>()
    }
}

/// Interns every source and target element label into one namespace and
/// records each node's symbol.
fn intern_labels(source: &Schema, target: &Schema) -> (SymbolTable, Vec<Symbol>, Vec<Symbol>) {
    let mut labels = SymbolTable::new();
    let source_syms = source
        .ids()
        .map(|id| labels.intern(source.label(id)))
        .collect();
    let target_syms = target
        .ids()
        .map(|id| labels.intern(target.label(id)))
        .collect();
    (labels, source_syms, target_syms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uxm_matching::Matcher;

    fn schemas() -> (Schema, Schema) {
        (
            Schema::parse_outline("Order(BillTo(Name) Seller(Name))").unwrap(),
            Schema::parse_outline("ORDER(INVOICE(CONTACT))").unwrap(),
        )
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (s, t) = schemas();
        let matching = Matcher::context().match_schemas(&s, &t);
        let pm = PossibleMappings::top_h(&matching, 8);
        assert!(!pm.is_empty());
        let total: f64 = pm.iter().map(|(_, m)| m.prob).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        assert_eq!(pm.probabilities().len(), pm.len());
    }

    #[test]
    fn ranked_order_preserved() {
        let (s, t) = schemas();
        let matching = Matcher::context().match_schemas(&s, &t);
        let pm = PossibleMappings::top_h(&matching, 8);
        let scores: Vec<f64> = pm.iter().map(|(_, m)| m.score).collect();
        for w in scores.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn partition_and_murty_generators_agree() {
        let (s, t) = schemas();
        let matching = Matcher::context().match_schemas(&s, &t);
        let a = PossibleMappings::top_h(&matching, 6);
        let b = PossibleMappings::top_h_murty(&matching, 6);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.1.score - y.1.score).abs() < 1e-9);
        }
    }

    #[test]
    fn source_for_target_lookup() {
        let (s, t) = schemas();
        let pm = PossibleMappings::from_pairs(
            s,
            t,
            vec![(
                vec![
                    (SchemaNodeId(0), SchemaNodeId(0)),
                    (SchemaNodeId(2), SchemaNodeId(2)),
                ],
                1.0,
            )],
        );
        let m = pm.mapping(MappingId(0));
        assert_eq!(m.source_for_target(SchemaNodeId(0)), Some(SchemaNodeId(0)));
        assert_eq!(m.source_for_target(SchemaNodeId(1)), None);
        assert!(m.contains_pair(SchemaNodeId(2), SchemaNodeId(2)));
        assert!(!m.contains_pair(SchemaNodeId(1), SchemaNodeId(2)));
    }

    #[test]
    fn source_labels_for_unions_over_duplicate_labels() {
        let s = Schema::parse_outline("Order(BillTo(Name) Seller(Name))").unwrap();
        let t = Schema::parse_outline("PO(Inv(CN) Sup(CN))").unwrap();
        let inv_cn = t.nodes_with_label("CN")[0];
        let sup_cn = t.nodes_with_label("CN")[1];
        let bill_name = s.nodes_with_label("Name")[0];
        let seller_name = s.nodes_with_label("Name")[1];
        let pm = PossibleMappings::from_pairs(
            s,
            t,
            vec![(vec![(bill_name, inv_cn), (seller_name, sup_cn)], 1.0)],
        );
        let labels = pm.source_labels_for(MappingId(0), "CN");
        assert_eq!(labels, vec!["Name".to_string()]);
        assert!(pm.source_labels_for(MappingId(0), "Sup").is_empty());
        // The symbol path agrees with the string shim.
        let syms = pm.source_label_syms_for(MappingId(0), "CN");
        assert_eq!(syms.len(), 1);
        assert_eq!(pm.label_table().name(syms[0]), "Name");
    }

    #[test]
    fn uniform_fallback_for_zero_scores() {
        let (s, t) = schemas();
        let pm = PossibleMappings::from_pairs(s, t, vec![(vec![], 0.0), (vec![], 0.0)]);
        assert!((pm.mapping(MappingId(0)).prob - 0.5).abs() < 1e-12);
        assert!((pm.prob(MappingId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_pairs_sorts_by_target() {
        let (s, t) = schemas();
        let pm = PossibleMappings::from_pairs(
            s,
            t,
            vec![(
                vec![
                    (SchemaNodeId(2), SchemaNodeId(2)),
                    (SchemaNodeId(0), SchemaNodeId(0)),
                ],
                1.0,
            )],
        );
        let m = pm.mapping(MappingId(0));
        assert!(m.pairs[0].1 < m.pairs[1].1);
    }

    #[test]
    fn columnar_roundtrip_through_owned_mappings() {
        let (s, t) = schemas();
        let matching = Matcher::context().match_schemas(&s, &t);
        let pm = PossibleMappings::top_h(&matching, 6);
        let owned: Vec<Mapping> = pm.iter().map(|(_, m)| m.to_owned()).collect();
        let back = PossibleMappings::from_parts(pm.source.clone(), pm.target.clone(), owned);
        assert_eq!(pm.len(), back.len());
        for (a, b) in pm.iter().zip(back.iter()) {
            assert_eq!(a.1, b.1);
        }
        assert_eq!(pm.total_pairs(), back.total_pairs());
    }

    #[test]
    fn from_columns_validates_offsets() {
        let (s, t) = schemas();
        assert!(PossibleMappings::from_columns(
            s.clone(),
            t.clone(),
            vec![1.0],
            vec![1.0],
            vec![0, 1],
            vec![(SchemaNodeId(0), SchemaNodeId(0))],
        )
        .is_some());
        // Offsets not covering the pair array.
        assert!(PossibleMappings::from_columns(
            s.clone(),
            t.clone(),
            vec![1.0],
            vec![1.0],
            vec![0, 0],
            vec![(SchemaNodeId(0), SchemaNodeId(0))],
        )
        .is_none());
        // Decreasing offsets.
        assert!(PossibleMappings::from_columns(
            s,
            t,
            vec![1.0, 1.0],
            vec![0.5, 0.5],
            vec![0, 1, 0],
            vec![(SchemaNodeId(0), SchemaNodeId(0))],
        )
        .is_none());
    }
}
