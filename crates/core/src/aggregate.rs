//! Aggregate answers over PTQ matches: COUNT / SUM / MIN / MAX, reported
//! per mapping and as a probability-weighted marginal.
//!
//! An aggregate query ([`crate::api::Query::Aggregate`]) evaluates its
//! twig pattern exactly like a PTQ — same relevance filtering, same
//! rewriting, same matcher, any of the three backends — and then folds
//! each mapping's match set into one scalar:
//!
//! * the **subject node** is the pattern's spine leaf (root, then last
//!   child, repeatedly) — the node a caller writes last, e.g. `UnitPrice`
//!   in `PO/Line/UnitPrice`;
//! * `count` is the number of matches (always defined, `0` for an empty
//!   match set);
//! * `sum` / `min` / `max` fold the *numeric* subject values, one per
//!   match, parsed by [`uxm_twig::resolve::numeric`] (trimmed, finite);
//!   a match whose subject value is absent or non-numeric contributes
//!   nothing, and a mapping with **no** numeric contribution has a null
//!   value;
//! * the **marginal** is `Σ pᵢ·vᵢ / Σ pᵢ` over the rows whose value is
//!   defined — the expected aggregate under the mapping distribution,
//!   renormalized over the mass that defines one. It is null when no row
//!   does.
//!
//! Every number here is a plain `f64` folded in a pinned order (rows in
//! answer order, marginal in row order), so all three backends — and a
//! router merging shards — produce byte-identical canonical JSON.

use crate::api::Answer;
use crate::json::{Json, Writer};
use crate::mapping::MappingId;
use std::fmt;
use uxm_twig::resolve::numeric;
use uxm_twig::{TwigMatch, TwigPattern};
use uxm_xml::Document;

/// The aggregate function of a [`crate::api::Query::Aggregate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Number of matches.
    Count,
    /// Sum of the numeric subject values, in match order.
    Sum,
    /// Minimum numeric subject value.
    Min,
    /// Maximum numeric subject value.
    Max,
}

impl AggFunc {
    /// The wire name (`count` / `sum` / `min` / `max`).
    pub fn wire_name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Option<AggFunc> {
        match name {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// One mapping's aggregate value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggRow {
    /// The mapping this row was evaluated under.
    pub mapping: MappingId,
    /// That mapping's probability.
    pub probability: f64,
    /// The folded value; `None` when the fold is undefined (no numeric
    /// subject value among the matches). `count` is always defined.
    pub value: Option<f64>,
}

/// The aggregate block of a [`crate::api::QueryResponse`].
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateResult {
    /// The function that was folded.
    pub func: AggFunc,
    /// Per-mapping rows, in answer order (ascending mapping id).
    pub rows: Vec<AggRow>,
    /// `Σ p·v / Σ p` over the rows with a defined value; `None` when no
    /// row defines one.
    pub marginal: Option<f64>,
}

impl AggregateResult {
    /// Packages rows with their marginal.
    pub fn new(func: AggFunc, rows: Vec<AggRow>) -> AggregateResult {
        let marginal = marginal_of(&rows);
        AggregateResult {
            func,
            rows,
            marginal,
        }
    }

    /// The canonical JSON form (alphabetical keys; undefined values are
    /// `null`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("func".into(), Json::str(self.func.wire_name())),
            ("marginal".into(), opt_num(self.marginal)),
            ("rows".into(), self.rows_json()),
        ])
    }

    /// Streams the canonical form into `w`: the bytes of
    /// [`AggregateResult::to_json`], with no tree in between.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_obj();
        w.key("func");
        w.str(self.func.wire_name());
        w.key("marginal");
        w.opt_num(self.marginal);
        w.key("rows");
        self.write_rows(w);
        w.end_obj();
    }

    /// Streams [`AggregateResult::rows_json`] into `w`.
    pub fn write_rows(&self, w: &mut Writer<'_>) {
        w.begin_arr();
        for r in &self.rows {
            w.begin_obj();
            w.key("mapping");
            w.uint(u64::from(r.mapping.0));
            w.key("probability");
            w.num(r.probability);
            w.key("value");
            w.opt_num(r.value);
            w.end_obj();
        }
        w.end_arr();
    }

    /// The rows alone as a canonical JSON array — the reference form of
    /// what [`AggregateResult::write_rows`] streams into the per-engine
    /// entries of an `/aggregate` body.
    pub fn rows_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("mapping".into(), Json::uint(r.mapping.0 as u64)),
                        ("probability".into(), Json::Num(r.probability)),
                        ("value".into(), opt_num(r.value)),
                    ])
                })
                .collect(),
        )
    }
}

/// An optional number as canonical JSON (`null` when undefined).
pub(crate) fn opt_num(v: Option<f64>) -> Json {
    match v {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}

/// Folds one mapping's match set (the per-row semantics above). The
/// **single** implementation every backend funnels through — the VM's
/// `agg-fold` op and the recursive evaluators' post-pass both call it,
/// which is what makes their aggregates byte-identical.
pub(crate) fn row_value(
    func: AggFunc,
    matches: &[TwigMatch],
    subject: uxm_twig::PatternNodeId,
    doc: &Document,
) -> Option<f64> {
    if func == AggFunc::Count {
        return Some(matches.len() as f64);
    }
    let mut values = matches
        .iter()
        .filter_map(|m| doc.text(m.nodes[subject.idx()]).and_then(numeric));
    let first = values.next()?;
    Some(match func {
        AggFunc::Count => unreachable!("handled above"),
        AggFunc::Sum => values.fold(first, |acc, v| acc + v),
        AggFunc::Min => values.fold(first, f64::min),
        AggFunc::Max => values.fold(first, f64::max),
    })
}

/// Per-mapping rows from shaped answers (the recursive-backend path; the
/// compiled backend produces the same rows inside the VM).
pub(crate) fn rows_of(
    func: AggFunc,
    answers: &[Answer],
    pattern: &TwigPattern,
    doc: &Document,
) -> Vec<AggRow> {
    let subject = pattern.spine_leaf();
    answers
        .iter()
        .map(|a| AggRow {
            mapping: a.mappings[0],
            probability: a.probability,
            value: row_value(func, &a.matches, subject, doc),
        })
        .collect()
}

/// `Σ p·v / Σ p` over the rows with a defined value, folded in row
/// order; `None` when no row defines a value (or no defining row carries
/// mass).
pub fn marginal_of(rows: &[AggRow]) -> Option<f64> {
    let mut mass = 0.0;
    let mut acc = 0.0;
    let mut any = false;
    for r in rows {
        if let Some(v) = r.value {
            any = true;
            mass += r.probability;
            acc += r.probability * v;
        }
    }
    (any && mass > 0.0).then(|| acc / mass)
}

/// The cross-shard / cross-engine merge: folds per-engine marginals (in
/// the caller's pinned order — engine name ascending on the wire) into
/// one fleet-wide value. `count` and `sum` add (engines hold disjoint
/// documents), `min` / `max` take the extremum; null marginals are
/// skipped, and the merge of nothing is null. Associative and
/// order-insensitive up to f64 rounding; the name-ascending fold order
/// pins the bytes. Documented in `docs/wire-format.md`.
pub fn merge_marginals(
    func: AggFunc,
    marginals: impl IntoIterator<Item = Option<f64>>,
) -> Option<f64> {
    let mut merged: Option<f64> = None;
    for m in marginals {
        let Some(v) = m else { continue };
        merged = Some(match merged {
            None => v,
            Some(acc) => match func {
                AggFunc::Count | AggFunc::Sum => acc + v,
                AggFunc::Min => acc.min(v),
                AggFunc::Max => acc.max(v),
            },
        });
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use uxm_twig::PatternNodeId;
    use uxm_xml::parse_document;

    fn matches(nodes: &[u32]) -> Vec<TwigMatch> {
        nodes
            .iter()
            .map(|&n| TwigMatch {
                nodes: vec![uxm_xml::DocNodeId(n)],
            })
            .collect()
    }

    #[test]
    fn row_values_follow_documented_semantics() {
        let doc = parse_document("<a><p>10</p><p>7.5</p><p>x</p></a>").unwrap();
        let subject = PatternNodeId(0);
        let ps = doc.nodes_with_label("p");
        let all = matches(&[ps[0].0, ps[1].0, ps[2].0]);
        assert_eq!(row_value(AggFunc::Count, &all, subject, &doc), Some(3.0));
        assert_eq!(row_value(AggFunc::Sum, &all, subject, &doc), Some(17.5));
        assert_eq!(row_value(AggFunc::Min, &all, subject, &doc), Some(7.5));
        assert_eq!(row_value(AggFunc::Max, &all, subject, &doc), Some(10.0));
        // Empty match set: count 0, everything else undefined.
        assert_eq!(row_value(AggFunc::Count, &[], subject, &doc), Some(0.0));
        assert_eq!(row_value(AggFunc::Sum, &[], subject, &doc), None);
        // Only non-numeric subjects: undefined.
        let texty = matches(&[ps[2].0]);
        assert_eq!(row_value(AggFunc::Min, &texty, subject, &doc), None);
        assert_eq!(row_value(AggFunc::Count, &texty, subject, &doc), Some(1.0));
    }

    #[test]
    fn marginal_renormalizes_over_defined_rows() {
        let row = |id: u32, p: f64, v: Option<f64>| AggRow {
            mapping: MappingId(id),
            probability: p,
            value: v,
        };
        let rows = [
            row(0, 0.5, Some(10.0)),
            row(1, 0.25, None),
            row(2, 0.25, Some(2.0)),
        ];
        // (0.5·10 + 0.25·2) / (0.5 + 0.25) = 5.5 / 0.75
        let m = marginal_of(&rows).unwrap();
        assert!((m - 5.5 / 0.75).abs() < 1e-12, "{m}");
        assert_eq!(marginal_of(&[row(0, 0.5, None)]), None);
        assert_eq!(marginal_of(&[]), None);
        assert_eq!(marginal_of(&[row(0, 0.0, Some(3.0))]), None, "no mass");
    }

    #[test]
    fn merge_adds_or_takes_extremum() {
        let ms = [Some(3.0), None, Some(1.5)];
        assert_eq!(merge_marginals(AggFunc::Sum, ms), Some(4.5));
        assert_eq!(merge_marginals(AggFunc::Count, ms), Some(4.5));
        assert_eq!(merge_marginals(AggFunc::Min, ms), Some(1.5));
        assert_eq!(merge_marginals(AggFunc::Max, ms), Some(3.0));
        assert_eq!(merge_marginals(AggFunc::Sum, [None, None]), None);
        assert_eq!(merge_marginals(AggFunc::Sum, []), None);
    }

    #[test]
    fn json_shape_is_canonical() {
        let result = AggregateResult::new(
            AggFunc::Sum,
            vec![
                AggRow {
                    mapping: MappingId(0),
                    probability: 0.5,
                    value: Some(3.0),
                },
                AggRow {
                    mapping: MappingId(2),
                    probability: 0.5,
                    value: None,
                },
            ],
        );
        let text = result.to_json().to_string();
        assert_eq!(
            text,
            "{\"func\":\"sum\",\"marginal\":3,\"rows\":[\
             {\"mapping\":0,\"probability\":0.5,\"value\":3},\
             {\"mapping\":2,\"probability\":0.5,\"value\":null}]}"
        );
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn wire_names_roundtrip() {
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            assert_eq!(AggFunc::from_wire(f.wire_name()), Some(f));
        }
        assert_eq!(AggFunc::from_wire("avg"), None);
    }
}
