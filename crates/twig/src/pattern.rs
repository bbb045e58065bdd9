//! Twig pattern AST and parser.
//!
//! The grammar covers the queries in the paper's Table III plus value
//! predicates and the wildcard label (see `docs/query-language.md`):
//!
//! ```text
//! query     := ('/' | '//')? step ( ('/' | '//') step )*
//! step      := label predicate*
//! label     := name | '*'
//! predicate := '[' relpath ']' | '[' valuepred ']'
//! relpath   := ('./' | './/') step ( ('/' | '//') step )*
//! valuepred := target '=' quoted
//!            | target cmp number
//!            | 'contains(' target ',' quoted ')'
//! target    := '.' | 'text()' | '@' name
//! cmp       := '<' | '<=' | '>' | '>='
//! quoted    := '\'' value '\''
//! ```
//!
//! Examples: `Order/DeliverTo/Address[./City][./Country]/Street`,
//! `Order[./Buyer/Contact][./DeliverTo//City]//BPID`, `//IP//ICN`,
//! `Order//UP[.>=10]`, `//*[@id='b7']/Quantity`,
//! `Order//City[contains(.,'Ber')]`.
//!
//! A parsed pattern is at most [`MAX_DEPTH`] nodes deep on any
//! root-to-leaf path and has at most [`MAX_NODES`] nodes; deeper input
//! fails with [`TwigParseError::TooDeep`], larger input with
//! [`TwigParseError::TooManyNodes`].
//!
//! `text()` is a synonym for `.`; the canonical rendering (what
//! [`TwigPattern`]'s `Display` emits) always uses `.`. Numeric literals
//! render via Rust's shortest-round-trip `f64` formatting, so one
//! parse→display trip is a fixpoint (`[.<3.50]` canonicalizes to
//! `[.<3.5]` and stays there).

use std::fmt;

/// Deepest pattern [`TwigPattern::parse`] accepts: the most nodes on any
/// root-to-leaf path, counting spine steps (`a/b`) and predicate branch
/// levels (`a[./b]`) alike. Rendering, resolution, compilation and the
/// recursive evaluators all recurse once per level, so this cap bounds
/// their stack use too. It matches the JSON nesting cap of the query
/// wire format; the deepest paper query is 4 levels.
pub const MAX_DEPTH: usize = 128;

/// Most nodes [`TwigPattern::parse`] accepts in one pattern, spine steps
/// and predicate branches together. Rewriting, compilation and
/// evaluation do work per node for every relevant mapping, so this cap
/// bounds them where [`MAX_DEPTH`] alone leaves breadth to the request
/// body cap. The largest paper query (Table III) has 7 nodes.
pub const MAX_NODES: usize = 1024;

/// Index of a node within a [`TwigPattern`]; the root is 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PatternNodeId(pub u32);

impl PatternNodeId {
    /// Widens to a `usize` for arena indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Structural relation between a pattern node and its parent (or, for the
/// root, between the root and the document).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Axis {
    /// `/`: parent-child. For the root: must be the document root.
    Child,
    /// `//`: ancestor-descendant. For the root: may occur anywhere.
    Descendant,
}

/// What a value predicate reads off the matched document node.
#[derive(Clone, Debug, PartialEq)]
pub enum PredTarget {
    /// The element's text content (`.` / `text()` in the grammar).
    Text,
    /// The named attribute's value (`@name` in the grammar).
    Attr(String),
}

/// The comparison a value predicate applies to the read value.
///
/// String comparisons ([`PredOp::Eq`], [`PredOp::Contains`]) are exact
/// byte comparisons. Numeric comparisons parse the document value as an
/// `f64` first; a value that is absent, non-numeric, or `NaN` never
/// satisfies a numeric comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum PredOp {
    /// `= 'v'` — the value equals the literal exactly.
    Eq(String),
    /// `contains(_, 'v')` — the value contains the literal as a substring.
    Contains(String),
    /// `< n` — the value parses as a number strictly below `n`.
    Lt(f64),
    /// `<= n`.
    Le(f64),
    /// `> n`.
    Gt(f64),
    /// `>= n`.
    Ge(f64),
}

/// A value predicate attached to one pattern node: a read target plus a
/// comparison. A node may carry several; all must hold (conjunction).
#[derive(Clone, Debug, PartialEq)]
pub struct ValuePred {
    /// What to read from the matched document node.
    pub target: PredTarget,
    /// The comparison to apply.
    pub op: PredOp,
}

/// One node of a twig pattern.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternNode {
    /// Element label this node requires (before any query rewriting), or
    /// `"*"` for the wildcard, which matches any label.
    pub label: String,
    /// Relation to the parent pattern node (or to the document, for root).
    pub axis: Axis,
    /// Parent pattern node; `None` for the root.
    pub parent: Option<PatternNodeId>,
    /// Child pattern nodes (spine continuation and predicate branches).
    pub children: Vec<PatternNodeId>,
    /// Value predicates on the matched node (conjunction; empty = none).
    pub preds: Vec<ValuePred>,
}

impl PatternNode {
    /// True for the wildcard label `*`, which matches any element label.
    #[inline]
    pub fn is_wildcard(&self) -> bool {
        self.label == "*"
    }

    /// The node's text-equality literal, when its predicates are exactly
    /// the classic `[.='v']` form (compatibility accessor).
    pub fn text_eq(&self) -> Option<&str> {
        self.preds.iter().find_map(|p| match (&p.target, &p.op) {
            (PredTarget::Text, PredOp::Eq(v)) => Some(v.as_str()),
            _ => None,
        })
    }
}

/// A parsed twig pattern.
///
/// ```
/// use uxm_twig::TwigPattern;
/// let q = TwigPattern::parse("Order/POLine[./LineNo]//UP").unwrap();
/// assert_eq!(q.len(), 4);
/// assert_eq!(q.node(q.root()).label, "Order");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TwigPattern {
    nodes: Vec<PatternNode>,
}

impl TwigPattern {
    /// The root pattern node (always id 0).
    #[inline]
    pub fn root(&self) -> PatternNodeId {
        PatternNodeId(0)
    }

    /// Number of query nodes (the paper's `l`).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Never true — a pattern has at least its root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: PatternNodeId) -> &PatternNode {
        &self.nodes[id.idx()]
    }

    /// All node ids in pre-order (parents before children).
    pub fn ids(&self) -> impl Iterator<Item = PatternNodeId> + '_ {
        (0..self.nodes.len() as u32).map(PatternNodeId)
    }

    /// The distinct labels used by the pattern.
    pub fn labels(&self) -> Vec<&str> {
        let mut ls: Vec<&str> = self.nodes.iter().map(|n| n.label.as_str()).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Number of edges (`|E|` in the paper's cost analysis).
    pub fn edge_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Builds a single-node pattern.
    pub fn single(label: impl Into<String>, axis: Axis) -> Self {
        TwigPattern {
            nodes: vec![PatternNode {
                label: label.into(),
                axis,
                parent: None,
                children: Vec::new(),
                preds: Vec::new(),
            }],
        }
    }

    /// Appends a child query node and returns its id.
    pub fn add_child(
        &mut self,
        parent: PatternNodeId,
        label: impl Into<String>,
        axis: Axis,
    ) -> PatternNodeId {
        let id = PatternNodeId(self.nodes.len() as u32);
        self.nodes.push(PatternNode {
            label: label.into(),
            axis,
            parent: Some(parent),
            children: Vec::new(),
            preds: Vec::new(),
        });
        self.nodes[parent.idx()].children.push(id);
        id
    }

    /// Attaches a value predicate to a node (conjunction with any
    /// predicates already present).
    pub fn add_pred(&mut self, id: PatternNodeId, pred: ValuePred) {
        self.nodes[id.idx()].preds.push(pred);
    }

    /// Sets a text-equality predicate on a node — shorthand for
    /// [`TwigPattern::add_pred`] with the classic `[.='v']` form.
    pub fn set_text_eq(&mut self, id: PatternNodeId, value: impl Into<String>) {
        self.add_pred(
            id,
            ValuePred {
                target: PredTarget::Text,
                op: PredOp::Eq(value.into()),
            },
        );
    }

    /// The spine leaf: from the root, repeatedly the last child — the
    /// node the canonical rendering ends on. Aggregate queries read
    /// their value (text content) off this node's match.
    pub fn spine_leaf(&self) -> PatternNodeId {
        let mut at = self.root();
        while let Some(&last) = self.node(at).children.last() {
            at = last;
        }
        at
    }

    /// Overrides a node's axis. Query decomposition uses this to relax an
    /// extracted subquery's root to `//` (the parent edge is re-imposed by
    /// the structural join).
    pub fn set_axis(&mut self, id: PatternNodeId, axis: Axis) {
        self.nodes[id.idx()].axis = axis;
    }

    /// Extracts the subpattern rooted at `id` as a standalone pattern
    /// (used by the block-tree evaluator's query splitting). The extracted
    /// root keeps `id`'s axis.
    pub fn subpattern(&self, id: PatternNodeId) -> TwigPattern {
        self.subpattern_with_map(id).0
    }

    /// Like [`TwigPattern::subpattern`], also returning, for each node of
    /// the extracted pattern, its id in `self` — so sub-results can be
    /// stitched back into whole-pattern matches.
    pub fn subpattern_with_map(&self, id: PatternNodeId) -> (TwigPattern, Vec<PatternNodeId>) {
        let mut out = TwigPattern::single(self.node(id).label.clone(), self.node(id).axis);
        out.nodes[0].preds = self.node(id).preds.clone();
        let mut map = vec![id];
        self.copy_children_mapped(id, &mut out, PatternNodeId(0), &mut map);
        (out, map)
    }

    fn copy_children_mapped(
        &self,
        from: PatternNodeId,
        out: &mut TwigPattern,
        to: PatternNodeId,
        map: &mut Vec<PatternNodeId>,
    ) {
        for &c in &self.node(from).children {
            let n = self.node(c);
            let new_id = out.add_child(to, n.label.clone(), n.axis);
            out.nodes[new_id.idx()].preds = n.preds.clone();
            map.push(c);
            self.copy_children_mapped(c, out, new_id, map);
        }
    }

    /// A pattern containing only `id`'s label/axis/predicates (used for
    /// the `q0` root-only subquery in Algorithm 4).
    pub fn node_only(&self, id: PatternNodeId) -> TwigPattern {
        let mut out = TwigPattern::single(self.node(id).label.clone(), self.node(id).axis);
        out.nodes[0].preds = self.node(id).preds.clone();
        out
    }

    /// Parses the XPath subset described in the module docs.
    pub fn parse(input: &str) -> Result<Self, TwigParseError> {
        let mut p = PatternParser {
            input: input.as_bytes(),
            pos: 0,
        };
        let pattern = p.parse_query()?;
        if p.pos < p.input.len() {
            return Err(TwigParseError::Trailing(p.pos));
        }
        Ok(pattern)
    }
}

impl fmt::Display for TwigPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_node(self, self.root(), f, true)
    }
}

fn write_node(
    q: &TwigPattern,
    id: PatternNodeId,
    f: &mut fmt::Formatter<'_>,
    is_root: bool,
) -> fmt::Result {
    let n = q.node(id);
    if is_root {
        if n.axis == Axis::Descendant {
            write!(f, "//")?;
        }
    } else {
        match n.axis {
            Axis::Child => write!(f, "/")?,
            Axis::Descendant => write!(f, "//")?,
        }
    }
    write!(f, "{}", n.label)?;
    for p in &n.preds {
        write!(f, "[{p}]")?;
    }
    // All children but the last render as predicates; the last continues
    // the spine. (A canonical, re-parseable rendering.)
    let kids = &n.children;
    if kids.is_empty() {
        return Ok(());
    }
    for &c in &kids[..kids.len() - 1] {
        write!(f, "[.")?;
        write_node(q, c, f, false)?;
        write!(f, "]")?;
    }
    write_node(q, kids[kids.len() - 1], f, false)
}

impl fmt::Display for PredTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredTarget::Text => write!(f, "."),
            PredTarget::Attr(name) => write!(f, "@{name}"),
        }
    }
}

impl fmt::Display for ValuePred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = &self.target;
        match &self.op {
            PredOp::Eq(v) => write!(f, "{t}='{v}'"),
            PredOp::Contains(v) => write!(f, "contains({t},'{v}')"),
            PredOp::Lt(n) => write!(f, "{t}<{n}"),
            PredOp::Le(n) => write!(f, "{t}<={n}"),
            PredOp::Gt(n) => write!(f, "{t}>{n}"),
            PredOp::Ge(n) => write!(f, "{t}>={n}"),
        }
    }
}

/// Errors from [`TwigPattern::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwigParseError {
    /// A label was expected at the given byte offset.
    ExpectedLabel(usize),
    /// `]` was expected at the given byte offset.
    ExpectedClose(usize),
    /// Malformed text predicate at the given byte offset.
    BadPredicate(usize),
    /// Input continued past a complete query.
    Trailing(usize),
    /// The query string was empty.
    Empty,
    /// The step starting at the given byte offset would make the pattern
    /// deeper than [`MAX_DEPTH`].
    TooDeep(usize),
    /// The step starting at the given byte offset would give the pattern
    /// more than [`MAX_NODES`] nodes.
    TooManyNodes(usize),
}

impl fmt::Display for TwigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwigParseError::ExpectedLabel(p) => write!(f, "expected label at byte {p}"),
            TwigParseError::ExpectedClose(p) => write!(f, "expected ']' at byte {p}"),
            TwigParseError::BadPredicate(p) => write!(f, "malformed predicate at byte {p}"),
            TwigParseError::Trailing(p) => write!(f, "trailing input at byte {p}"),
            TwigParseError::Empty => write!(f, "empty query"),
            TwigParseError::TooDeep(p) => {
                write!(f, "pattern deeper than {MAX_DEPTH} levels at byte {p}")
            }
            TwigParseError::TooManyNodes(p) => {
                write!(f, "pattern has more than {MAX_NODES} nodes at byte {p}")
            }
        }
    }
}

impl std::error::Error for TwigParseError {}

struct PatternParser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> PatternParser<'a> {
    fn parse_query(&mut self) -> Result<TwigPattern, TwigParseError> {
        let root_axis = self.read_axis().unwrap_or(Axis::Child);
        let label = self.read_label()?;
        let mut q = TwigPattern::single(label, root_axis);
        self.parse_step_suffix(&mut q, PatternNodeId(0))?;
        self.parse_spine(&mut q, PatternNodeId(0))?;
        Ok(q)
    }

    /// Parses the rest of a path after `at`: (`/`|`//`) step ...
    fn parse_spine(
        &mut self,
        q: &mut TwigPattern,
        mut at: PatternNodeId,
    ) -> Result<(), TwigParseError> {
        loop {
            let start = self.pos;
            let Some(axis) = self.read_axis() else {
                return Ok(());
            };
            check_caps(q, at, start)?;
            let label = self.read_label()?;
            at = q.add_child(at, label, axis);
            self.parse_step_suffix(q, at)?;
        }
    }

    /// Parses zero or more `[...]` predicates attached to `at`.
    fn parse_step_suffix(
        &mut self,
        q: &mut TwigPattern,
        at: PatternNodeId,
    ) -> Result<(), TwigParseError> {
        while self.peek() == Some(b'[') {
            self.pos += 1;
            self.parse_predicate(q, at)?;
            if self.peek() != Some(b']') {
                return Err(TwigParseError::ExpectedClose(self.pos));
            }
            self.pos += 1;
        }
        Ok(())
    }

    fn parse_predicate(
        &mut self,
        q: &mut TwigPattern,
        at: PatternNodeId,
    ) -> Result<(), TwigParseError> {
        // contains(target,'v')
        if self.try_consume("contains(") {
            let target = self
                .try_read_pred_target()?
                .ok_or(TwigParseError::BadPredicate(self.pos))?;
            if !self.try_consume(",") {
                return Err(TwigParseError::BadPredicate(self.pos));
            }
            let v = self.read_quoted()?;
            if !self.try_consume(")") {
                return Err(TwigParseError::BadPredicate(self.pos));
            }
            q.add_pred(
                at,
                ValuePred {
                    target,
                    op: PredOp::Contains(v),
                },
            );
            return Ok(());
        }
        // value predicate: target ('=' quoted | cmp number)
        if let Some(target) = self.try_read_pred_target()? {
            let op = self.read_pred_op()?;
            q.add_pred(at, ValuePred { target, op });
            return Ok(());
        }
        // relative path: ./step...  or  .//step...  or  //step  or  step
        let start = self.pos;
        let axis = if self.try_consume(".//") || self.try_consume("//") {
            Axis::Descendant
        } else if self.try_consume("./")
            || self.try_consume("/")
            || self.peek().is_some_and(is_label_byte)
            || self.peek() == Some(b'*')
        {
            Axis::Child
        } else {
            return Err(TwigParseError::BadPredicate(self.pos));
        };
        check_caps(q, at, start)?;
        let label = self.read_label()?;
        let child = q.add_child(at, label, axis);
        self.parse_step_suffix(q, child)?;
        self.parse_spine(q, child)?;
        Ok(())
    }

    /// Consumes a value-predicate read target (`@name` always; `.` or
    /// `text()` only when a comparison operator follows, so `./step`
    /// relative paths stay untouched). Returns `Ok(None)` when the input
    /// is not a value target.
    fn try_read_pred_target(&mut self) -> Result<Option<PredTarget>, TwigParseError> {
        if self.peek() == Some(b'@') {
            self.pos += 1;
            let name = self
                .read_label()
                .map_err(|_| TwigParseError::BadPredicate(self.pos))?;
            return Ok(Some(PredTarget::Attr(name)));
        }
        let at = |n: usize| self.input.get(self.pos + n).copied();
        let op_or_comma = |c: Option<u8>| matches!(c, Some(b'=' | b'<' | b'>' | b','));
        if self.input[self.pos..].starts_with(b"text()") && op_or_comma(at(6)) {
            self.pos += 6;
            return Ok(Some(PredTarget::Text));
        }
        if self.peek() == Some(b'.') && op_or_comma(at(1)) {
            self.pos += 1;
            return Ok(Some(PredTarget::Text));
        }
        Ok(None)
    }

    /// Consumes a value-predicate comparison: `=` with a quoted string,
    /// or `<` / `<=` / `>` / `>=` with a number literal.
    fn read_pred_op(&mut self) -> Result<PredOp, TwigParseError> {
        if self.try_consume("=") {
            return Ok(PredOp::Eq(self.read_quoted()?));
        }
        for (token, make) in [
            ("<=", PredOp::Le as fn(f64) -> PredOp),
            ("<", PredOp::Lt),
            (">=", PredOp::Ge),
            (">", PredOp::Gt),
        ] {
            if self.try_consume(token) {
                return Ok(make(self.read_number()?));
            }
        }
        Err(TwigParseError::BadPredicate(self.pos))
    }

    /// Reads a number literal: optional `-`, digits, optional `.` digits.
    fn read_number(&mut self) -> Result<f64, TwigParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .ok_or(TwigParseError::BadPredicate(start))
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn try_consume(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn read_axis(&mut self) -> Option<Axis> {
        if self.try_consume("//") {
            Some(Axis::Descendant)
        } else if self.try_consume("/") {
            Some(Axis::Child)
        } else {
            None
        }
    }

    fn read_label(&mut self) -> Result<String, TwigParseError> {
        if self.peek() == Some(b'*') {
            self.pos += 1;
            return Ok("*".to_string());
        }
        let start = self.pos;
        while self.peek().is_some_and(is_label_byte) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(if self.input.is_empty() {
                TwigParseError::Empty
            } else {
                TwigParseError::ExpectedLabel(start)
            });
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn read_quoted(&mut self) -> Result<String, TwigParseError> {
        let start = self.pos;
        if self.peek() != Some(b'\'') {
            return Err(TwigParseError::BadPredicate(start));
        }
        self.pos += 1;
        let vstart = self.pos;
        while let Some(c) = self.peek() {
            if c == b'\'' {
                let v = String::from_utf8_lossy(&self.input[vstart..self.pos]).into_owned();
                self.pos += 1;
                return Ok(v);
            }
            self.pos += 1;
        }
        Err(TwigParseError::BadPredicate(start))
    }
}

/// Fails at `start` when a new child of `at` would cross a cap: with
/// [`TwigParseError::TooManyNodes`] when `q` already holds [`MAX_NODES`]
/// nodes, with [`TwigParseError::TooDeep`] when the child would lie
/// deeper than [`MAX_DEPTH`]. Walks at most `MAX_DEPTH` parent links,
/// since every node already in `q` passed this check.
fn check_caps(q: &TwigPattern, at: PatternNodeId, start: usize) -> Result<(), TwigParseError> {
    if q.len() >= MAX_NODES {
        return Err(TwigParseError::TooManyNodes(start));
    }
    let mut depth = 1;
    let mut n = at;
    while let Some(p) = q.node(n).parent {
        depth += 1;
        n = p;
    }
    if depth < MAX_DEPTH {
        Ok(())
    } else {
        Err(TwigParseError::TooDeep(start))
    }
}

fn is_label_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') && c != b'.'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_linear_path() {
        let q = TwigPattern::parse("Order/DeliverTo/Contact/EMail").unwrap();
        assert_eq!(q.len(), 4);
        let labels: Vec<_> = q.ids().map(|id| q.node(id).label.clone()).collect();
        assert_eq!(labels, ["Order", "DeliverTo", "Contact", "EMail"]);
        assert!(q.ids().skip(1).all(|id| q.node(id).axis == Axis::Child));
    }

    #[test]
    fn parses_descendant_axis() {
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        assert_eq!(q.node(q.root()).axis, Axis::Descendant);
        let icn = PatternNodeId(1);
        assert_eq!(q.node(icn).axis, Axis::Descendant);
    }

    #[test]
    fn parses_predicates_as_branches() {
        let q = TwigPattern::parse("Order/DeliverTo/Address[./City][./Country]/Street").unwrap();
        assert_eq!(q.len(), 6);
        let address = q.ids().find(|&id| q.node(id).label == "Address").unwrap();
        assert_eq!(q.node(address).children.len(), 3); // City, Country, Street
    }

    #[test]
    fn parses_nested_predicate_paths() {
        let q = TwigPattern::parse("Order[./Buyer/Contact][./DeliverTo//City]//BPID").unwrap();
        assert_eq!(q.len(), 6);
        let buyer = q.ids().find(|&id| q.node(id).label == "Buyer").unwrap();
        assert_eq!(q.node(buyer).children.len(), 1);
        let city = q.ids().find(|&id| q.node(id).label == "City").unwrap();
        assert_eq!(q.node(city).axis, Axis::Descendant);
        let bpid = q.ids().find(|&id| q.node(id).label == "BPID").unwrap();
        assert_eq!(q.node(bpid).axis, Axis::Descendant);
        assert_eq!(q.node(bpid).parent, Some(q.root()));
    }

    #[test]
    fn parses_all_table3_queries() {
        let queries = [
            "Order/DeliverTo/Address[./City][./Country]/Street",
            "Order/DeliverTo/Contact/EMail",
            "Order/DeliverTo[./Address/City]/Contact/EMail",
            "Order/POLine[./LineNo]//UP",
            "Order/POLine[./LineNo][.//UP]/Quantity",
            "Order/POLine[./BPID][./LineNO][//UP]/Quantity",
            "Order[./DeliverTo//Street]/POLine[.//BPID][.//UP]/Quantity",
            "Order[./DeliverTo[.//EMail]//Street]/POLine[.//UP]/Quantity",
            "Order[./Buyer/Contact]/POLine[.//BPID]/Quantity",
            "Order[./Buyer/Contact][./DeliverTo//City]//BPID",
        ];
        for s in queries {
            let q = TwigPattern::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(q.len() >= 3, "{s}");
        }
    }

    #[test]
    fn parses_text_predicate() {
        let q = TwigPattern::parse("Order//City[.='Berlin']").unwrap();
        let city = q.ids().find(|&id| q.node(id).label == "City").unwrap();
        assert_eq!(q.node(city).text_eq(), Some("Berlin"));
        let q2 = TwigPattern::parse("Order//City[text()='Berlin']").unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn parses_value_predicates() {
        let q = TwigPattern::parse("Order//UP[.>=10.5]").unwrap();
        let up = q.ids().find(|&id| q.node(id).label == "UP").unwrap();
        assert_eq!(
            q.node(up).preds,
            vec![ValuePred {
                target: PredTarget::Text,
                op: PredOp::Ge(10.5),
            }]
        );
        let q = TwigPattern::parse("A[@id='b7']").unwrap();
        assert_eq!(
            q.node(q.root()).preds,
            vec![ValuePred {
                target: PredTarget::Attr("id".into()),
                op: PredOp::Eq("b7".into()),
            }]
        );
        let q = TwigPattern::parse("A[contains(.,'Ber')][@n<-2]").unwrap();
        assert_eq!(
            q.node(q.root()).preds,
            vec![
                ValuePred {
                    target: PredTarget::Text,
                    op: PredOp::Contains("Ber".into()),
                },
                ValuePred {
                    target: PredTarget::Attr("n".into()),
                    op: PredOp::Lt(-2.0),
                },
            ]
        );
        // text() is a synonym for `.` in every value-predicate form.
        assert_eq!(
            TwigPattern::parse("A[text()<3]").unwrap(),
            TwigPattern::parse("A[.<3]").unwrap()
        );
        assert_eq!(
            TwigPattern::parse("A[contains(text(),'x')]").unwrap(),
            TwigPattern::parse("A[contains(.,'x')]").unwrap()
        );
    }

    #[test]
    fn parses_wildcard_steps() {
        let q = TwigPattern::parse("Order/*/UP").unwrap();
        assert_eq!(q.len(), 3);
        assert!(q.node(PatternNodeId(1)).is_wildcard());
        let q = TwigPattern::parse("//*[@id='x']").unwrap();
        assert!(q.node(q.root()).is_wildcard());
        let q = TwigPattern::parse("A[./*]/B").unwrap();
        assert_eq!(q.len(), 3);
        assert!(q.node(PatternNodeId(1)).is_wildcard());
    }

    #[test]
    fn numeric_literals_canonicalize_to_a_fixpoint() {
        for (s, want) in [
            ("A[.<3.50]", "A[.<3.5]"),
            ("A[.>=010]", "A[.>=10]"),
            ("A[@n<=-0.25]", "A[@n<=-0.25]"),
            ("A[.>2.0]", "A[.>2]"),
        ] {
            let rendered = TwigPattern::parse(s).unwrap().to_string();
            assert_eq!(rendered, want, "{s}");
            assert_eq!(
                TwigPattern::parse(&rendered).unwrap().to_string(),
                rendered,
                "fixpoint for {s}"
            );
        }
    }

    #[test]
    fn display_reparses_to_same_pattern() {
        for s in [
            "Order/POLine[./LineNo][.//UP]/Quantity",
            "//IP//ICN",
            "Order//City[.='Berlin']",
            "A[./B/C]//D",
            "Order//UP[.>=10.5]",
            "A[@id='b7']/B[contains(.,'x')]",
            "//*[@n<3]/B",
            "A[contains(@k,'v')][.<=2.5]//*",
        ] {
            let q = TwigPattern::parse(s).unwrap();
            let rendered = q.to_string();
            let q2 = TwigPattern::parse(&rendered)
                .unwrap_or_else(|e| panic!("rendered {rendered:?}: {e}"));
            assert_eq!(q, q2, "{s} -> {rendered}");
        }
    }

    #[test]
    fn subpattern_extraction() {
        let q = TwigPattern::parse("Order/POLine[./LineNo]//UP").unwrap();
        let poline = q.ids().find(|&id| q.node(id).label == "POLine").unwrap();
        let sub = q.subpattern(poline);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.node(sub.root()).label, "POLine");
    }

    #[test]
    fn node_only_keeps_predicate() {
        let mut q = TwigPattern::parse("A/B").unwrap();
        q.set_text_eq(q.root(), "v");
        let only = q.node_only(q.root());
        assert_eq!(only.len(), 1);
        assert_eq!(only.node(only.root()).text_eq(), Some("v"));
    }

    #[test]
    fn subpattern_keeps_value_predicates() {
        let q = TwigPattern::parse("A/B[@id='7'][.>=2]/C[contains(.,'x')]").unwrap();
        let b = q.ids().find(|&id| q.node(id).label == "B").unwrap();
        let sub = q.subpattern(b);
        assert_eq!(sub.to_string(), "B[@id='7'][.>=2]/C[contains(.,'x')]");
        let only = q.node_only(b);
        assert_eq!(only.to_string(), "B[@id='7'][.>=2]");
    }

    #[test]
    fn spine_leaf_follows_last_children() {
        let q = TwigPattern::parse("Order/POLine[./LineNo]//UP").unwrap();
        assert_eq!(q.node(q.spine_leaf()).label, "UP");
        let q = TwigPattern::parse("A[./B/C]").unwrap();
        assert_eq!(q.node(q.spine_leaf()).label, "C");
        let q = TwigPattern::parse("A").unwrap();
        assert_eq!(q.spine_leaf(), q.root());
    }

    #[test]
    fn depth_cap_counts_spine_steps() {
        let at_cap = "a".to_string() + &"/a".repeat(MAX_DEPTH - 1);
        let q = TwigPattern::parse(&at_cap).unwrap();
        assert_eq!(q.len(), MAX_DEPTH);
        assert_eq!(TwigPattern::parse(&q.to_string()).unwrap(), q);
        // The step that crosses the cap starts at its '/'.
        let past = at_cap.clone() + "/a";
        assert_eq!(
            TwigPattern::parse(&past),
            Err(TwigParseError::TooDeep(at_cap.len()))
        );
    }

    #[test]
    fn depth_cap_counts_branch_levels() {
        let nested = |levels: usize| "a".to_string() + &"[./a".repeat(levels) + &"]".repeat(levels);
        let q = TwigPattern::parse(&nested(MAX_DEPTH - 1)).unwrap();
        assert_eq!(q.len(), MAX_DEPTH);
        assert_eq!(TwigPattern::parse(&q.to_string()).unwrap(), q);
        // The branch that crosses the cap starts right after its '['.
        let err = TwigPattern::parse(&nested(MAX_DEPTH)).unwrap_err();
        assert_eq!(err, TwigParseError::TooDeep(4 * MAX_DEPTH - 2));
        assert!(err.to_string().contains("deeper than 128 levels"), "{err}");
        // Spine steps and branch levels add up on one path.
        let half = MAX_DEPTH / 2;
        let mixed = |spine: usize| {
            "a".to_string() + &"[./a".repeat(half) + &"/a".repeat(spine) + &"]".repeat(half)
        };
        assert!(TwigPattern::parse(&mixed(half - 1)).is_ok());
        assert!(matches!(
            TwigPattern::parse(&mixed(half)),
            Err(TwigParseError::TooDeep(_))
        ));
        // Wide is fine: many shallow branches stay under the cap.
        let wide = "a".to_string() + &"[./b]".repeat(4 * MAX_DEPTH);
        assert_eq!(TwigPattern::parse(&wide).unwrap().len(), 4 * MAX_DEPTH + 1);
    }

    #[test]
    fn node_cap_counts_every_node() {
        // `a[./b]…`: the root plus one node per 5-byte branch.
        let wide = |branches: usize| "a".to_string() + &"[./b]".repeat(branches);
        let q = TwigPattern::parse(&wide(MAX_NODES - 1)).unwrap();
        assert_eq!(q.len(), MAX_NODES);
        assert_eq!(TwigPattern::parse(&q.to_string()).unwrap(), q);
        // The branch that crosses the cap starts right after its '['.
        let err = TwigPattern::parse(&wide(MAX_NODES)).unwrap_err();
        assert_eq!(err, TwigParseError::TooManyNodes(5 * MAX_NODES - 3));
        assert!(
            err.to_string()
                .contains("more than 1024 nodes at byte 5117"),
            "{err}"
        );
        // Spine steps count too: a chain of short branches, each under
        // the depth cap, crosses at the step's '/'.
        let branch = "[./b/c/d/e]";
        let steps = "a".to_string() + &branch.repeat((MAX_NODES - 1) / 4);
        let q = TwigPattern::parse(&(steps.clone() + "/f/g/h")).unwrap();
        assert_eq!(q.len(), MAX_NODES);
        assert_eq!(
            TwigPattern::parse(&(steps.clone() + "/f/g/h/i")),
            Err(TwigParseError::TooManyNodes(steps.len() + 6))
        );
        // A huge body fails without building all of it.
        assert!(matches!(
            TwigPattern::parse(&wide(200_000)),
            Err(TwigParseError::TooManyNodes(_))
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(TwigPattern::parse(""), Err(TwigParseError::Empty)));
        assert!(matches!(
            TwigPattern::parse("A/"),
            Err(TwigParseError::ExpectedLabel(_))
        ));
        assert!(matches!(
            TwigPattern::parse("A[./B"),
            Err(TwigParseError::ExpectedClose(_))
        ));
        assert!(matches!(
            TwigPattern::parse("A[]"),
            Err(TwigParseError::BadPredicate(_))
        ));
        assert!(matches!(
            TwigPattern::parse("A]B"),
            Err(TwigParseError::Trailing(_))
        ));
        assert!(matches!(
            TwigPattern::parse("A[.='x]"),
            Err(TwigParseError::BadPredicate(_))
        ));
        // Malformed value predicates.
        for bad in [
            "A[.<]",             // comparison without a number
            "A[.<'x']",          // quoted value where a number is due
            "A[@]",              // attribute without a name
            "A[@a]",             // attribute without a comparison
            "A[contains(.)]",    // contains without a literal
            "A[contains(.,'x']", // unclosed contains
            "A[.<NaN]",          // only finite literals
            "A[.=x]",            // equality needs quotes
        ] {
            assert!(
                matches!(
                    TwigPattern::parse(bad),
                    Err(TwigParseError::BadPredicate(_) | TwigParseError::ExpectedClose(_))
                ),
                "{bad}"
            );
        }
        // `**` is not a label.
        assert!(TwigPattern::parse("A/**").is_err());
    }

    #[test]
    fn labels_are_deduped_and_sorted() {
        let q = TwigPattern::parse("A[./B]/B").unwrap();
        assert_eq!(q.labels(), vec!["A", "B"]);
        assert_eq!(q.edge_count(), 2);
    }
}
