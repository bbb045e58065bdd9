//! The block tree and its construction (paper §III, Algorithms 1–2).
//!
//! The block tree mirrors the target schema; every node carries a list of
//! c-blocks anchored there. Construction is a post-order traversal:
//!
//! * **Leaf** (`init_block`): group mappings by the source element they
//!   assign to this target element; each group with support ≥ `τ·|M|`
//!   becomes a c-block.
//! * **Non-leaf** (`gen_non_leaf`): by Lemma 1, every c-block here is the
//!   composition of one "own-correspondence" group with one c-block per
//!   child; the mapping set is the intersection. By Lemma 2, if any child
//!   produced no c-blocks, neither can this node — the whole ancestor chain
//!   is skipped. Enumeration is bounded by `max_blocks` (`MAX_B`, global)
//!   and `max_failures` (`MAX_F`, failed combinations per node).
//!
//! A hash index (the paper's `H`) maps target-schema paths of nodes owning
//! c-blocks to those nodes, so the query evaluator can test "does the
//! query root sit on a block-bearing node" in O(1). Paths are interned
//! into a [`SymbolTable`] rather than used as owned `String` keys.
//!
//! Per-node block lists are stored as one CSR (offsets + flat array)
//! pair. Construction is post-order, so the c-blocks of each node occupy
//! a contiguous [`BlockId`] range in creation order — the builder records
//! only `(start, len)` ranges and never clones child block lists.

use crate::block::{Block, BlockId};
use crate::mapping::{MappingId, PossibleMappings};
use std::collections::HashMap;
use uxm_xml::{Schema, SchemaNodeId, SymbolTable};

/// Construction parameters (paper defaults: `τ=0.2`, `MAX_B=500`,
/// `MAX_F=500`).
#[derive(Clone, Debug)]
pub struct BlockTreeConfig {
    /// Confidence threshold `τ`: a c-block must be shared by at least
    /// `τ·|M|` mappings.
    pub tau: f64,
    /// Global cap on the number of c-blocks (`MAX_B`).
    pub max_blocks: usize,
    /// Per-node cap on failed block-combination attempts (`MAX_F`).
    pub max_failures: usize,
}

impl Default for BlockTreeConfig {
    fn default() -> Self {
        BlockTreeConfig {
            tau: 0.2,
            max_blocks: 500,
            max_failures: 500,
        }
    }
}

/// Counters exposed for the evaluation section's figures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// c-blocks created (Fig 9(b)).
    pub blocks_created: usize,
    /// Failed combination attempts across all nodes.
    pub failed_attempts: usize,
    /// Nodes skipped thanks to Lemma 2.
    pub lemma2_skips: usize,
}

/// The block tree `X` plus the hash table `H`.
#[derive(Clone, Debug)]
pub struct BlockTree {
    /// All c-blocks, in creation order.
    blocks: Vec<Block>,
    /// CSR block lists: the c-blocks anchored at target node `t` are
    /// `node_block_list[node_block_offsets[t]..node_block_offsets[t+1]]`.
    node_block_offsets: Vec<u32>,
    node_block_list: Vec<BlockId>,
    /// Interned target paths (e.g. `ORDER.IP.ICN`) of block-bearing nodes.
    path_syms: SymbolTable,
    /// `H`: per path symbol, the node it denotes.
    hash: Vec<SchemaNodeId>,
    /// Construction counters.
    pub stats: BuildStats,
    /// The minimum support used (`ceil(τ·|M|)`, at least 1).
    pub min_support: usize,
}

impl BlockTree {
    /// Builds the block tree for mapping set `mappings` over its target
    /// schema (Algorithm 1).
    pub fn build(
        target: &Schema,
        mappings: &PossibleMappings,
        config: &BlockTreeConfig,
    ) -> BlockTree {
        let min_support = min_support(config.tau, mappings.len());
        let mut b = Builder {
            target,
            mappings,
            config,
            min_support,
            blocks: Vec::new(),
            node_ranges: vec![(0, 0); target.len()],
            path_syms: SymbolTable::new(),
            hash: Vec::new(),
            stats: BuildStats::default(),
        };
        b.construct_c_block(target.root());
        // Post-order construction anchors each node's blocks in one
        // contiguous creation-order run, so the CSR assembles from the
        // recorded ranges without touching the blocks again.
        let mut node_block_offsets = Vec::with_capacity(target.len() + 1);
        let mut node_block_list = Vec::with_capacity(b.blocks.len());
        node_block_offsets.push(0);
        for &(start, len) in &b.node_ranges {
            for k in 0..len {
                node_block_list.push(BlockId(start + k));
            }
            node_block_offsets.push(node_block_list.len() as u32);
        }
        BlockTree {
            blocks: b.blocks,
            node_block_offsets,
            node_block_list,
            path_syms: b.path_syms,
            hash: b.hash,
            stats: b.stats,
            min_support,
        }
    }

    /// Reassembles a block tree from stored blocks (the storage codec's
    /// decode path). Per-node lists and the hash index are rebuilt; the
    /// construction counters are zeroed.
    pub fn from_blocks(target: &Schema, blocks: Vec<Block>, min_support: usize) -> BlockTree {
        // CSR by counting sort over anchors; iterating blocks in creation
        // order keeps each per-node run in creation order, matching the
        // incremental builder.
        let mut node_block_offsets = vec![0u32; target.len() + 1];
        for b in &blocks {
            node_block_offsets[b.anchor.idx() + 1] += 1;
        }
        for i in 0..target.len() {
            node_block_offsets[i + 1] += node_block_offsets[i];
        }
        let mut cursor = node_block_offsets.clone();
        let mut node_block_list = vec![BlockId(0); blocks.len()];
        let mut path_syms = SymbolTable::new();
        let mut hash = Vec::new();
        for (i, b) in blocks.iter().enumerate() {
            node_block_list[cursor[b.anchor.idx()] as usize] = BlockId(i as u32);
            cursor[b.anchor.idx()] += 1;
            let sym = path_syms.intern(&target.path(b.anchor));
            if sym.idx() == hash.len() {
                hash.push(b.anchor); // first block on this path wins
            }
        }
        BlockTree {
            blocks,
            node_block_offsets,
            node_block_list,
            path_syms,
            hash,
            stats: BuildStats::default(),
            min_support,
        }
    }

    /// All blocks in creation order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Borrow one block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.idx()]
    }

    /// Total number of c-blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The c-blocks anchored at target node `t`.
    pub fn blocks_at(&self, t: SchemaNodeId) -> &[BlockId] {
        let (a, b) = (
            self.node_block_offsets[t.idx()] as usize,
            self.node_block_offsets[t.idx() + 1] as usize,
        );
        &self.node_block_list[a..b]
    }

    /// Hash-table lookup by target path (the paper's `find_node`),
    /// resolved through the interned path symbols.
    pub fn find_node(&self, path: &str) -> Option<SchemaNodeId> {
        self.path_syms.resolve(path).map(|s| self.hash[s.idx()])
    }

    /// True iff node `t` carries at least one c-block.
    pub fn has_blocks(&self, t: SchemaNodeId) -> bool {
        self.node_block_offsets[t.idx()] != self.node_block_offsets[t.idx() + 1]
    }

    /// Number of hash entries (nodes owning blocks).
    pub fn hash_len(&self) -> usize {
        self.hash.len()
    }

    /// Resident heap bytes of the tree: every block's correspondence and
    /// mapping arrays, the CSR block lists, and the path hash.
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        let blocks: usize = self
            .blocks
            .iter()
            .map(|b| {
                size_of::<Block>()
                    + b.corrs.len() * size_of::<(SchemaNodeId, SchemaNodeId)>()
                    + b.mappings.len() * size_of::<MappingId>()
            })
            .sum();
        blocks
            + self.node_block_offsets.len() * size_of::<u32>()
            + self.node_block_list.len() * size_of::<BlockId>()
            + self.hash.len() * size_of::<SchemaNodeId>()
            + self
                .path_syms
                .iter()
                .map(|(_, n)| n.len() + 16)
                .sum::<usize>()
    }
}

/// `ceil(τ·|M|)` with float-noise guard, at least 1.
pub fn min_support(tau: f64, m: usize) -> usize {
    ((tau * m as f64) - 1e-9).ceil().max(1.0) as usize
}

struct Builder<'a> {
    target: &'a Schema,
    mappings: &'a PossibleMappings,
    config: &'a BlockTreeConfig,
    min_support: usize,
    blocks: Vec<Block>,
    /// Per target node: `(start, len)` of its contiguous block range.
    node_ranges: Vec<(u32, u32)>,
    path_syms: SymbolTable,
    hash: Vec<SchemaNodeId>,
    stats: BuildStats,
}

impl<'a> Builder<'a> {
    /// Post-order construction (Algorithm 1's `construct_c_block`).
    /// Returns the number of c-blocks created at `t`.
    fn construct_c_block(&mut self, t: SchemaNodeId) -> usize {
        if self.target.is_leaf(t) {
            let start = self.blocks.len() as u32;
            let n = self.init_leaf(t);
            self.node_ranges[t.idx()] = (start, n as u32);
            if n > 0 {
                self.insert_hash(t);
            }
            return n;
        }
        let mut all_children_have_blocks = true;
        for &child in self.target.children(t) {
            if self.construct_c_block(child) == 0 {
                all_children_have_blocks = false;
            }
        }
        if !all_children_have_blocks {
            self.stats.lemma2_skips += 1;
            return 0; // Lemma 2
        }
        let start = self.blocks.len() as u32;
        let n = self.gen_non_leaf(t);
        self.node_ranges[t.idx()] = (start, n as u32);
        if n > 0 {
            self.insert_hash(t);
        }
        n
    }

    /// Groups mappings by their correspondence on `t` (the paper's
    /// `init_block`), returning groups meeting the support threshold as
    /// `(source, mapping ids)`.
    fn own_groups(&self, t: SchemaNodeId) -> Vec<(SchemaNodeId, Vec<MappingId>)> {
        let mut groups: HashMap<SchemaNodeId, Vec<MappingId>> = HashMap::new();
        for (id, m) in self.mappings.iter() {
            if let Some(s) = m.source_for_target(t) {
                groups.entry(s).or_default().push(id);
            }
        }
        let mut out: Vec<(SchemaNodeId, Vec<MappingId>)> = groups
            .into_iter()
            .filter(|(_, ms)| ms.len() >= self.min_support)
            .collect();
        // Deterministic order: strongest support first, then source id.
        out.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        out
    }

    /// CASE 1 of Algorithm 1: c-blocks at a leaf.
    fn init_leaf(&mut self, t: SchemaNodeId) -> usize {
        let mut created = 0;
        for (s, ms) in self.own_groups(t) {
            if self.blocks.len() >= self.config.max_blocks {
                break;
            }
            self.attach(Block {
                anchor: t,
                corrs: vec![(s, t)],
                mappings: ms,
            });
            created += 1;
        }
        created
    }

    /// Algorithm 2: c-blocks at a non-leaf from own groups × child blocks.
    ///
    /// Child block lists are the already-recorded `(start, len)` ranges —
    /// two `u32`s each, never cloned — and the running mapping-set
    /// intersection reuses two scratch buffers, so a failed combination
    /// allocates nothing.
    fn gen_non_leaf(&mut self, t: SchemaNodeId) -> usize {
        let own = self.own_groups(t);
        if own.is_empty() {
            return 0;
        }
        let child_ranges: Vec<(u32, u32)> = self
            .target
            .children(t)
            .iter()
            .map(|&c| self.node_ranges[c.idx()])
            .collect();
        debug_assert!(
            child_ranges.iter().all(|&(_, len)| len > 0),
            "Lemma 2 ensured"
        );

        let mut created = 0;
        let mut failures = 0usize;
        let mut shared: Vec<MappingId> = Vec::new();
        let mut scratch: Vec<MappingId> = Vec::new();
        'outer: for (s, ms) in &own {
            // Odometer over one block choice per child.
            let mut idx = vec![0usize; child_ranges.len()];
            loop {
                // Intersect mapping sets with early bailout.
                shared.clear();
                shared.extend_from_slice(ms);
                for (k, &(start, _)) in child_ranges.iter().enumerate() {
                    let b = &self.blocks[start as usize + idx[k]];
                    scratch.clear();
                    intersect_sorted_into(&shared, &b.mappings, &mut scratch);
                    std::mem::swap(&mut shared, &mut scratch);
                    if shared.len() < self.min_support {
                        break;
                    }
                }
                if shared.len() >= self.min_support && self.blocks.len() < self.config.max_blocks {
                    let mut corrs = vec![(*s, t)];
                    for (k, &(start, _)) in child_ranges.iter().enumerate() {
                        corrs.extend_from_slice(&self.blocks[start as usize + idx[k]].corrs);
                    }
                    corrs.sort_by_key(|&(_, tt)| tt);
                    self.attach(Block {
                        anchor: t,
                        corrs,
                        mappings: std::mem::take(&mut shared),
                    });
                    created += 1;
                } else {
                    failures += 1;
                    self.stats.failed_attempts += 1;
                }
                if self.blocks.len() >= self.config.max_blocks
                    || failures >= self.config.max_failures
                {
                    break 'outer;
                }
                // Advance the odometer.
                let mut k = 0;
                loop {
                    if k == idx.len() {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < child_ranges[k].1 as usize {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == idx.len() {
                    break; // odometer wrapped: all combinations done
                }
            }
        }
        created
    }

    fn attach(&mut self, block: Block) {
        debug_assert!(block.mappings.windows(2).all(|w| w[0] < w[1]));
        self.blocks.push(block);
        self.stats.blocks_created += 1;
    }

    fn insert_hash(&mut self, t: SchemaNodeId) {
        let sym = self.path_syms.intern(&self.target.path(t));
        if sym.idx() == self.hash.len() {
            self.hash.push(t);
        } else {
            self.hash[sym.idx()] = t; // re-insert overwrites
        }
    }
}

/// Intersection of two sorted id lists into a caller-provided buffer.
fn intersect_sorted_into(a: &[MappingId], b: &[MappingId], out: &mut Vec<MappingId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uxm_xml::Schema;

    /// The paper's running example: Fig. 1 schemas, Fig. 3 mappings.
    fn paper_example() -> (Schema, PossibleMappings) {
        let source =
            Schema::parse_outline("Order(BP(BOC(BCN) ROC(RCN) OOC(OCN)) SP(SCN_src))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN) SP2(SCN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        // Fig. 3's five mappings (simplified to the shown correspondences).
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                // m1: Order~ORDER, BP~IP, BCN~ICN, RCN~SCN
                (
                    vec![
                        (s("Order"), t("ORDER")),
                        (s("BP"), t("IP")),
                        (s("BCN"), t("ICN")),
                        (s("RCN"), t("SCN")),
                    ],
                    3.0,
                ),
                // m2: Order~ORDER, BP~IP, BCN~ICN, OCN~SCN
                (
                    vec![
                        (s("Order"), t("ORDER")),
                        (s("BP"), t("IP")),
                        (s("BCN"), t("ICN")),
                        (s("OCN"), t("SCN")),
                    ],
                    2.5,
                ),
                // m3: Order~ORDER, SP~IP, RCN~ICN, OCN~SCN
                (
                    vec![
                        (s("Order"), t("ORDER")),
                        (s("SP"), t("IP")),
                        (s("RCN"), t("ICN")),
                        (s("OCN"), t("SCN")),
                    ],
                    2.0,
                ),
                // m4: Order~ORDER, BP~IP, RCN~ICN, BCN~SCN
                (
                    vec![
                        (s("Order"), t("ORDER")),
                        (s("BP"), t("IP")),
                        (s("RCN"), t("ICN")),
                        (s("BCN"), t("SCN")),
                    ],
                    1.5,
                ),
                // m5: Order~ORDER, BP~IP, OCN~ICN, BCN~SCN
                (
                    vec![
                        (s("Order"), t("ORDER")),
                        (s("BP"), t("IP")),
                        (s("OCN"), t("ICN")),
                        (s("BCN"), t("SCN")),
                    ],
                    1.0,
                ),
            ],
        );
        (target, pm)
    }

    #[test]
    fn min_support_rounding() {
        assert_eq!(min_support(0.4, 5), 2);
        assert_eq!(min_support(0.2, 100), 20);
        assert_eq!(min_support(0.3, 5), 2); // 1.5 -> 2
        assert_eq!(min_support(0.0, 5), 1); // at least one
        assert_eq!(min_support(1.0, 5), 5);
    }

    #[test]
    fn paper_example_blocks_at_icn() {
        // With tau = 0.4 (min support 2), ICN has exactly the two c-blocks
        // of Fig. 4(a): (BCN~ICN){m1,m2} and (RCN~ICN){m3,m4}.
        let (target, pm) = paper_example();
        let cfg = BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        };
        let tree = BlockTree::build(&target, &pm, &cfg);
        let icn = target.nodes_with_label("ICN")[0];
        let at_icn = tree.blocks_at(icn);
        assert_eq!(at_icn.len(), 2, "b1 and b2, not b3 (support 1)");
        for &bid in at_icn {
            let b = tree.block(bid);
            assert_eq!(b.support(), 2);
            assert!(b.validate(&target, &pm, tree.min_support).is_ok());
        }
    }

    #[test]
    fn paper_example_block_at_ip() {
        // Fig. 4(b): (BP~IP, BCN~ICN) shared by m1, m2 is the c-block b5.
        let (target, pm) = paper_example();
        let cfg = BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        };
        let tree = BlockTree::build(&target, &pm, &cfg);
        let ip = target.nodes_with_label("IP")[0];
        let at_ip = tree.blocks_at(ip);
        assert_eq!(at_ip.len(), 1);
        let b = tree.block(at_ip[0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.mappings, vec![MappingId(0), MappingId(1)]);
        assert!(b.validate(&target, &pm, tree.min_support).is_ok());
    }

    #[test]
    fn root_has_no_block_in_paper_example() {
        // Fig. 5: ORDER's own group spans all mappings, but no single
        // (IP-block × SP2-block) combination is shared by >= 2 mappings...
        // actually (BP~IP,BCN~ICN){m1,m2} x SCN blocks: RCN~SCN{m1},
        // OCN~SCN{m2,m3}, BCN~SCN{m4,m5}; intersections have support <= 1.
        let (target, pm) = paper_example();
        let cfg = BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        };
        let tree = BlockTree::build(&target, &pm, &cfg);
        assert!(tree.blocks_at(target.root()).is_empty());
    }

    #[test]
    fn hash_contains_paths_of_block_nodes() {
        let (target, pm) = paper_example();
        let cfg = BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        };
        let tree = BlockTree::build(&target, &pm, &cfg);
        assert_eq!(
            tree.find_node("ORDER.IP.ICN"),
            Some(target.nodes_with_label("ICN")[0])
        );
        assert_eq!(
            tree.find_node("ORDER.IP"),
            Some(target.nodes_with_label("IP")[0])
        );
        assert_eq!(tree.find_node("ORDER"), None, "no block at root");
        assert_eq!(tree.find_node("NOPE"), None);
    }

    #[test]
    fn all_blocks_satisfy_definition() {
        let (target, pm) = paper_example();
        for tau in [0.1, 0.2, 0.4, 0.6, 1.0] {
            let cfg = BlockTreeConfig {
                tau,
                ..BlockTreeConfig::default()
            };
            let tree = BlockTree::build(&target, &pm, &cfg);
            for b in tree.blocks() {
                assert!(
                    b.validate(&target, &pm, tree.min_support).is_ok(),
                    "tau={tau}: {:?}",
                    b.validate(&target, &pm, tree.min_support)
                );
            }
        }
    }

    #[test]
    fn higher_tau_never_more_blocks() {
        let (target, pm) = paper_example();
        let mut last = usize::MAX;
        for tau in [0.1, 0.2, 0.4, 0.6, 0.9] {
            let cfg = BlockTreeConfig {
                tau,
                ..BlockTreeConfig::default()
            };
            let tree = BlockTree::build(&target, &pm, &cfg);
            assert!(tree.block_count() <= last, "tau={tau}");
            last = tree.block_count();
        }
    }

    #[test]
    fn max_blocks_cap_respected() {
        let (target, pm) = paper_example();
        let cfg = BlockTreeConfig {
            tau: 0.2,
            max_blocks: 2,
            max_failures: 500,
        };
        let tree = BlockTree::build(&target, &pm, &cfg);
        assert!(tree.block_count() <= 2);
    }

    #[test]
    fn lemma2_skips_counted() {
        // A target schema where a child (XX) never gets blocks: parent and
        // root must be skipped.
        let source = Schema::parse_outline("A(B)").unwrap();
        let target = Schema::parse_outline("R(P(Q XX))").unwrap();
        let sa = source.nodes_with_label("B")[0];
        let tq = target.nodes_with_label("Q")[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![(vec![(sa, tq)], 1.0), (vec![(sa, tq)], 1.0)],
        );
        let tree = BlockTree::build(&target, &pm, &BlockTreeConfig::default());
        assert!(tree.stats.lemma2_skips >= 1);
        assert_eq!(tree.block_count(), 1); // only at Q
    }
}
