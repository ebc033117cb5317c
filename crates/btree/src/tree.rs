//! The oblivious B+ tree.
//!
//! # Obliviousness strategy (paper §3.2)
//!
//! For a tree of (public) height `h`, every operation performs a number of
//! ORAM accesses that depends only on `h` and the operation *type* — never
//! on the key, the payload, or the tree's private contents:
//!
//! | op      | budget (ORAM accesses)                    |
//! |---------|-------------------------------------------|
//! | get     | `h + 2`                                   |
//! | update  | `h + 3`                                   |
//! | insert  | `3h + 8`                                  |
//! | delete  | `5h + 10`                                 |
//! | range   | `h + 4 + matches` (the match count leaks) |
//! | aborted | `h + 3 + cap` (a capped range walk)       |
//!
//! Operations that finish early (a lookup miss, an insert without splits)
//! issue dummy ORAM accesses until they hit the budget. Since each ORAM
//! access is itself oblivious, the composed operation is too. Height `h`
//! (the number of internal levels) is a function of the public record
//! count, so leaking it adds nothing.
//!
//! # Structure
//!
//! One record per leaf block (paper footnote 2); internal nodes hold up to
//! `fanout` fence entries `(subtree min key, child)`; leaves form a doubly
//! linked chain headed by a permanent sentinel (logical key −∞) so every
//! real leaf has a predecessor. Deletion rebalances with borrow/merge so
//! non-root internal nodes keep ≥ `fanout/2` entries, which bounds the node
//! count used to size the ORAM.

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, EnclaveRng, OmBudget};
use oblidb_oram::{OramError, PathOram, PosMapKind};

use crate::node::{InternalNode, LeafNode, Node, NIL};

/// Errors from tree operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObTreeError {
    /// Underlying ORAM failure (includes tamper detection).
    Oram(OramError),
    /// The tree reached its fixed record capacity.
    CapacityExceeded,
}

impl std::fmt::Display for ObTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObTreeError::Oram(e) => write!(f, "oram: {e}"),
            ObTreeError::CapacityExceeded => write!(f, "tree capacity exceeded"),
        }
    }
}

impl std::error::Error for ObTreeError {}

impl From<OramError> for ObTreeError {
    fn from(e: OramError) -> Self {
        ObTreeError::Oram(e)
    }
}

/// Operation types, used to query public access budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point lookup.
    Get,
    /// Payload overwrite of an existing key.
    Update,
    /// Insert of a new key.
    Insert,
    /// Delete of a key.
    Delete,
}

/// In-enclave node cache for one operation ("lazy write-back", paper §3.2).
///
/// Nodes fetched during the operation stay in the enclave and are written
/// back once at the end, in deterministic order.
struct OpCtx {
    entries: Vec<(u64, Node, bool)>,
    oram_reads: u64,
}

impl OpCtx {
    fn new() -> Self {
        OpCtx { entries: Vec::with_capacity(16), oram_reads: 0 }
    }

    fn find(&self, addr: u64) -> Option<usize> {
        self.entries.iter().position(|&(a, _, _)| a == addr)
    }

    fn node(&self, idx: usize) -> &Node {
        &self.entries[idx].1
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node {
        self.entries[idx].2 = true;
        &mut self.entries[idx].1
    }

    fn addr(&self, idx: usize) -> u64 {
        self.entries[idx].0
    }

    fn internal(&self, idx: usize) -> &InternalNode {
        match self.node(idx) {
            Node::Internal(n) => n,
            other => panic!("expected internal node, found {other:?}"),
        }
    }

    fn internal_mut(&mut self, idx: usize) -> &mut InternalNode {
        match self.node_mut(idx) {
            Node::Internal(n) => n,
            other => panic!("expected internal node, found {other:?}"),
        }
    }

    fn leaf(&self, idx: usize) -> &LeafNode {
        match self.node(idx) {
            Node::Leaf(n) => n,
            other => panic!("expected leaf node, found {other:?}"),
        }
    }

    fn leaf_mut(&mut self, idx: usize) -> &mut LeafNode {
        match self.node_mut(idx) {
            Node::Leaf(n) => n,
            other => panic!("expected leaf node, found {other:?}"),
        }
    }

    /// Registers a freshly created node (no ORAM read needed).
    fn create(&mut self, addr: u64, node: Node) -> usize {
        self.entries.push((addr, node, true));
        self.entries.len() - 1
    }
}

/// The oblivious B+ tree. See the module docs for the design.
pub struct ObTree {
    oram: PathOram,
    fanout: usize,
    payload_len: usize,
    root: u64,
    /// Number of internal levels (≥ 1). A leaf lookup reads `height`
    /// internal nodes plus one leaf.
    height: u32,
    sentinel: u64,
    len: u64,
    max_records: u64,
    free_list: Vec<u64>,
    next_fresh: u64,
    capacity_nodes: u64,
}

/// Node capacity needed for `max_records` records with the given fanout:
/// sentinel + leaves + worst-case internal nodes (min occupancy fanout/2,
/// maintained by rebalancing deletes) + slack for transient splits.
fn node_capacity(max_records: u64, fanout: usize) -> u64 {
    let min_fill = (fanout / 2).max(2) as u64;
    let mut cap = 1 + max_records; // sentinel + leaves
    let mut level = max_records + 1;
    loop {
        level = level.div_ceil(min_fill);
        cap += level;
        if level == 1 {
            break;
        }
    }
    cap + 16
}

impl ObTree {
    /// Creates an empty tree with a fixed record capacity.
    ///
    /// The ORAM position map (8 bytes per node) is charged against `om`.
    pub fn new<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        max_records: u64,
        payload_len: usize,
        fanout: usize,
        pos_kind: PosMapKind,
        om: &OmBudget,
        rng: EnclaveRng,
    ) -> Result<Self, ObTreeError> {
        assert!(fanout >= 4, "fanout must be at least 4");
        let capacity_nodes = node_capacity(max_records, fanout);
        let block_len = Node::serialized_len(fanout, payload_len);
        let mut oram = PathOram::new(host, key, capacity_nodes, block_len, pos_kind, om, rng)?;

        // addr 0 = sentinel leaf, addr 1 = root (bottom internal).
        let sentinel = LeafNode { key: 0, prev: NIL, next: NIL, payload: vec![0u8; payload_len] };
        let sentinel = Node::Leaf(sentinel).serialize(fanout, payload_len);
        let root =
            Node::Internal(InternalNode { entries: vec![(0, 0)] }).serialize(fanout, payload_len);
        if let Err(e) = oram.write(host, 0, &sentinel).and_then(|()| oram.write(host, 1, &root)) {
            // Best-effort cleanup; the write's failure is the error worth
            // surfacing.
            let _ = oram.free(host);
            return Err(e.into());
        }

        Ok(Self {
            oram,
            fanout,
            payload_len,
            root: 1,
            height: 1,
            sentinel: 0,
            len: 0,
            max_records,
            free_list: Vec::new(),
            next_fresh: 2,
            capacity_nodes,
        })
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current number of internal levels (public).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Fixed record capacity.
    pub fn max_records(&self) -> u64 {
        self.max_records
    }

    /// Record payload size.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// The public ORAM-access budget for an operation at the current
    /// height. Every executed operation performs exactly this many
    /// accesses.
    pub fn op_budget(&self, op: OpKind) -> u64 {
        let h = self.height as u64;
        match op {
            OpKind::Get => h + 2,
            OpKind::Update => h + 3,
            OpKind::Insert => 3 * h + 8,
            OpKind::Delete => 5 * h + 10,
        }
    }

    /// ORAM statistics (accesses, stash peak).
    pub fn oram_stats(&self) -> oblidb_oram::OramStats {
        self.oram.stats()
    }

    /// The untrusted regions of the backing ORAM (see
    /// [`PathOram::region_ids`]).
    pub fn oram_region_ids(&self) -> Vec<oblidb_enclave::RegionId> {
        self.oram.region_ids()
    }

    fn alloc_addr(&mut self) -> Result<u64, ObTreeError> {
        if let Some(a) = self.free_list.pop() {
            return Ok(a);
        }
        if self.next_fresh >= self.capacity_nodes {
            return Err(ObTreeError::CapacityExceeded);
        }
        let a = self.next_fresh;
        self.next_fresh += 1;
        Ok(a)
    }

    fn ctx_read<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        ctx: &mut OpCtx,
        addr: u64,
    ) -> Result<usize, ObTreeError> {
        if let Some(idx) = ctx.find(addr) {
            return Ok(idx);
        }
        let bytes = self.oram.read(host, addr)?;
        ctx.oram_reads += 1;
        let node = Node::deserialize(&bytes, self.payload_len);
        ctx.entries.push((addr, node, false));
        Ok(ctx.entries.len() - 1)
    }

    /// Writes back dirty nodes and pads with dummy accesses to `budget`.
    fn finish<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        ctx: OpCtx,
        budget: u64,
    ) -> Result<(), ObTreeError> {
        let mut writes = 0u64;
        for (addr, node, dirty) in &ctx.entries {
            if *dirty {
                self.oram.write(host, *addr, &node.serialize(self.fanout, self.payload_len))?;
                writes += 1;
            }
        }
        let used = ctx.oram_reads + writes;
        assert!(
            used <= budget,
            "operation exceeded its oblivious budget: used {used}, budget {budget}"
        );
        for _ in used..budget {
            self.oram.dummy_access(host)?;
        }
        Ok(())
    }

    /// Descends from the root to the leaf that is the predecessor-or-equal
    /// of `key` (or the catch-all minimum leaf when `key` sorts below a
    /// stale fence). Returns (path of internal ctx indices, leaf ctx index).
    fn descend<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        ctx: &mut OpCtx,
        key: u128,
    ) -> Result<(Vec<usize>, usize), ObTreeError> {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut addr = self.root;
        for _ in 0..self.height {
            let idx = self.ctx_read(host, ctx, addr)?;
            path.push(idx);
            let node = ctx.internal(idx);
            let child_idx = node.route(key);
            addr = node.entries[child_idx].1;
        }
        let leaf_idx = self.ctx_read(host, ctx, addr)?;
        Ok((path, leaf_idx))
    }

    /// Point lookup. The miss case performs the same accesses as a hit.
    pub fn get<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        key: u128,
    ) -> Result<Option<Vec<u8>>, ObTreeError> {
        let budget = self.op_budget(OpKind::Get);
        let mut ctx = OpCtx::new();
        let (_, leaf_idx) = self.descend(host, &mut ctx, key)?;
        let leaf = ctx.leaf(leaf_idx);
        let result = if ctx.addr(leaf_idx) != self.sentinel && leaf.key == key {
            Some(leaf.payload.clone())
        } else {
            None
        };
        self.finish(host, ctx, budget)?;
        Ok(result)
    }

    /// Overwrites the payload of `key` if present; returns whether it was.
    pub fn update<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        key: u128,
        payload: &[u8],
    ) -> Result<bool, ObTreeError> {
        assert_eq!(payload.len(), self.payload_len, "payload length");
        let budget = self.op_budget(OpKind::Update);
        let mut ctx = OpCtx::new();
        let (_, leaf_idx) = self.descend(host, &mut ctx, key)?;
        let is_match = ctx.addr(leaf_idx) != self.sentinel && ctx.leaf(leaf_idx).key == key;
        if is_match {
            ctx.leaf_mut(leaf_idx).payload.copy_from_slice(payload);
        }
        self.finish(host, ctx, budget)?;
        Ok(is_match)
    }

    /// Inserts `key`. If the key already exists its payload is overwritten
    /// (composite keys make this case rare in ObliDB). Returns `true` when
    /// a new record was created.
    pub fn insert<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        key: u128,
        payload: &[u8],
    ) -> Result<bool, ObTreeError> {
        assert_eq!(payload.len(), self.payload_len, "payload length");
        if self.len >= self.max_records {
            return Err(ObTreeError::CapacityExceeded);
        }
        let budget = self.op_budget(OpKind::Insert);
        let mut ctx = OpCtx::new();
        let (path, leaf_idx) = self.descend(host, &mut ctx, key)?;
        let landed_addr = ctx.addr(leaf_idx);
        let landed_key = ctx.leaf(leaf_idx).key;

        if landed_addr != self.sentinel && landed_key == key {
            ctx.leaf_mut(leaf_idx).payload.copy_from_slice(payload);
            self.finish(host, ctx, budget)?;
            return Ok(false);
        }

        let new_addr = self.alloc_addr()?;
        let insert_before = landed_addr != self.sentinel && landed_key > key;
        if insert_before {
            // `key` sorts before the landed leaf (stale-fence catch-all
            // case): splice it in front.
            let prev_addr = ctx.leaf(leaf_idx).prev;
            let new_leaf =
                LeafNode { key, prev: prev_addr, next: landed_addr, payload: payload.to_vec() };
            ctx.create(new_addr, Node::Leaf(new_leaf));
            let prev_idx = self.ctx_read(host, &mut ctx, prev_addr)?;
            ctx.leaf_mut(prev_idx).next = new_addr;
            let leaf_idx = ctx.find(landed_addr).expect("landed leaf cached");
            ctx.leaf_mut(leaf_idx).prev = new_addr;
        } else {
            // Normal case: splice after the predecessor-or-equal leaf.
            let next_addr = ctx.leaf(leaf_idx).next;
            let new_leaf =
                LeafNode { key, prev: landed_addr, next: next_addr, payload: payload.to_vec() };
            ctx.create(new_addr, Node::Leaf(new_leaf));
            ctx.leaf_mut(leaf_idx).next = new_addr;
            if next_addr != NIL {
                let next_idx = self.ctx_read(host, &mut ctx, next_addr)?;
                ctx.leaf_mut(next_idx).prev = new_addr;
            }
        }

        // Register the new leaf in the bottom internal node and split up
        // the path as needed.
        let bottom = *path.last().expect("height >= 1");
        ctx.internal_mut(bottom).insert_entry(key, new_addr);
        self.split_up(&mut ctx, &path)?;

        self.len += 1;
        self.finish(host, ctx, budget)?;
        Ok(true)
    }

    /// Splits overflowing internal nodes along the descent path, bottom-up.
    fn split_up(&mut self, ctx: &mut OpCtx, path: &[usize]) -> Result<(), ObTreeError> {
        for level in (0..path.len()).rev() {
            let idx = path[level];
            if ctx.internal(idx).entries.len() <= self.fanout {
                break;
            }
            let right_entries = {
                let node = ctx.internal_mut(idx);
                let mid = node.entries.len() / 2;
                node.entries.split_off(mid)
            };
            let right_min = right_entries[0].0;
            let right_addr = self.alloc_addr()?;
            ctx.create(right_addr, Node::Internal(InternalNode { entries: right_entries }));

            if level == 0 {
                // Root split: grow the tree by one level.
                let old_root = self.root;
                let left_min = ctx.internal(idx).entries[0].0;
                let new_root_addr = self.alloc_addr()?;
                ctx.create(
                    new_root_addr,
                    Node::Internal(InternalNode {
                        entries: vec![(left_min, old_root), (right_min, right_addr)],
                    }),
                );
                self.root = new_root_addr;
                self.height += 1;
            } else {
                let parent = path[level - 1];
                ctx.internal_mut(parent).insert_entry(right_min, right_addr);
            }
        }
        Ok(())
    }

    /// Deletes `key`; returns whether it was present. Misses perform the
    /// same number of ORAM accesses as hits.
    pub fn delete<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        key: u128,
    ) -> Result<bool, ObTreeError> {
        let budget = self.op_budget(OpKind::Delete);
        let mut ctx = OpCtx::new();
        let (path, leaf_idx) = self.descend(host, &mut ctx, key)?;
        let landed_addr = ctx.addr(leaf_idx);
        let is_match = landed_addr != self.sentinel && ctx.leaf(leaf_idx).key == key;
        if !is_match {
            self.finish(host, ctx, budget)?;
            return Ok(false);
        }

        // Unlink from the leaf chain.
        let (prev_addr, next_addr) = {
            let leaf = ctx.leaf(leaf_idx);
            (leaf.prev, leaf.next)
        };
        let prev_idx = self.ctx_read(host, &mut ctx, prev_addr)?;
        ctx.leaf_mut(prev_idx).next = next_addr;
        if next_addr != NIL {
            let next_idx = self.ctx_read(host, &mut ctx, next_addr)?;
            ctx.leaf_mut(next_idx).prev = prev_addr;
        }
        *ctx.node_mut(leaf_idx) = Node::Free;
        self.free_list.push(landed_addr);

        // Remove the leaf's fence entry and rebalance up the path.
        let bottom = *path.last().expect("height >= 1");
        ctx.internal_mut(bottom)
            .remove_child(landed_addr)
            .expect("leaf registered in its bottom internal node");
        self.rebalance_up(host, &mut ctx, &path)?;

        self.len -= 1;
        self.finish(host, ctx, budget)?;
        Ok(true)
    }

    /// Restores the min-occupancy invariant (≥ fanout/2 entries in non-root
    /// internal nodes) by borrowing from or merging with a sibling,
    /// cascading upward; collapses single-child roots.
    fn rebalance_up<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        ctx: &mut OpCtx,
        path: &[usize],
    ) -> Result<(), ObTreeError> {
        let min_fill = (self.fanout / 2).max(2);
        for level in (1..path.len()).rev() {
            let idx = path[level];
            if ctx.internal(idx).entries.len() >= min_fill {
                break;
            }
            let parent = path[level - 1];
            let addr = ctx.addr(idx);
            let pos = ctx
                .internal(parent)
                .entries
                .iter()
                .position(|&(_, c)| c == addr)
                .expect("child registered in parent");

            // Prefer the left sibling; fall back to the right.
            let (sib_pos, sib_is_left) = if pos > 0 { (pos - 1, true) } else { (pos + 1, false) };
            let sib_addr = ctx.internal(parent).entries[sib_pos].1;
            let sib_idx = self.ctx_read(host, ctx, sib_addr)?;

            if ctx.internal(sib_idx).entries.len() > min_fill {
                // Borrow one entry; update the fence of whichever node's
                // minimum changed.
                if sib_is_left {
                    let moved = ctx.internal_mut(sib_idx).entries.pop().expect("nonempty");
                    ctx.internal_mut(idx).entries.insert(0, moved);
                    ctx.internal_mut(parent).entries[pos].0 = moved.0;
                } else {
                    let moved = ctx.internal_mut(sib_idx).entries.remove(0);
                    ctx.internal_mut(idx).entries.push(moved);
                    let new_sib_min = ctx.internal(sib_idx).entries[0].0;
                    ctx.internal_mut(parent).entries[sib_pos].0 = new_sib_min;
                }
                break;
            }

            // Merge the underfull node into its sibling and free it.
            let own_entries = std::mem::take(&mut ctx.internal_mut(idx).entries);
            if sib_is_left {
                ctx.internal_mut(sib_idx).entries.extend(own_entries);
            } else {
                let sib_entries = std::mem::take(&mut ctx.internal_mut(sib_idx).entries);
                let node = ctx.internal_mut(sib_idx);
                node.entries = own_entries;
                node.entries.extend(sib_entries);
                // The sibling's fence must drop to the merged minimum.
                let new_min = ctx.internal(sib_idx).entries[0].0;
                ctx.internal_mut(parent).entries[sib_pos].0 = new_min;
            }
            *ctx.node_mut(idx) = Node::Free;
            self.free_list.push(addr);
            ctx.internal_mut(parent).remove_child(addr);
        }

        // Collapse trivial roots.
        while self.height > 1 {
            let root_idx = ctx.find(self.root).expect("root on path");
            if ctx.internal(root_idx).entries.len() > 1 {
                break;
            }
            let only_child = ctx.internal(root_idx).entries[0].1;
            *ctx.node_mut(root_idx) = Node::Free;
            self.free_list.push(self.root);
            self.root = only_child;
            self.height -= 1;
        }
        Ok(())
    }

    /// Range scan over the leaf chain that stops once the range is
    /// exhausted. The access count therefore reveals the size of
    /// the scanned segment — exactly the leakage the paper accepts for
    /// selection over indexes (§4.1: "the leakage also includes the size
    /// of the segment of the database scanned in the index"), counted as
    /// part of the intermediate-table sizes. Which keys were scanned stays
    /// hidden.
    pub fn range_leaky<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        lo: u128,
        hi: u128,
    ) -> Result<Vec<(u128, Vec<u8>)>, ObTreeError> {
        Ok(self.range_leaky_capped(host, lo, hi, u64::MAX)?.expect("uncapped"))
    }

    /// Like [`ObTree::range_leaky`], but gives up once more than `cap`
    /// records are found, returning `None`. The planner uses this to probe
    /// whether an index range is small enough to beat a flat scan without
    /// paying for a full walk; the abort point is a public function of the
    /// (leaked) table size, and every aborted walk costs exactly `cap + 1`
    /// chain accesses, whether or not `lo` is a stored key.
    pub fn range_leaky_capped<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        lo: u128,
        hi: u128,
        cap: u64,
    ) -> Result<Option<Vec<(u128, Vec<u8>)>>, ObTreeError> {
        let descent_budget = self.op_budget(OpKind::Get);
        let mut ctx = OpCtx::new();
        let (_, leaf_idx) = self.descend(host, &mut ctx, lo)?;
        let leaf = ctx.leaf(leaf_idx);

        let mut out = Vec::new();
        let mut cursor = if ctx.addr(leaf_idx) != self.sentinel && leaf.key >= lo {
            if leaf.key <= hi {
                out.push((leaf.key, leaf.payload.clone()));
            }
            leaf.next
        } else {
            leaf.next
        };
        self.finish(host, ctx, descent_budget)?;

        let mut chain_accesses: u64 = 0;
        while out.len() as u64 <= cap && cursor != NIL {
            let bytes = self.oram.read(host, cursor)?;
            chain_accesses += 1;
            match Node::deserialize(&bytes, self.payload_len) {
                Node::Leaf(leaf) => {
                    if leaf.key > hi {
                        break;
                    }
                    out.push((leaf.key, leaf.payload.clone()));
                    cursor = leaf.next;
                }
                _ => break,
            }
        }
        if out.len() as u64 > cap {
            // A `lo` that is a stored key came with the descent, one chain
            // read earlier than an absent one: pad the abort to `cap + 1`.
            for _ in chain_accesses..=cap {
                self.oram.dummy_access(host)?;
            }
            return Ok(None);
        }
        // Pad the chain walk to exactly `matches + 2` ORAM accesses so the
        // scanned-segment leakage is a function of the (already leaked)
        // result size only — hit/miss at the bounds and range-ends-at-the-
        // last-leaf cases all cost the same.
        let target = out.len() as u64 + 2;
        for _ in chain_accesses..target {
            self.oram.dummy_access(host)?;
        }
        Ok(Some(out))
    }

    /// Scans the *physical structure* linearly, as the flat storage method
    /// would (paper §3.2: internal tree nodes and ORAM dummies are treated
    /// as dummy blocks with no security consequences). The callback sees
    /// `Some((key, payload))` for real records and `None` for every other
    /// slot, in a fixed data-independent order.
    pub fn scan_structure<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        mut f: impl FnMut(Option<(u128, &[u8])>),
    ) -> Result<(), ObTreeError> {
        let payload_len = self.payload_len;
        let sentinel = self.sentinel;
        self.oram.scan_slots(host, |slot| {
            if !slot.is_real() {
                f(None);
                return;
            }
            match Node::deserialize(&slot.data, payload_len) {
                Node::Leaf(leaf) if slot.addr != sentinel => f(Some((leaf.key, &leaf.payload))),
                _ => f(None),
            }
        })?;
        Ok(())
    }

    /// Builds a tree from records pre-sorted by key (pre-deployment bulk
    /// load). Much faster than repeated `insert`.
    ///
    /// Node addresses are assigned contiguously level by level (sentinel,
    /// then the leaf run, then each internal level bottom-up), so the
    /// whole serialized tree streams into the backing ORAM through its
    /// batched contiguous bulk-write path — a handful of boundary
    /// crossings where per-bucket sealing paid one per node.
    pub fn bulk_load<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        items: &[(u128, Vec<u8>)],
        max_records: u64,
        payload_len: usize,
        fanout: usize,
        pos_kind: PosMapKind,
        om: &OmBudget,
        rng: EnclaveRng,
    ) -> Result<Self, ObTreeError> {
        assert!(items.len() as u64 <= max_records, "more items than capacity");
        assert!(items.windows(2).all(|w| w[0].0 <= w[1].0), "items must be sorted");
        assert!(fanout >= 4);

        let capacity_nodes = node_capacity(max_records, fanout);
        let block_len = Node::serialized_len(fanout, payload_len);

        // Assign addresses: 0 = sentinel, 1..=n = leaves, then internals.
        let n = items.len() as u64;
        let mut nodes: Vec<Node> = Vec::with_capacity(n as usize * 2 + 2);
        nodes.push(Node::Leaf(LeafNode {
            key: 0,
            prev: NIL,
            next: if n > 0 { 1 } else { NIL },
            payload: vec![0u8; payload_len],
        }));
        for (i, (k, payload)) in items.iter().enumerate() {
            assert_eq!(payload.len(), payload_len);
            let addr = 1 + i as u64;
            let next = if (i as u64) < n - 1 { addr + 1 } else { NIL };
            nodes.push(Node::Leaf(LeafNode {
                key: *k,
                prev: addr - 1,
                next,
                payload: payload.clone(),
            }));
        }

        // Build internal levels bottom-up, packing `fanout` children per
        // node (leaving the last node possibly short but nonempty).
        let mut level: Vec<(u128, u64)> = Vec::with_capacity(n as usize + 1);
        level.push((0, 0)); // sentinel fence
        for (i, (k, _)) in items.iter().enumerate() {
            level.push((*k, 1 + i as u64));
        }
        let mut height = 0u32;
        let root;
        loop {
            height += 1;
            let mut next_level = Vec::with_capacity(level.len().div_ceil(fanout));
            for chunk in level.chunks(fanout) {
                let addr = nodes.len() as u64;
                nodes.push(Node::Internal(InternalNode { entries: chunk.to_vec() }));
                next_level.push((chunk[0].0, addr));
            }
            if next_level.len() == 1 {
                root = next_level[0].1;
                break;
            }
            level = next_level;
        }

        let next_fresh = nodes.len() as u64;
        assert!(next_fresh <= capacity_nodes, "bulk load exceeded node capacity");
        let blocks: Vec<Vec<u8>> =
            nodes.iter().map(|nd| nd.serialize(fanout, payload_len)).collect();
        drop(nodes);
        // The ORAM must span the full node capacity so later inserts fit;
        // pad with Free blocks.
        let mut all_blocks = blocks;
        all_blocks.resize(capacity_nodes as usize, Node::Free.serialize(fanout, payload_len));

        let oram = PathOram::with_contents(host, key, &all_blocks, block_len, pos_kind, om, rng)?;

        Ok(Self {
            oram,
            fanout,
            payload_len,
            root,
            height,
            sentinel: 0,
            len: n,
            max_records,
            free_list: Vec::new(),
            next_fresh,
            capacity_nodes,
        })
    }

    /// Releases untrusted memory.
    pub fn free<M: EnclaveMemory>(self, host: &mut M) -> Result<(), ObTreeError> {
        self.oram.free(host)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::Host;
    use oblidb_enclave::DEFAULT_OM_BYTES;

    fn setup(max_records: u64) -> (Host, ObTree) {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let tree = ObTree::new(
            &mut host,
            AeadKey([3u8; 32]),
            max_records,
            8,
            4,
            PosMapKind::Direct,
            &om,
            EnclaveRng::seed_from_u64(77),
        )
        .unwrap();
        (host, tree)
    }

    fn payload(i: u64) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    #[test]
    fn insert_get_roundtrip() {
        let (mut host, mut tree) = setup(100);
        for i in 0..50u64 {
            assert!(tree.insert(&mut host, i as u128 * 7, &payload(i)).unwrap());
        }
        assert_eq!(tree.len(), 50);
        for i in 0..50u64 {
            assert_eq!(tree.get(&mut host, i as u128 * 7).unwrap(), Some(payload(i)));
        }
        assert_eq!(tree.get(&mut host, 1_000_000).unwrap(), None);
    }

    #[test]
    fn reverse_order_inserts() {
        let (mut host, mut tree) = setup(100);
        for i in (0..60u64).rev() {
            tree.insert(&mut host, i as u128, &payload(i)).unwrap();
        }
        for i in 0..60u64 {
            assert_eq!(tree.get(&mut host, i as u128).unwrap(), Some(payload(i)));
        }
        // Chain order must be sorted.
        let all = tree.range_leaky(&mut host, 0, u128::MAX).unwrap();
        let keys: Vec<u128> = all.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..60).map(|i| i as u128).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_insert_overwrites() {
        let (mut host, mut tree) = setup(10);
        assert!(tree.insert(&mut host, 5, &payload(1)).unwrap());
        assert!(!tree.insert(&mut host, 5, &payload(2)).unwrap());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(&mut host, 5).unwrap(), Some(payload(2)));
    }

    #[test]
    fn update_hits_and_misses() {
        let (mut host, mut tree) = setup(10);
        tree.insert(&mut host, 1, &payload(1)).unwrap();
        assert!(tree.update(&mut host, 1, &payload(9)).unwrap());
        assert!(!tree.update(&mut host, 2, &payload(9)).unwrap());
        assert_eq!(tree.get(&mut host, 1).unwrap(), Some(payload(9)));
    }

    #[test]
    fn delete_and_chain_integrity() {
        let (mut host, mut tree) = setup(100);
        for i in 0..40u64 {
            tree.insert(&mut host, i as u128, &payload(i)).unwrap();
        }
        for i in (0..40u64).step_by(2) {
            assert!(tree.delete(&mut host, i as u128).unwrap());
        }
        assert!(!tree.delete(&mut host, 0).unwrap());
        assert_eq!(tree.len(), 20);
        let keys: Vec<u128> =
            tree.range_leaky(&mut host, 0, u128::MAX).unwrap().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (1..40).step_by(2).map(|i| i as u128).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_inclusive() {
        let (mut host, mut tree) = setup(100);
        for i in 0..50u64 {
            tree.insert(&mut host, (i * 2) as u128, &payload(i)).unwrap();
        }
        let hits = tree.range_leaky(&mut host, 10, 20).unwrap();
        let keys: Vec<u128> = hits.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20]);
    }

    #[test]
    fn aborted_capped_walk_costs_the_same_whether_lo_is_stored() {
        let (mut host, mut tree) = setup(100);
        for i in 0..50u64 {
            tree.insert(&mut host, (i * 2) as u128, &payload(i)).unwrap();
        }
        // [10, 40] holds 16 keys, past every cap below; `lo` = 10 is a
        // stored key and 9 is not, so only the landed leaf differs.
        for cap in [0u64, 3, 7] {
            let mut walk = |lo: u128| {
                host.reset_stats();
                assert_eq!(tree.range_leaky_capped(&mut host, lo, 40, cap).unwrap(), None);
                host.stats().total_accesses()
            };
            let (present, absent) = (walk(10), walk(9));
            assert_eq!(present, absent, "cap {cap}");
        }
    }

    #[test]
    fn op_access_counts_are_key_independent() {
        // The heart of §3.2: every op type performs a fixed number of
        // untrusted accesses at a given tree state, whatever the key.
        let (mut host, mut tree) = setup(200);
        for i in 0..100u64 {
            tree.insert(&mut host, (i * 3) as u128, &payload(i)).unwrap();
        }
        // GET: hit vs miss, first vs last.
        let mut counts = Vec::new();
        for k in [0u128, 150, 297, 1, 500] {
            host.reset_stats();
            tree.get(&mut host, k).unwrap();
            counts.push(host.stats().total_accesses());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "get counts {counts:?}");

        // DELETE: hit vs miss must be indistinguishable. Tree height must
        // not change between probes for a fair comparison.
        host.reset_stats();
        tree.delete(&mut host, 1).unwrap(); // miss
        let miss = host.stats().total_accesses();
        host.reset_stats();
        tree.delete(&mut host, 150).unwrap(); // hit
        let hit = host.stats().total_accesses();
        assert_eq!(miss, hit);
    }

    #[test]
    fn insert_counts_match_with_and_without_splits() {
        let (mut host, mut tree) = setup(200);
        for i in 0..64u64 {
            tree.insert(&mut host, (i * 10) as u128, &payload(i)).unwrap();
        }
        let h = tree.height();
        // Probe several inserts; all at the same height must cost the same.
        let mut counts = Vec::new();
        for k in [5u128, 15, 25, 35] {
            host.reset_stats();
            tree.insert(&mut host, k, &payload(0)).unwrap();
            if tree.height() != h {
                break; // height changed: budget legitimately differs
            }
            counts.push(host.stats().total_accesses());
        }
        assert!(counts.len() >= 2);
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "insert counts {counts:?}");
    }

    #[test]
    fn capacity_enforced() {
        let (mut host, mut tree) = setup(5);
        for i in 0..5u64 {
            tree.insert(&mut host, i as u128, &payload(i)).unwrap();
        }
        assert_eq!(
            tree.insert(&mut host, 99, &payload(0)).unwrap_err(),
            ObTreeError::CapacityExceeded
        );
    }

    #[test]
    fn delete_then_reinsert_reuses_space() {
        let (mut host, mut tree) = setup(20);
        for round in 0..5 {
            for i in 0..20u64 {
                tree.insert(&mut host, i as u128, &payload(i + round)).unwrap();
            }
            for i in 0..20u64 {
                assert!(tree.delete(&mut host, i as u128).unwrap());
            }
            assert!(tree.is_empty());
        }
    }

    #[test]
    fn scan_structure_sees_exactly_the_records() {
        let (mut host, mut tree) = setup(30);
        for i in 0..30u64 {
            tree.insert(&mut host, i as u128, &payload(i)).unwrap();
        }
        let mut real = Vec::new();
        let mut total_slots = 0usize;
        tree.scan_structure(&mut host, |slot| {
            total_slots += 1;
            if let Some((k, _)) = slot {
                real.push(k);
            }
        })
        .unwrap();
        real.sort_unstable();
        assert_eq!(real, (0..30).map(|i| i as u128).collect::<Vec<_>>());
        assert!(total_slots > real.len()); // dummies and internals included
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let items: Vec<(u128, Vec<u8>)> =
            (0..200u64).map(|i| (i as u128 * 2, payload(i))).collect();
        let mut tree = ObTree::bulk_load(
            &mut host,
            AeadKey([3u8; 32]),
            &items,
            400,
            8,
            4,
            PosMapKind::Direct,
            &om,
            EnclaveRng::seed_from_u64(5),
        )
        .unwrap();
        assert_eq!(tree.len(), 200);
        for (k, v) in &items {
            assert_eq!(tree.get(&mut host, *k).unwrap().as_ref(), Some(v));
        }
        // The bulk-loaded tree remains fully mutable.
        tree.insert(&mut host, 3, &payload(999)).unwrap();
        tree.delete(&mut host, 0).unwrap();
        assert_eq!(tree.get(&mut host, 3).unwrap(), Some(payload(999)));
        assert_eq!(tree.get(&mut host, 0).unwrap(), None);
        let keys: Vec<u128> =
            tree.range_leaky(&mut host, 0, u128::MAX).unwrap().iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bulk_load_batches_bucket_writes() {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let items: Vec<(u128, Vec<u8>)> = (0..200u64).map(|i| (i as u128, payload(i))).collect();
        host.reset_stats();
        let tree = ObTree::bulk_load(
            &mut host,
            AeadKey([3u8; 32]),
            &items,
            400,
            8,
            4,
            PosMapKind::Direct,
            &om,
            EnclaveRng::seed_from_u64(5),
        )
        .unwrap();
        let s = host.stats();
        assert!(
            s.writes >= tree.oram_stats().accesses.max(1000),
            "every bucket of the node-capacity tree is sealed ({} writes)",
            s.writes
        );
        assert!(
            s.crossings * 16 <= s.writes,
            "contiguous level layout must batch bucket writes: {} crossings for {} writes",
            s.crossings,
            s.writes
        );
    }

    #[test]
    fn height_grows_and_shrinks() {
        let (mut host, mut tree) = setup(300);
        assert_eq!(tree.height(), 1);
        for i in 0..300u64 {
            tree.insert(&mut host, i as u128, &payload(i)).unwrap();
        }
        assert!(tree.height() >= 3, "height {}", tree.height());
        for i in 0..300u64 {
            tree.delete(&mut host, i as u128).unwrap();
        }
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.height(), 1, "root should collapse back");
    }
}
