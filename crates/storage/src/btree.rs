//! A disk-based B+-tree index mapping order-preserving key bytes to
//! [`Rid`]s — the IX component of the Redbase substrate.
//!
//! Design notes:
//!
//! * **Non-unique**: entries are ordered by `(key, rid)`, so duplicate
//!   keys are fine and lookups are range scans `[key, key]`.
//! * **Variable-length keys** stored as sequential cells inside each 4 KiB
//!   node page; inserts shift cell bytes (O(page), which is cheap at this
//!   page size and keeps the layout simple and robust).
//! * **Splits** propagate up through an explicit descent stack; a root
//!   split allocates a fresh root. The root page id lives in the index
//!   header (page 0).
//! * **Deletes** remove the leaf entry without rebalancing (lazy deletion,
//!   as many production trees do); underfull pages are reclaimed only by
//!   a rebuild.
//!
//! Page layout:
//!
//! ```text
//! header page 0:  [magic u32][root u32]
//! node page:      [kind u8][nkeys u16][link u32][cell]*
//!   leaf cell:     [klen u16][key][page u32][slot u16]      (entry → rid)
//!   internal cell: [klen u16][key][child u32]                (right child)
//! ```
//!
//! For an internal node, `link` is the leftmost child (subtree with keys
//! `<` the first cell's key); each cell's child holds keys `>=` its key.
//! For a leaf, `link` is the next leaf (0 = none; page 0 is the header so
//! the value is unambiguous).

use crate::buffer::BufferPool;
use crate::heap::Rid;
use crate::page::{FileId, PageId, PAGE_SIZE};
use crate::slotted::SlotId;
use std::sync::Arc;
use wsq_common::{Result, WsqError};

const MAGIC: u32 = 0x5752_4958; // "WRIX"
const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 0;
const HDR: usize = 7; // kind + nkeys + link

fn read_u16(d: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([d[at], d[at + 1]])
}
fn read_u32(d: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([d[at], d[at + 1], d[at + 2], d[at + 3]])
}

/// An entry as stored in a node.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    key: Vec<u8>,
    /// Leaf: the rid. Internal: the right child page in `rid.page`.
    rid: Rid,
}

impl Cell {
    fn leaf_size(&self) -> usize {
        2 + self.key.len() + 6
    }
    fn internal_size(&self) -> usize {
        2 + self.key.len() + 4
    }
}

/// A node page read in place: the read paths compare a handful of keys
/// per page, so they borrow them from the page bytes instead of decoding
/// every cell into an owned [`Node`].
#[derive(Clone, Copy)]
struct NodeRef<'a>(&'a [u8]);

impl<'a> NodeRef<'a> {
    fn is_leaf(self) -> bool {
        self.0[0] == KIND_LEAF
    }

    /// Leaf: the next leaf (0 = none). Internal: the leftmost child.
    fn link(self) -> u32 {
        read_u32(self.0, 3)
    }

    /// The cells in stored order as `(key, rid)`, keys borrowed from the
    /// page; an internal cell's right child is `rid.page`.
    fn cells(self) -> impl Iterator<Item = (&'a [u8], Rid)> {
        let d = self.0;
        let leaf = self.is_leaf();
        let mut at = HDR;
        (0..read_u16(d, 1)).map(move |_| {
            let klen = read_u16(d, at) as usize;
            let key = &d[at + 2..at + 2 + klen];
            at += 2 + klen;
            let page = PageId(read_u32(d, at));
            let slot = if leaf { read_u16(d, at + 4) } else { 0 };
            at += if leaf { 6 } else { 4 };
            (
                key,
                Rid {
                    page,
                    slot: SlotId(slot),
                },
            )
        })
    }

    /// The leftmost child of an internal node that can hold `key`: the
    /// right child of the last cell whose key is below it, else `link`.
    fn child_for(self, key: &[u8]) -> u32 {
        let mut child = self.link();
        for (k, r) in self.cells() {
            if k >= key {
                break;
            }
            child = r.page.0;
        }
        child
    }
}

/// Decoded node contents, for the paths that mutate a node (nodes are
/// small; editing a Vec keeps the insert/split logic simple and safe).
#[derive(Debug)]
struct Node {
    leaf: bool,
    link: u32,
    cells: Vec<Cell>,
}

impl Node {
    fn decode(d: &[u8]) -> Node {
        let page = NodeRef(d);
        Node {
            leaf: page.is_leaf(),
            link: page.link(),
            cells: page
                .cells()
                .map(|(key, rid)| Cell {
                    key: key.to_vec(),
                    rid,
                })
                .collect(),
        }
    }

    fn encode(&self, d: &mut [u8]) {
        d[0] = if self.leaf { KIND_LEAF } else { KIND_INTERNAL };
        d[1..3].copy_from_slice(&(self.cells.len() as u16).to_le_bytes());
        d[3..7].copy_from_slice(&self.link.to_le_bytes());
        let mut at = HDR;
        for c in &self.cells {
            d[at..at + 2].copy_from_slice(&(c.key.len() as u16).to_le_bytes());
            at += 2;
            d[at..at + c.key.len()].copy_from_slice(&c.key);
            at += c.key.len();
            if self.leaf {
                d[at..at + 4].copy_from_slice(&c.rid.page.0.to_le_bytes());
                d[at + 4..at + 6].copy_from_slice(&c.rid.slot.0.to_le_bytes());
                at += 6;
            } else {
                d[at..at + 4].copy_from_slice(&c.rid.page.0.to_le_bytes());
                at += 4;
            }
        }
    }

    fn bytes_used(&self) -> usize {
        HDR + self
            .cells
            .iter()
            .map(|c| {
                if self.leaf {
                    c.leaf_size()
                } else {
                    c.internal_size()
                }
            })
            .sum::<usize>()
    }

    /// First cell index whose `(key, rid)` is `>=` the probe.
    fn lower_bound(&self, key: &[u8], rid: Option<Rid>) -> usize {
        self.cells
            .partition_point(|c| match c.key.as_slice().cmp(key) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => match rid {
                    None => false,
                    Some(r) => c.rid < r,
                },
            })
    }
}

/// Largest key an index accepts; guarantees at least two entries fit in a
/// node after a split.
pub fn max_key_len() -> usize {
    (PAGE_SIZE - HDR) / 2 - 16
}

/// A B+-tree index over `(key bytes, rid)` entries.
pub struct BTree {
    pool: Arc<BufferPool>,
    file: FileId,
}

impl BTree {
    /// Initialize a fresh index in an empty file.
    pub fn create(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        if pool.num_pages(file)? != 0 {
            return Err(WsqError::Storage(
                "BTree::create requires an empty file".to_string(),
            ));
        }
        let header = pool.allocate_page(file)?;
        debug_assert_eq!(header, PageId(0));
        let root = pool.allocate_page(file)?;
        pool.with_page_mut(file, root, |d| {
            Node {
                leaf: true,
                link: 0,
                cells: vec![],
            }
            .encode(d)
        })?;
        pool.with_page_mut(file, header, |d| {
            d[0..4].copy_from_slice(&MAGIC.to_le_bytes());
            d[4..8].copy_from_slice(&root.0.to_le_bytes());
        })?;
        Ok(BTree { pool, file })
    }

    /// Open an existing index.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        if pool.num_pages(file)? < 2 {
            return Err(WsqError::Storage("not a btree file".to_string()));
        }
        let magic = pool.with_page(file, PageId(0), |d| read_u32(d, 0))?;
        if magic != MAGIC {
            return Err(WsqError::Storage("not a btree file: bad magic".to_string()));
        }
        Ok(BTree { pool, file })
    }

    /// The underlying file.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    fn root(&self) -> Result<u32> {
        self.pool
            .with_page(self.file, PageId(0), |d| read_u32(d, 4))
    }

    fn set_root(&self, root: u32) -> Result<()> {
        self.pool.with_page_mut(self.file, PageId(0), |d| {
            d[4..8].copy_from_slice(&root.to_le_bytes())
        })
    }

    fn load(&self, page: u32) -> Result<Node> {
        self.pool.with_page(self.file, PageId(page), Node::decode)
    }

    fn store(&self, page: u32, node: &Node) -> Result<()> {
        self.pool
            .with_page_mut(self.file, PageId(page), |d| node.encode(d))
    }

    /// Insert an entry. Duplicate `(key, rid)` pairs are rejected.
    pub fn insert(&self, key: &[u8], rid: Rid) -> Result<()> {
        if key.len() > max_key_len() {
            return Err(WsqError::Storage(format!(
                "index key of {} bytes exceeds the maximum of {}",
                key.len(),
                max_key_len()
            )));
        }
        // Descend to the target leaf, remembering the path: each internal
        // page with the cell index at which a separator for a split of
        // the child taken belongs (right after that child's own cell).
        // Finding that index again by key would put a separator equal to
        // its neighbours — duplicates spanning leaves — on the wrong side
        // of them.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let mut page = self.root()?;
        let mut node = loop {
            let node = self.load(page)?;
            if node.leaf {
                break node;
            }
            let idx = node.lower_bound(key, Some(rid));
            path.push((page, idx));
            page = if idx == 0 {
                node.link
            } else {
                node.cells[idx - 1].rid.page.0
            };
        };

        let pos = node.lower_bound(key, Some(rid));
        if node
            .cells
            .get(pos)
            .is_some_and(|c| c.key == key && c.rid == rid)
        {
            return Err(WsqError::Storage("duplicate index entry".to_string()));
        }
        node.cells.insert(
            pos,
            Cell {
                key: key.to_vec(),
                rid,
            },
        );

        // Split upward while nodes overflow.
        let mut split: Option<(Vec<u8>, u32)> = None; // (separator, new right page)
        if node.bytes_used() > PAGE_SIZE {
            split = Some(self.split(page, &mut node)?);
        }
        self.store(page, &node)?;

        while let Some((sep, right)) = split.take() {
            match path.pop() {
                Some((parent_page, idx)) => {
                    let mut parent = self.load(parent_page)?;
                    parent.cells.insert(
                        idx,
                        Cell {
                            key: sep,
                            rid: Rid {
                                page: PageId(right),
                                slot: SlotId(0),
                            },
                        },
                    );
                    if parent.bytes_used() > PAGE_SIZE {
                        split = Some(self.split(parent_page, &mut parent)?);
                    }
                    self.store(parent_page, &parent)?;
                }
                None => {
                    // Root split: the old root (leaf or internal) becomes
                    // the leftmost child of a new root. The root pointer
                    // still names it — `set_root` below is the only writer.
                    let old_root = self.root()?;
                    let new_root_page = self.pool.allocate_page(self.file)?;
                    let new_root = Node {
                        leaf: false,
                        link: old_root,
                        cells: vec![Cell {
                            key: sep,
                            rid: Rid {
                                page: PageId(right),
                                slot: SlotId(0),
                            },
                        }],
                    };
                    self.store(new_root_page.0, &new_root)?;
                    self.set_root(new_root_page.0)?;
                }
            }
        }
        Ok(())
    }

    /// Split `node` (stored at `page`), returning `(separator, right page)`.
    fn split(&self, page: u32, node: &mut Node) -> Result<(Vec<u8>, u32)> {
        let mid = node.cells.len() / 2;
        let right_page = self.pool.allocate_page(self.file)?;
        let (sep, right) = if node.leaf {
            let right_cells: Vec<Cell> = node.cells.split_off(mid);
            let sep = right_cells[0].key.clone();
            let right = Node {
                leaf: true,
                link: node.link,
                cells: right_cells,
            };
            node.link = right_page.0;
            (sep, right)
        } else {
            // The middle key moves up; its right child becomes the new
            // node's leftmost child.
            let mut right_cells: Vec<Cell> = node.cells.split_off(mid);
            let middle = right_cells.remove(0);
            let right = Node {
                leaf: false,
                link: middle.rid.page.0,
                cells: right_cells,
            };
            (middle.key, right)
        };
        self.store(right_page.0, &right)?;
        let _ = page;
        Ok((sep, right_page.0))
    }

    /// All rids whose key equals `key`, in rid order.
    pub fn search(&self, key: &[u8]) -> Result<Vec<Rid>> {
        let mut out = Vec::new();
        self.scan_range(key, key, |_, rid| out.push(rid))?;
        Ok(out)
    }

    /// Descend from the root to the leftmost leaf that can hold `key`
    /// (duplicates of a key may continue into the leaves after it).
    fn find_leaf(&self, key: &[u8]) -> Result<u32> {
        let mut page = self.root()?;
        loop {
            let child = self.pool.with_page(self.file, PageId(page), |d| {
                let node = NodeRef(d);
                (!node.is_leaf()).then(|| node.child_for(key))
            })?;
            match child {
                Some(child) => page = child,
                None => return Ok(page),
            }
        }
    }

    /// Walk the leaf chain from `page`, visiting every entry with
    /// `low <= key` and, when `high` is given, `key <= high`; stops at the
    /// first key above `high`. Each leaf's matches are copied out under
    /// the pool lock and visited after it is released.
    fn scan_leaves(
        &self,
        mut page: u32,
        low: &[u8],
        high: Option<&[u8]>,
        mut visit: impl FnMut(&[u8], Rid),
    ) -> Result<()> {
        // One leaf's matching keys, back to back, and `(key end, rid)`.
        let mut keys: Vec<u8> = Vec::new();
        let mut hits: Vec<(usize, Rid)> = Vec::new();
        while page != 0 {
            keys.clear();
            hits.clear();
            page = self.pool.with_page(self.file, PageId(page), |d| {
                let node = NodeRef(d);
                for (key, rid) in node.cells() {
                    if high.is_some_and(|high| key > high) {
                        return 0;
                    }
                    if key >= low {
                        keys.extend_from_slice(key);
                        hits.push((keys.len(), rid));
                    }
                }
                node.link()
            })?;
            let mut start = 0;
            for &(end, rid) in &hits {
                visit(&keys[start..end], rid);
                start = end;
            }
        }
        Ok(())
    }

    /// Visit every entry with `low <= key <= high` in key order.
    pub fn scan_range(&self, low: &[u8], high: &[u8], visit: impl FnMut(&[u8], Rid)) -> Result<()> {
        self.scan_leaves(self.find_leaf(low)?, low, Some(high), visit)
    }

    /// Visit every entry in key order.
    pub fn scan_all(&self, visit: impl FnMut(&[u8], Rid)) -> Result<()> {
        self.scan_leaves(self.find_leaf(&[])?, &[], None, visit)
    }

    /// Remove the entry `(key, rid)`. Returns whether it existed. Lazy:
    /// no rebalancing.
    pub fn delete(&self, key: &[u8], rid: Rid) -> Result<bool> {
        // Separators carry no rid, so duplicates of `key` that span
        // several leaves are not routable by `(key, rid)`: follow the
        // chain from the leftmost leaf that can hold `key`.
        let mut page = self.find_leaf(key)?;
        while page != 0 {
            // `Ok(pos)`: found in this leaf. `Err(next)`: look there (0 =
            // a larger key was met, or the chain ended).
            let found = self.pool.with_page(self.file, PageId(page), |d| {
                let node = NodeRef(d);
                for (pos, (k, r)) in node.cells().enumerate() {
                    match k.cmp(key) {
                        std::cmp::Ordering::Less => {}
                        std::cmp::Ordering::Equal if r == rid => return Ok(pos),
                        std::cmp::Ordering::Equal => {}
                        std::cmp::Ordering::Greater => return Err(0),
                    }
                }
                Err(node.link())
            })?;
            match found {
                Ok(pos) => {
                    let mut node = self.load(page)?;
                    node.cells.remove(pos);
                    self.store(page, &node)?;
                    return Ok(true);
                }
                Err(next) => page = next,
            }
        }
        Ok(false)
    }

    /// Number of entries (full scan; for tests and stats).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        self.scan_all(|_, _| n += 1)?;
        Ok(n)
    }

    /// True iff the index has no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (root to leaf), for structural tests.
    pub fn height(&self) -> Result<usize> {
        let mut h = 1;
        let mut page = self.root()?;
        loop {
            let node = self.load(page)?;
            if node.leaf {
                return Ok(h);
            }
            h += 1;
            page = node.link;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStorage;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::new(64));
        let file = pool.register_file(Box::new(MemStorage::new()));
        BTree::create(pool, file).unwrap()
    }

    fn rid(n: u32) -> Rid {
        Rid {
            page: PageId(n / 100 + 1),
            slot: SlotId((n % 100) as u16),
        }
    }

    #[test]
    fn insert_and_point_lookup() {
        let t = tree();
        t.insert(b"colorado", rid(1)).unwrap();
        t.insert(b"utah", rid(2)).unwrap();
        t.insert(b"arizona", rid(3)).unwrap();
        assert_eq!(t.search(b"utah").unwrap(), vec![rid(2)]);
        assert_eq!(t.search(b"nevada").unwrap(), vec![]);
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn duplicate_keys_different_rids() {
        let t = tree();
        t.insert(b"jackson", rid(10)).unwrap();
        t.insert(b"jackson", rid(5)).unwrap();
        t.insert(b"jackson", rid(7)).unwrap();
        assert_eq!(t.search(b"jackson").unwrap(), vec![rid(5), rid(7), rid(10)]);
        // Identical (key, rid) rejected.
        assert!(t.insert(b"jackson", rid(5)).is_err());
    }

    #[test]
    fn splits_maintain_order_and_completeness() {
        let t = tree();
        // Enough entries to force multiple levels (keys ~40 bytes →
        // ~80 entries/leaf).
        let n = 2000u32;
        for i in 0..n {
            let key = format!("key-{:08}-padding-padding-padding", i * 7919 % n);
            t.insert(key.as_bytes(), rid(i)).unwrap();
        }
        assert_eq!(t.len().unwrap(), n as usize);
        assert!(t.height().unwrap() >= 2, "tree should have split");
        // Full scan is sorted.
        let mut prev: Option<Vec<u8>> = None;
        t.scan_all(|k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() <= k);
            }
            prev = Some(k.to_vec());
        })
        .unwrap();
        // Every key findable.
        for i in (0..n).step_by(97) {
            let key = format!("key-{:08}-padding-padding-padding", i * 7919 % n);
            assert_eq!(t.search(key.as_bytes()).unwrap().len(), 1, "{key}");
        }
    }

    /// An *internal* root splitting must hang the old root — not the
    /// leaf the insert started at — under the new root, or the left
    /// half of the tree is lost.
    #[test]
    fn internal_root_split_keeps_the_left_half() {
        use wsq_common::Value;
        let t = tree();
        let n = 40_000u32;
        let key = |i: u32| crate::codec::encode_key(&Value::Int(i64::from(i))).unwrap();
        for i in 0..n {
            t.insert(&key(i), rid(i)).unwrap();
        }
        assert_eq!(t.height().unwrap(), 3);
        for i in 0..n {
            assert_eq!(t.search(&key(i)).unwrap(), vec![rid(i)], "key {i}");
        }
        let mut seen = Vec::with_capacity(n as usize);
        t.scan_range(&key(0), &key(n - 1), |_, r| seen.push(r))
            .unwrap();
        assert_eq!(seen, (0..n).map(rid).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan() {
        let t = tree();
        for i in 0..100u32 {
            t.insert(format!("k{i:03}").as_bytes(), rid(i)).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_range(b"k010", b"k019", |k, _| {
            seen.push(String::from_utf8(k.to_vec()).unwrap())
        })
        .unwrap();
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], "k010");
        assert_eq!(seen[9], "k019");
        // Empty range.
        let mut n = 0;
        t.scan_range(b"zzz", b"zzzz", |_, _| n += 1).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn delete_removes_single_entry() {
        let t = tree();
        for i in 0..50u32 {
            t.insert(b"same", rid(i)).unwrap();
        }
        assert!(t.delete(b"same", rid(25)).unwrap());
        assert!(!t.delete(b"same", rid(25)).unwrap());
        assert_eq!(t.search(b"same").unwrap().len(), 49);
        assert!(!t.delete(b"other", rid(1)).unwrap());
    }

    /// Separators carry no rid, so a duplicate that a split left in a
    /// right-hand leaf is not routable by `(key, rid)`: delete must walk
    /// the chain from the leftmost leaf holding the key.
    #[test]
    fn delete_finds_duplicates_that_straddle_leaves() {
        let t = tree();
        let n = 3000u32;
        for i in 0..n {
            t.insert(b"same", rid(i)).unwrap();
        }
        t.insert(b"other", rid(n)).unwrap();
        assert!(t.height().unwrap() >= 2, "duplicates should span leaves");
        for i in 0..n {
            assert!(t.delete(b"same", rid(i)).unwrap(), "entry {i}");
        }
        assert!(!t.delete(b"same", rid(0)).unwrap());
        assert_eq!(t.search(b"other").unwrap(), vec![rid(n)]);
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn reopen_preserves_tree() {
        let pool = Arc::new(BufferPool::new(64));
        let file = pool.register_file(Box::new(MemStorage::new()));
        {
            let t = BTree::create(pool.clone(), file).unwrap();
            for i in 0..500u32 {
                t.insert(format!("key{i:05}").as_bytes(), rid(i)).unwrap();
            }
        }
        let t = BTree::open(pool, file).unwrap();
        assert_eq!(t.len().unwrap(), 500);
        assert_eq!(t.search(b"key00321").unwrap(), vec![rid(321)]);
    }

    #[test]
    fn oversized_key_rejected() {
        let t = tree();
        let big = vec![b'x'; max_key_len() + 1];
        assert!(t.insert(&big, rid(1)).is_err());
        let ok = vec![b'x'; max_key_len()];
        t.insert(&ok, rid(1)).unwrap();
        assert_eq!(t.search(&ok).unwrap(), vec![rid(1)]);
    }

    #[test]
    fn empty_and_single_key_edge_cases() {
        let t = tree();
        assert!(t.is_empty().unwrap());
        t.insert(b"", rid(1)).unwrap(); // empty key is legal
        assert_eq!(t.search(b"").unwrap(), vec![rid(1)]);
        assert_eq!(t.height().unwrap(), 1);
    }
}
