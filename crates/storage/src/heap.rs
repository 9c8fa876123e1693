//! Heap files: unordered record collections addressed by [`Rid`].
//!
//! Layout: page 0 is the heap header (magic, record count, insertion hint);
//! pages 1.. are slotted data pages. Inserts fill the hinted page and
//! allocate a new page when it is full — the simple append discipline
//! Redbase uses. Deletions tombstone in place; their space is reclaimed by
//! in-page compaction when later inserts land on the same page.

use crate::buffer::BufferPool;
use crate::page::{FileId, PageId};
use crate::slotted::{self, SlotId};
use std::fmt;
use std::sync::Arc;
use wsq_common::{Result, WsqError};

const MAGIC: u32 = 0x5244_4246; // "RDBF"
const H_MAGIC: usize = 0;
const H_COUNT: usize = 4; // u64 record count
const H_HINT: usize = 12; // u32 insertion hint page

/// A record identifier: page number plus slot within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Data page holding the record.
    pub page: PageId,
    /// Slot within that page.
    pub slot: SlotId,
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}]", self.page.0, self.slot.0)
    }
}

/// An unordered collection of variable-length records in a paged file.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file: FileId,
}

impl HeapFile {
    /// Initialize a brand-new heap in `file` (which must be empty).
    pub fn create(pool: Arc<BufferPool>, file: FileId) -> Result<Self> {
        if pool.num_pages(file)? != 0 {
            return Err(WsqError::Storage(
                "HeapFile::create requires an empty file".to_string(),
            ));
        }
        let header = pool.allocate_page(file)?;
        debug_assert_eq!(header, PageId(0));
        pool.with_page_mut(file, header, |d| {
            d[H_MAGIC..H_MAGIC + 4].copy_from_slice(&MAGIC.to_le_bytes());
            d[H_COUNT..H_COUNT + 8].copy_from_slice(&0u64.to_le_bytes());
            d[H_HINT..H_HINT + 4].copy_from_slice(&0u32.to_le_bytes());
        })?;
        Ok(HeapFile { pool, file })
    }

    /// Open an existing heap, verifying the header magic.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<Self> {
        if pool.num_pages(file)? == 0 {
            return Err(WsqError::Storage("not a heap file: empty".to_string()));
        }
        let magic = pool.with_page(file, PageId(0), |d| {
            u32::from_le_bytes([d[0], d[1], d[2], d[3]])
        })?;
        if magic != MAGIC {
            return Err(WsqError::Storage("not a heap file: bad magic".to_string()));
        }
        Ok(HeapFile { pool, file })
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of live records.
    pub fn len(&self) -> Result<u64> {
        self.pool.with_page(self.file, PageId(0), |d| {
            u64::from_le_bytes(d[H_COUNT..H_COUNT + 8].try_into().unwrap())
        })
    }

    /// True iff the heap holds no records.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    fn bump_count(&self, delta: i64) -> Result<()> {
        self.pool.with_page_mut(self.file, PageId(0), |d| {
            let n = u64::from_le_bytes(d[H_COUNT..H_COUNT + 8].try_into().unwrap());
            let n = (n as i64 + delta) as u64;
            d[H_COUNT..H_COUNT + 8].copy_from_slice(&n.to_le_bytes());
        })
    }

    fn hint(&self) -> Result<u32> {
        self.pool.with_page(self.file, PageId(0), |d| {
            u32::from_le_bytes(d[H_HINT..H_HINT + 4].try_into().unwrap())
        })
    }

    fn set_hint(&self, page: u32) -> Result<()> {
        self.pool.with_page_mut(self.file, PageId(0), |d| {
            d[H_HINT..H_HINT + 4].copy_from_slice(&page.to_le_bytes());
        })
    }

    /// Insert a record, returning its id.
    pub fn insert(&self, rec: &[u8]) -> Result<Rid> {
        if rec.len() > slotted::max_record_len(crate::page::PAGE_SIZE) {
            return Err(WsqError::Storage(format!(
                "record of {} bytes exceeds page capacity",
                rec.len()
            )));
        }
        let hint = self.hint()?;
        if hint != 0 {
            let page = PageId(hint);
            let slot = self
                .pool
                .with_page_mut(self.file, page, |d| slotted::insert(d, rec))?;
            if let Some(slot) = slot {
                self.bump_count(1)?;
                return Ok(Rid { page, slot });
            }
        }
        // Hinted page full (or no data page yet): allocate a fresh one.
        let page = self.pool.allocate_page(self.file)?;
        let slot = self.pool.with_page_mut(self.file, page, |d| {
            slotted::init(d);
            slotted::insert(d, rec)
        })?;
        let slot = slot.expect("fresh page must accept a max-size record");
        self.set_hint(page.0)?;
        self.bump_count(1)?;
        Ok(Rid { page, slot })
    }

    /// Fetch a record's bytes. Errors if the rid is dangling.
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        let mut bytes = Vec::new();
        self.for_each_at(rid.page, [rid.slot], |_, rec| {
            bytes.extend_from_slice(rec);
            Ok(())
        })?;
        Ok(bytes)
    }

    /// Delete a record. Errors if the rid is dangling.
    pub fn delete(&self, rid: Rid) -> Result<()> {
        self.check_data_page(rid.page)?;
        let ok = self
            .pool
            .with_page_mut(self.file, rid.page, |d| slotted::delete(d, rid.slot))?;
        if !ok {
            return Err(WsqError::Storage(format!("no record at {rid}")));
        }
        self.bump_count(-1)
    }

    /// Update a record in place when possible; otherwise move it, returning
    /// the (possibly new) rid.
    pub fn update(&self, rid: Rid, rec: &[u8]) -> Result<Rid> {
        self.check_data_page(rid.page)?;
        let in_place = self.pool.with_page_mut(self.file, rid.page, |d| {
            match slotted::update(d, rid.slot, rec) {
                Ok(true) => Ok(true),
                Ok(false) => Err(WsqError::Storage(format!("no record at {rid}"))),
                Err(_) => Ok(false), // does not fit here: move it
            }
        })??;
        if in_place {
            return Ok(rid);
        }
        self.delete(rid)?;
        self.insert(rec)
    }

    /// Run `f` on the records at `slots` of data page `page`, in the order
    /// given, all in one hold of the pool. Fails at the first slot that
    /// holds no record (`no record at [p:s]`), on a page that is not a data
    /// page, or with `f`'s first error; `f` has seen every record before
    /// it.
    pub fn for_each_at(
        &self,
        page: PageId,
        slots: impl IntoIterator<Item = SlotId>,
        mut f: impl FnMut(Rid, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let not_data = || WsqError::Storage(format!("page {page} is not a data page of this heap"));
        if page.0 == 0 {
            return Err(not_data());
        }
        let walked = self.pool.with_page_if_present(self.file, page, |d| {
            for slot in slots {
                let rid = Rid { page, slot };
                let rec = slotted::get(d, slot)
                    .ok_or_else(|| WsqError::Storage(format!("no record at {rid}")))?;
                f(rid, rec)?;
            }
            Ok(())
        })?;
        walked.unwrap_or_else(|| Err(not_data()))
    }

    /// Run `f` on the live records of data page `page` from slot `from`
    /// on, in slot order, all in one hold of the pool, until `f` returns
    /// `Ok(false)`: so a scan takes one hold a page instead of one a
    /// record. `Ok(false)` when `page` lies past the heap's last page;
    /// `f`'s first error stops the walk.
    pub fn for_each_on_page(
        &self,
        page: u32,
        from: u16,
        mut f: impl FnMut(Rid, &[u8]) -> Result<bool>,
    ) -> Result<bool> {
        let page = PageId(page.max(1));
        let walked = self.pool.with_page_if_present(self.file, page, |d| {
            for (slot, rec) in slotted::iter(d).skip_while(|(slot, _)| slot.0 < from) {
                if !f(Rid { page, slot }, rec)? {
                    break;
                }
            }
            Ok(())
        })?;
        walked.map(|walk| walk.map(|()| true)).unwrap_or(Ok(false))
    }

    fn check_data_page(&self, page: PageId) -> Result<()> {
        let n = self.pool.num_pages(self.file)?;
        if page.0 == 0 || page.0 >= n {
            return Err(WsqError::Storage(format!(
                "page {page} is not a data page of this heap"
            )));
        }
        Ok(())
    }

    /// Scan every live record. Records are copied out so no page lock is
    /// held between iterator steps.
    pub fn scan(&self) -> HeapScan<'_> {
        HeapScan {
            heap: self,
            page: 1,
            slot: 0,
            done: false,
        }
    }
}

/// Iterator over `(Rid, record bytes)` of a heap file, page by page.
pub struct HeapScan<'a> {
    heap: &'a HeapFile,
    page: u32,
    slot: u16,
    done: bool,
}

impl Iterator for HeapScan<'_> {
    type Item = Result<(Rid, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let mut found = None;
            let read = self
                .heap
                .for_each_on_page(self.page, self.slot, |rid, rec| {
                    found = Some((rid, rec.to_vec()));
                    Ok(false)
                });
            match (read, found) {
                (Ok(_), Some((rid, rec))) => {
                    self.slot = rid.slot.0 + 1;
                    return Some(Ok((rid, rec)));
                }
                (Ok(true), None) => (self.page, self.slot) = (self.page + 1, 0),
                (Ok(false), None) => self.done = true,
                (Err(e), _) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStorage;

    fn heap() -> HeapFile {
        let pool = Arc::new(BufferPool::new(8));
        let file = pool.register_file(Box::new(MemStorage::new()));
        HeapFile::create(pool, file).unwrap()
    }

    #[test]
    fn insert_get_delete() {
        let h = heap();
        let r1 = h.insert(b"alpha").unwrap();
        let r2 = h.insert(b"beta").unwrap();
        assert_eq!(h.get(r1).unwrap(), b"alpha");
        assert_eq!(h.get(r2).unwrap(), b"beta");
        assert_eq!(h.len().unwrap(), 2);
        h.delete(r1).unwrap();
        assert!(h.get(r1).is_err());
        assert_eq!(h.len().unwrap(), 1);
        assert!(h.delete(r1).is_err());
    }

    #[test]
    fn spans_multiple_pages() {
        let h = heap();
        let rec = vec![1u8; 1000];
        let rids: Vec<Rid> = (0..20).map(|_| h.insert(&rec).unwrap()).collect();
        let pages: std::collections::HashSet<u32> = rids.iter().map(|r| r.page.0).collect();
        assert!(pages.len() >= 5, "1000-byte records, ~4 per page");
        for rid in &rids {
            assert_eq!(h.get(*rid).unwrap(), rec);
        }
        assert_eq!(h.len().unwrap(), 20);
    }

    #[test]
    fn scan_sees_all_live_records_in_rid_order() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..50u8 {
            rids.push(h.insert(&[i; 200]).unwrap());
        }
        // Delete a few.
        h.delete(rids[3]).unwrap();
        h.delete(rids[30]).unwrap();
        let seen: Vec<(Rid, Vec<u8>)> = h.scan().map(|r| r.unwrap()).collect();
        assert_eq!(seen.len(), 48);
        // Rid order is (page, slot) ascending.
        let mut sorted = seen.clone();
        sorted.sort_by_key(|(rid, _)| *rid);
        assert_eq!(seen, sorted);
        assert!(seen
            .iter()
            .all(|(rid, _)| *rid != rids[3] && *rid != rids[30]));
    }

    #[test]
    fn page_at_a_time_reads_match_the_scan_and_name_what_is_missing() {
        let h = heap();
        let rids: Vec<Rid> = (0..50u8).map(|i| h.insert(&[i; 200]).unwrap()).collect();
        h.delete(rids[3]).unwrap();
        let mut by_page = Vec::new();
        let mut page = 1;
        while h
            .for_each_on_page(page, 0, |rid, rec| {
                by_page.push((rid, rec.to_vec()));
                Ok(true)
            })
            .unwrap()
        {
            page += 1;
        }
        let scanned: Vec<(Rid, Vec<u8>)> = h.scan().map(|r| r.unwrap()).collect();
        assert_eq!(by_page, scanned);
        assert!(page > 2, "50 records of 200 bytes span pages");
        // A walk resumes at `from` and stops when asked.
        let mut two = Vec::new();
        h.for_each_on_page(1, 3, |rid, _| {
            two.push(rid);
            Ok(two.len() < 2)
        })
        .unwrap();
        assert_eq!(two, vec![rids[4], rids[5]], "slot 3 was deleted");

        let first = rids[0].page;
        let mut got = Vec::new();
        h.for_each_at(first, [rids[2].slot, rids[0].slot], |rid, rec| {
            got.push((rid, rec[0]));
            Ok(())
        })
        .unwrap();
        assert_eq!(got, vec![(rids[2], 2), (rids[0], 0)]);
        // A dangling slot fails, after the records before it.
        let mut seen = 0;
        let err = h
            .for_each_at(first, [rids[0].slot, rids[3].slot], |_, _| {
                seen += 1;
                Ok(())
            })
            .unwrap_err();
        let missing = format!("storage error: no record at {}", rids[3]);
        assert_eq!(err.to_string(), missing);
        assert_eq!(seen, 1);
        for bad in [PageId(0), PageId(page)] {
            let err = h.for_each_at(bad, [SlotId(0)], |_, _| Ok(())).unwrap_err();
            let not_data = format!("storage error: page {bad} is not a data page of this heap");
            assert_eq!(err.to_string(), not_data);
        }
    }

    #[test]
    fn scan_of_empty_heap() {
        let h = heap();
        assert_eq!(h.scan().count(), 0);
        assert!(h.is_empty().unwrap());
    }

    #[test]
    fn update_moves_when_necessary() {
        let h = heap();
        // Fill a page almost completely.
        let r = h.insert(&[7u8; 100]).unwrap();
        let _fill = h.insert(&[8u8; 3900]).unwrap();
        // Growing r beyond the page's remaining space forces a move.
        let r2 = h.update(r, &[9u8; 2000]).unwrap();
        assert_ne!(r.page, r2.page);
        assert_eq!(h.get(r2).unwrap(), vec![9u8; 2000]);
        assert!(h.get(r).is_err());
        assert_eq!(h.len().unwrap(), 2);
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let h = heap();
        let r = h.insert(b"0123456789").unwrap();
        let r2 = h.update(r, b"xyz").unwrap();
        assert_eq!(r, r2);
        assert_eq!(h.get(r).unwrap(), b"xyz");
    }

    #[test]
    fn reopen_preserves_contents() {
        let pool = Arc::new(BufferPool::new(8));
        let file = pool.register_file(Box::new(MemStorage::new()));
        let rid;
        {
            let h = HeapFile::create(pool.clone(), file).unwrap();
            rid = h.insert(b"persist me").unwrap();
        }
        let h = HeapFile::open(pool, file).unwrap();
        assert_eq!(h.get(rid).unwrap(), b"persist me");
        assert_eq!(h.len().unwrap(), 1);
    }

    #[test]
    fn open_rejects_non_heap() {
        let pool = Arc::new(BufferPool::new(8));
        let file = pool.register_file(Box::new(MemStorage::new()));
        assert!(HeapFile::open(pool.clone(), file).is_err()); // empty
        pool.allocate_page(file).unwrap();
        assert!(HeapFile::open(pool, file).is_err()); // bad magic
    }

    #[test]
    fn dangling_rids_rejected() {
        let h = heap();
        let bogus = Rid {
            page: PageId(0),
            slot: SlotId(0),
        };
        assert!(h.get(bogus).is_err(), "header page is not addressable");
        let bogus2 = Rid {
            page: PageId(99),
            slot: SlotId(0),
        };
        assert!(h.get(bogus2).is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let h = heap();
        let huge = vec![0u8; crate::page::PAGE_SIZE];
        assert!(h.insert(&huge).is_err());
    }
}
