//! Slotted-page record layout.
//!
//! Classic textbook layout over a 4 KiB page:
//!
//! ```text
//! +--------+-----------------+...free space...+-----------+-----------+
//! | header | slot directory →                 ← record N  | record 0  |
//! +--------+-----------------+----------------+-----------+-----------+
//! ```
//!
//! * Header (6 bytes): `slot_count: u16`, `record_start: u16` (lowest byte
//!   offset occupied by record data), 2 reserved bytes.
//! * Slot `i` (4 bytes at `6 + 4*i`): `offset: u16`, `len: u16`. A deleted
//!   slot is a *tombstone* (`offset == 0xFFFF`) and may be reused.
//! * Records grow from the end of the page toward the slot directory.
//!
//! Deletion leaves holes; [`insert`] compacts the page when total free
//! space suffices but contiguous space does not. Slot ids are stable across
//! compaction (record ids must survive reorganization).

use wsq_common::{Result, WsqError};

/// Byte offset marking a tombstoned slot.
const TOMBSTONE: u16 = 0xFFFF;
/// Header size in bytes.
const HEADER: usize = 6;
/// Bytes per slot directory entry.
const SLOT: usize = 4;

/// A record's slot index within its page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u16);

/// Largest record a page can hold (one slot, empty directory otherwise).
pub fn max_record_len(page_size: usize) -> usize {
    page_size - HEADER - SLOT
}

fn read_u16(page: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([page[at], page[at + 1]])
}

fn write_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Number of slots (live + tombstoned) in the directory.
pub fn slot_count(page: &[u8]) -> u16 {
    read_u16(page, 0)
}

fn record_start(page: &[u8]) -> usize {
    let rs = read_u16(page, 2) as usize;
    // A freshly zeroed page reads 0; treat it as an empty, initialized page.
    if rs == 0 {
        page.len()
    } else {
        rs
    }
}

fn set_slot(page: &mut [u8], slot: u16, offset: u16, len: u16) {
    let at = HEADER + SLOT * slot as usize;
    write_u16(page, at, offset);
    write_u16(page, at + 2, len);
}

fn slot_entry(page: &[u8], slot: u16) -> (u16, u16) {
    let at = HEADER + SLOT * slot as usize;
    (read_u16(page, at), read_u16(page, at + 2))
}

/// Initialize an empty slotted page (idempotent on zeroed pages).
pub fn init(page: &mut [u8]) {
    let len = page.len() as u16;
    write_u16(page, 0, 0);
    write_u16(page, 2, len);
}

/// Total reclaimable free bytes (after compaction), *excluding* the cost of
/// a new slot entry.
pub fn total_free(page: &[u8]) -> usize {
    let n = slot_count(page);
    let live: usize = (0..n)
        .map(|i| {
            let (off, len) = slot_entry(page, i);
            if off == TOMBSTONE {
                0
            } else {
                len as usize
            }
        })
        .sum();
    page.len() - HEADER - SLOT * n as usize - live
}

/// Would a record of `len` bytes fit in this page (possibly after
/// compaction and/or tombstone reuse)?
pub fn fits(page: &[u8], len: usize) -> bool {
    let has_tombstone = (0..slot_count(page)).any(|i| slot_entry(page, i).0 == TOMBSTONE);
    let need = if has_tombstone { len } else { len + SLOT };
    total_free(page) >= need
}

/// Insert a record, compacting if needed. Returns `None` if it cannot fit.
pub fn insert(page: &mut [u8], rec: &[u8]) -> Option<SlotId> {
    if rec.len() > max_record_len(page.len()) || !fits(page, rec.len()) {
        return None;
    }
    // Reuse the first tombstone slot, else append a new slot.
    let n = slot_count(page);
    let slot = (0..n)
        .find(|&i| slot_entry(page, i).0 == TOMBSTONE)
        .unwrap_or(n);
    let need_dir = if slot == n { SLOT } else { 0 };
    let dir_end = HEADER + SLOT * n as usize + need_dir;
    if record_start(page).saturating_sub(dir_end) < rec.len() {
        compact(page);
    }
    debug_assert!(record_start(page) - dir_end >= rec.len());

    let new_start = record_start(page) - rec.len();
    page[new_start..new_start + rec.len()].copy_from_slice(rec);
    write_u16(page, 2, new_start as u16);
    if slot == n {
        write_u16(page, 0, n + 1);
    }
    set_slot(page, slot, new_start as u16, rec.len() as u16);
    Some(SlotId(slot))
}

/// Read a record. `None` for out-of-range or tombstoned slots.
pub fn get(page: &[u8], slot: SlotId) -> Option<&[u8]> {
    if slot.0 >= slot_count(page) {
        return None;
    }
    let (off, len) = slot_entry(page, slot.0);
    if off == TOMBSTONE {
        return None;
    }
    Some(&page[off as usize..off as usize + len as usize])
}

/// Delete a record, leaving a tombstone. Returns `false` if already absent.
pub fn delete(page: &mut [u8], slot: SlotId) -> bool {
    if slot.0 >= slot_count(page) {
        return false;
    }
    let (off, _) = slot_entry(page, slot.0);
    if off == TOMBSTONE {
        return false;
    }
    set_slot(page, slot.0, TOMBSTONE, 0);
    true
}

/// Update a record in place. Fails (returning `false`, page unchanged) if
/// the slot is absent or the new record cannot fit even after compaction.
pub fn update(page: &mut [u8], slot: SlotId, rec: &[u8]) -> Result<bool> {
    if slot.0 >= slot_count(page) {
        return Ok(false);
    }
    let (off, len) = slot_entry(page, slot.0);
    if off == TOMBSTONE {
        return Ok(false);
    }
    if rec.len() <= len as usize {
        // Shrinking or same-size: overwrite in place. The leftover bytes
        // become internal fragmentation reclaimed by the next compaction.
        let off = off as usize;
        page[off..off + rec.len()].copy_from_slice(rec);
        set_slot(page, slot.0, off as u16, rec.len() as u16);
        return Ok(true);
    }
    // Growing: free the old copy, then re-insert into the same slot.
    let extra = rec.len() - len as usize;
    if total_free(page) < extra {
        return Err(WsqError::Storage(
            "record update does not fit in page".to_string(),
        ));
    }
    set_slot(page, slot.0, TOMBSTONE, 0);
    compact(page);
    let new_start = record_start(page) - rec.len();
    page[new_start..new_start + rec.len()].copy_from_slice(rec);
    write_u16(page, 2, new_start as u16);
    set_slot(page, slot.0, new_start as u16, rec.len() as u16);
    Ok(true)
}

/// Move all live records to the end of the page, squeezing out holes.
/// Slot ids are preserved.
pub fn compact(page: &mut [u8]) {
    let n = slot_count(page);
    // Collect live entries ordered by descending offset so we can repack
    // from the page end without overlapping copies.
    let mut live: Vec<(u16, u16, u16)> = (0..n)
        .filter_map(|i| {
            let (off, len) = slot_entry(page, i);
            (off != TOMBSTONE).then_some((i, off, len))
        })
        .collect();
    live.sort_by_key(|entry| std::cmp::Reverse(entry.1));

    let mut dest = page.len();
    for (slot, off, len) in live {
        let len_us = len as usize;
        dest -= len_us;
        page.copy_within(off as usize..off as usize + len_us, dest);
        set_slot(page, slot, dest as u16, len);
    }
    write_u16(page, 2, dest as u16);
}

/// Iterate live `(SlotId, record bytes)` pairs in slot order.
pub fn iter(page: &[u8]) -> impl Iterator<Item = (SlotId, &[u8])> {
    (0..slot_count(page)).filter_map(move |i| {
        let (off, len) = slot_entry(page, i);
        (off != TOMBSTONE).then(|| (SlotId(i), &page[off as usize..off as usize + len as usize]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn fresh() -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        init(&mut p);
        p
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = fresh();
        let a = insert(&mut p, b"hello").unwrap();
        let b = insert(&mut p, b"world!").unwrap();
        assert_eq!(get(&p, a).unwrap(), b"hello");
        assert_eq!(get(&p, b).unwrap(), b"world!");
        assert_eq!(slot_count(&p), 2);
    }

    #[test]
    fn zeroed_page_is_a_valid_empty_page() {
        let p = vec![0u8; PAGE_SIZE];
        assert_eq!(slot_count(&p), 0);
        assert_eq!(iter(&p).count(), 0);
        let mut p = p;
        assert!(insert(&mut p, b"x").is_some());
    }

    #[test]
    fn delete_leaves_tombstone_and_slot_is_reused() {
        let mut p = fresh();
        let a = insert(&mut p, b"aaa").unwrap();
        let _b = insert(&mut p, b"bbb").unwrap();
        assert!(delete(&mut p, a));
        assert!(get(&p, a).is_none());
        assert!(!delete(&mut p, a)); // double delete
        let c = insert(&mut p, b"ccc").unwrap();
        assert_eq!(c, a, "tombstoned slot should be reused");
        assert_eq!(slot_count(&p), 2);
    }

    #[test]
    fn empty_records_are_allowed() {
        let mut p = fresh();
        let s = insert(&mut p, b"").unwrap();
        assert_eq!(get(&p, s).unwrap(), b"");
    }

    #[test]
    fn fills_page_and_rejects_overflow() {
        let mut p = fresh();
        let rec = vec![7u8; 100];
        let mut n = 0;
        while insert(&mut p, &rec).is_some() {
            n += 1;
        }
        // 4096 - 6 = 4090 usable; each record costs 104.
        assert_eq!(n, 4090 / 104);
        assert!(insert(&mut p, &rec).is_none());
        // But a small record still fits in the tail.
        assert!(insert(&mut p, &[1u8; 10]).is_some());
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut p = fresh();
        let rec = vec![1u8; max_record_len(PAGE_SIZE)];
        assert!(insert(&mut p, &rec).is_some());
        assert!(insert(&mut p, b"").is_none()); // even a 0-byte rec needs a slot
        let too_big = vec![1u8; max_record_len(PAGE_SIZE) + 1];
        let mut p2 = fresh();
        assert!(insert(&mut p2, &too_big).is_none());
    }

    #[test]
    fn compaction_reclaims_holes() {
        let mut p = fresh();
        let ids: Vec<SlotId> = (0..10)
            .map(|_| insert(&mut p, &[9u8; 300]).unwrap())
            .collect();
        // Free every other record: total free is large but fragmented.
        for id in ids.iter().step_by(2) {
            delete(&mut p, *id);
        }
        // 5 * 300 = 1500 freed, contiguous hole is at most ~1090+300.
        let big = vec![3u8; 1400];
        let s = insert(&mut p, &big).expect("should fit after compaction");
        assert_eq!(get(&p, s).unwrap(), &big[..]);
        // Survivors intact.
        for id in ids.iter().skip(1).step_by(2) {
            assert_eq!(get(&p, *id).unwrap(), &[9u8; 300][..]);
        }
    }

    #[test]
    fn update_in_place_and_growing() {
        let mut p = fresh();
        let s = insert(&mut p, b"0123456789").unwrap();
        // Shrink in place.
        assert!(update(&mut p, s, b"abc").unwrap());
        assert_eq!(get(&p, s).unwrap(), b"abc");
        // Grow.
        let big = vec![5u8; 500];
        assert!(update(&mut p, s, &big).unwrap());
        assert_eq!(get(&p, s).unwrap(), &big[..]);
        // Grow beyond capacity fails cleanly.
        let huge = vec![5u8; PAGE_SIZE];
        assert!(update(&mut p, s, &huge).is_err());
        assert_eq!(
            get(&p, s).unwrap(),
            &big[..],
            "failed update left data intact"
        );
    }

    #[test]
    fn update_missing_slot_returns_false() {
        let mut p = fresh();
        assert!(!update(&mut p, SlotId(0), b"x").unwrap());
        let s = insert(&mut p, b"y").unwrap();
        delete(&mut p, s);
        assert!(!update(&mut p, s, b"x").unwrap());
    }

    #[test]
    fn iter_skips_tombstones_in_slot_order() {
        let mut p = fresh();
        let a = insert(&mut p, b"a").unwrap();
        let b = insert(&mut p, b"b").unwrap();
        let c = insert(&mut p, b"c").unwrap();
        delete(&mut p, b);
        let got: Vec<(SlotId, Vec<u8>)> = iter(&p).map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(got, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    #[test]
    fn free_space_accounting() {
        let mut p = fresh();
        let before = total_free(&p);
        assert_eq!(before, PAGE_SIZE - HEADER);
        let s = insert(&mut p, &[0u8; 100]).unwrap();
        assert_eq!(total_free(&p), before - 100 - SLOT);
        delete(&mut p, s);
        // The slot entry remains allocated after delete.
        assert_eq!(total_free(&p), before - SLOT);
    }
}
