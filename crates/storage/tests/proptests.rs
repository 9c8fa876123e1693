//! Property-based tests for the storage substrate.
//!
//! These exercise the invariants that the unit tests only spot-check:
//! codec roundtrips over arbitrary tuples, slotted pages under arbitrary
//! op sequences, heap files behaving like an in-memory map from rid to
//! bytes regardless of page boundaries or buffer pool pressure, and B+-tree
//! range scans agreeing with a filtered full scan.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use wsq_common::{Column, DataType, Schema, Tuple, Value};
use wsq_storage::btree::BTree;
use wsq_storage::buffer::BufferPool;
use wsq_storage::codec::{decode, encode};
use wsq_storage::disk::MemStorage;
use wsq_storage::heap::HeapFile;
use wsq_storage::page::PAGE_SIZE;
use wsq_storage::slotted;

fn arb_value(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Int => prop_oneof![Just(Value::Null), any::<i64>().prop_map(Value::Int)].boxed(),
        DataType::Float => prop_oneof![
            Just(Value::Null),
            any::<f64>()
                .prop_filter("no NaN (Eq)", |f| !f.is_nan())
                .prop_map(Value::Float)
        ]
        .boxed(),
        DataType::Varchar => {
            prop_oneof![Just(Value::Null), ".{0,64}".prop_map(Value::from)].boxed()
        }
    }
}

fn arb_schema_and_tuple() -> impl Strategy<Value = (Schema, Tuple)> {
    prop::collection::vec(
        prop_oneof![
            Just(DataType::Int),
            Just(DataType::Float),
            Just(DataType::Varchar)
        ],
        0..10,
    )
    .prop_flat_map(|dtypes| {
        let schema = Schema::new(
            dtypes
                .iter()
                .enumerate()
                .map(|(i, dt)| Column::new(format!("c{i}"), *dt))
                .collect(),
        );
        let values: Vec<BoxedStrategy<Value>> = dtypes.iter().map(|dt| arb_value(*dt)).collect();
        (Just(schema), values).prop_map(|(s, v)| (s, Tuple::new(v)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrips((schema, tuple) in arb_schema_and_tuple()) {
        let bytes = encode(&schema, &tuple).unwrap();
        let back = decode(&schema, &bytes).unwrap();
        prop_assert_eq!(back, tuple);
    }

    #[test]
    fn codec_rejects_any_truncation((schema, tuple) in arb_schema_and_tuple()) {
        let bytes = encode(&schema, &tuple).unwrap();
        if !bytes.is_empty() {
            // Any strict prefix must fail to decode (no silent partial reads).
            let cut = bytes.len() - 1;
            prop_assert!(decode(&schema, &bytes[..cut]).is_err());
        }
    }
}

/// Operations applied to a slotted page in the model-based test.
#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
}

fn arb_page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..300).prop_map(PageOp::Insert),
        (0..64usize).prop_map(PageOp::Delete),
        (0..64usize, prop::collection::vec(any::<u8>(), 0..300))
            .prop_map(|(i, r)| PageOp::Update(i, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Model-based test: a slotted page behaves like a map slot→bytes.
    #[test]
    fn slotted_page_matches_model(ops in prop::collection::vec(arb_page_op(), 1..80)) {
        let mut page = vec![0u8; PAGE_SIZE];
        slotted::init(&mut page);
        let mut model: HashMap<slotted::SlotId, Vec<u8>> = HashMap::new();
        let mut live: Vec<slotted::SlotId> = Vec::new();

        for op in ops {
            match op {
                PageOp::Insert(rec) => {
                    if let Some(slot) = slotted::insert(&mut page, &rec) {
                        prop_assert!(!model.contains_key(&slot), "slot reuse of live slot");
                        model.insert(slot, rec);
                        live.push(slot);
                    } else {
                        // Page refused: the record genuinely must not fit.
                        prop_assert!(!slotted::fits(&page, rec.len()));
                    }
                }
                PageOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let slot = live.remove(i % live.len());
                    prop_assert!(slotted::delete(&mut page, slot));
                    model.remove(&slot);
                }
                PageOp::Update(i, rec) => {
                    if live.is_empty() { continue; }
                    let slot = live[i % live.len()];
                    match slotted::update(&mut page, slot, &rec) {
                        Ok(true) => { model.insert(slot, rec); }
                        Ok(false) => prop_assert!(false, "live slot reported missing"),
                        Err(_) => { /* legitimately didn't fit; must be unchanged */ }
                    }
                }
            }
            // Model equivalence after every op.
            for (slot, rec) in &model {
                prop_assert_eq!(slotted::get(&page, *slot), Some(rec.as_slice()));
            }
            prop_assert_eq!(slotted::iter(&page).count(), model.len());
        }
    }
}

/// Operations applied to a heap file in the model-based test.
#[derive(Debug, Clone)]
enum HeapOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
}

fn arb_heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 0..600).prop_map(HeapOp::Insert),
        1 => (0..256usize).prop_map(HeapOp::Delete),
        1 => (0..256usize, prop::collection::vec(any::<u8>(), 0..600))
            .prop_map(|(i, r)| HeapOp::Update(i, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A heap file under a tiny buffer pool (forcing constant eviction)
    /// behaves like a map rid→bytes, and scans see exactly the live set.
    #[test]
    fn heap_file_matches_model(ops in prop::collection::vec(arb_heap_op(), 1..120)) {
        let pool = Arc::new(BufferPool::new(2)); // brutal eviction pressure
        let file = pool.register_file(Box::new(MemStorage::new()));
        let heap = HeapFile::create(pool, file).unwrap();
        let mut model: HashMap<wsq_storage::Rid, Vec<u8>> = HashMap::new();
        let mut live: Vec<wsq_storage::Rid> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Insert(rec) => {
                    let rid = heap.insert(&rec).unwrap();
                    prop_assert!(!model.contains_key(&rid));
                    model.insert(rid, rec);
                    live.push(rid);
                }
                HeapOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let rid = live.remove(i % live.len());
                    heap.delete(rid).unwrap();
                    model.remove(&rid);
                }
                HeapOp::Update(i, rec) => {
                    if live.is_empty() { continue; }
                    let idx = i % live.len();
                    let rid = live[idx];
                    let new_rid = heap.update(rid, &rec).unwrap();
                    model.remove(&rid);
                    prop_assert!(!model.contains_key(&new_rid));
                    model.insert(new_rid, rec);
                    live[idx] = new_rid;
                }
            }
        }
        // Point lookups agree with the model.
        for (rid, rec) in &model {
            prop_assert_eq!(&heap.get(*rid).unwrap(), rec);
        }
        // The scan sees exactly the live records.
        let mut scanned: Vec<(wsq_storage::Rid, Vec<u8>)> =
            heap.scan().map(|r| r.unwrap()).collect();
        scanned.sort_by_key(|(rid, _)| *rid);
        let mut expect: Vec<(wsq_storage::Rid, Vec<u8>)> =
            model.into_iter().collect();
        expect.sort_by_key(|(rid, _)| *rid);
        prop_assert_eq!(scanned, expect);
        prop_assert_eq!(heap.len().unwrap() as usize, live.len());
    }
}

/// Short keys over a three-letter alphabet: plenty of duplicates, prefixes
/// of one another, and the empty key.
fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `scan_range(lo, hi)` visits exactly the entries of `scan_all` with
    /// `lo <= key <= hi`, in the same order — for duplicate keys, ranges
    /// that match nothing and inverted ranges, on a tree deep enough that
    /// ranges start and end inside leaves — and still does after deletes.
    #[test]
    fn range_scan_is_a_filtered_full_scan(
        keys in prop::collection::vec(arb_key(), 0..1600),
        pad in 0usize..120,
        deletes in prop::collection::vec(0usize..1600, 0..120),
        ranges in prop::collection::vec((arb_key(), arb_key()), 1..12),
    ) {
        let pool = Arc::new(BufferPool::new(8));
        let file = pool.register_file(Box::new(MemStorage::new()));
        let tree = BTree::create(pool, file).unwrap();
        // Padding the keys varies the fan-out (hence the height) by case.
        let padded = |key: &[u8]| -> Vec<u8> {
            key.iter().copied().chain(std::iter::repeat_n(b'.', pad)).collect()
        };
        let rid = |n: usize| wsq_storage::Rid {
            page: wsq_storage::page::PageId(n as u32 / 50 + 1),
            slot: slotted::SlotId((n % 50) as u16),
        };
        for (n, key) in keys.iter().enumerate() {
            tree.insert(&padded(key), rid(n)).unwrap();
        }
        let mut live = keys.len();
        for n in deletes {
            if n < keys.len() {
                // The first delete of an entry finds it, a repeat does not.
                let first = tree.delete(&padded(&keys[n]), rid(n)).unwrap();
                live -= usize::from(first);
                prop_assert!(!tree.delete(&padded(&keys[n]), rid(n)).unwrap());
            }
        }
        let mut all: Vec<(Vec<u8>, wsq_storage::Rid)> = Vec::new();
        tree.scan_all(|k, r| all.push((k.to_vec(), r))).unwrap();
        prop_assert_eq!(all.len(), live);
        prop_assert!(all.windows(2).all(|w| w[0].0 <= w[1].0), "scan_all is key-ordered");
        for (lo, hi) in ranges {
            // An unpadded bound sorts below every padded key it prefixes.
            let (lo, hi) = (lo, padded(&hi));
            let mut got: Vec<(Vec<u8>, wsq_storage::Rid)> = Vec::new();
            tree.scan_range(&lo, &hi, |k, r| got.push((k.to_vec(), r))).unwrap();
            let want: Vec<(Vec<u8>, wsq_storage::Rid)> = all
                .iter()
                .filter(|(k, _)| lo <= *k && *k <= hi)
                .cloned()
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
