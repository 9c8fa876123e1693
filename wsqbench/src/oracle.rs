//! Result checking. Asynchronous iteration emits rows in completion
//! order, so results are compared as multisets: an order-insensitive
//! checksum plus the row count.

use wsq_common::{Tuple, Value};

/// What a correct answer looks like, as far as the benchmark checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expected {
    pub rows: u64,
    pub checksum: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => 0x6e75_6c6c,
        Value::Int(i) => mix(*i as u64 ^ 0x01),
        Value::Float(f) => mix(f.to_bits() ^ 0x02),
        // FNV-1a over the bytes.
        Value::Str(s) => mix(s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })),
        // An unpatched placeholder in a result is a wrong result; give
        // it a hash no reference row has.
        Value::Pending(_) => 0xdead_beef_dead_beef,
    }
}

fn hash_row(row: &Tuple) -> u64 {
    // Position-sensitive within a row, so (a, b) and (b, a) differ.
    row.values().iter().fold(0x9E37_79B9_7F4A_7C15, |h, v| {
        mix(h.rotate_left(7) ^ hash_value(v))
    })
}

impl Expected {
    /// Fold one more row in (rows may arrive in any order).
    pub fn add(&mut self, row: &Tuple) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(hash_row(row));
    }
}

/// Row count and order-insensitive checksum of a result.
pub fn summarize<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Expected {
    let mut out = Expected::default();
    rows.into_iter().for_each(|row| out.add(row));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = row(vec![Value::from("Utah"), Value::Int(3)]);
        let b = row(vec![Value::from("Ohio"), Value::Int(9)]);
        let ab = summarize([&a, &b]);
        assert_eq!(ab, summarize([&b, &a]));
        assert_eq!(ab.rows, 2);
        let b2 = row(vec![Value::from("Ohio"), Value::Int(8)]);
        assert_ne!(ab, summarize([&a, &b2]));
        // Duplicates count: {a, a} is not {a}.
        assert_ne!(summarize([&a, &a]).checksum, summarize([&a]).checksum);
        // Column order within a row matters.
        let swapped = row(vec![Value::Int(3), Value::from("Utah")]);
        assert_ne!(summarize([&a]), summarize([&swapped]));
    }
}
