//! Differential test of the access-path chooser: *an index never changes
//! an answer*. Two databases hold the same random table, one with B+-tree
//! indexes on both key columns and one without; every SELECT must return
//! the same rows in the same order, every UPDATE and DELETE must affect
//! the same number of rows and leave the same table behind, and after the
//! writes each index must still hold exactly the heap's `(key, rid)`s.
//!
//! The table and the predicates aim at what makes a key range differ from
//! the predicate it was read from: NULL keys and NULL literals, negative
//! numbers (the parser reads `-3` as a negation), integers beyond 2^53
//! (index keys go through `f64`), duplicate keys, exclusive bounds,
//! contradictory ranges, literals of the wrong type class, and UPDATEs
//! that move the very key their range scans.

use proptest::prelude::*;
use std::sync::Arc;
use wsq_engine::db::{Database, QueryOptions, StatementResult};
use wsq_engine::engines::EngineRegistry;
use wsq_engine::exec::TableSource;
use wsq_pump::{PumpConfig, ReqPump};
use wsq_storage::codec;

const BIG: i64 = 1 << 53;

/// `K`'s domain as SQL literals: small values (duplicates are likely),
/// negatives, the neighbourhood of 2^53 where several integers share one
/// index key, and NULL.
fn arb_int_key() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => (-3i64..7).prop_map(|k| k.to_string()),
        3 => (-2i64..4).prop_map(|d| (BIG + d).to_string()),
        1 => Just((-BIG - 1).to_string()),
        1 => Just("NULL".to_string()),
    ]
}

/// `S`'s domain: short strings that prefix one another, the empty string,
/// NULL.
fn arb_str_key() -> impl Strategy<Value = String> {
    prop_oneof![
        5 => prop_oneof![Just("''"), Just("'a'"), Just("'ab'"), Just("'b'"), Just("'c'")]
            .prop_map(str::to_string),
        1 => Just("NULL".to_string()),
    ]
}

/// A literal to compare a key column with: mostly of the column's own
/// domain, sometimes a float, sometimes of the wrong type class.
fn arb_literal(int_column: bool) -> BoxedStrategy<String> {
    let own = if int_column {
        arb_int_key().boxed()
    } else {
        arb_str_key().boxed()
    };
    let other = if int_column {
        arb_str_key().boxed()
    } else {
        arb_int_key().boxed()
    };
    let float = prop_oneof![
        Just("2.5"),
        Just("-0.5"),
        Just("9007199254740992.0"),
        Just("-0.0")
    ]
    .prop_map(str::to_string);
    prop_oneof![8 => own, 1 => float, 1 => other].boxed()
}

/// One conjunct over `K` or `S`: a comparison in either operand order, or
/// a BETWEEN.
fn arb_conjunct() -> impl Strategy<Value = String> {
    any::<bool>().prop_flat_map(|int_column| {
        let col = if int_column { "K" } else { "S" };
        let cmp = (
            prop_oneof![Just("="), Just("<"), Just("<="), Just(">"), Just(">=")],
            arb_literal(int_column),
            any::<bool>(),
        )
            .prop_map(move |(op, lit, flipped)| {
                if flipped {
                    format!("{lit} {op} {col}")
                } else {
                    format!("{col} {op} {lit}")
                }
            });
        let between = (arb_literal(int_column), arb_literal(int_column))
            .prop_map(move |(lo, hi)| format!("{col} BETWEEN {lo} AND {hi}"));
        prop_oneof![4 => cmp, 1 => between]
    })
}

/// A WHERE clause: one to three conjuncts, so ranges intersect, contradict
/// one another, and mix both indexed columns.
fn arb_where() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_conjunct(), 1..4).prop_map(|c| c.join(" AND "))
}

#[derive(Debug, Clone)]
enum Step {
    Select(String),
    Delete(String),
    /// `UPDATE T SET <assignment> WHERE <predicate>`.
    Update(&'static str, String),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let assignment = prop_oneof![
        // Moves the key forward, into and past the range being scanned.
        Just("K = K + 2"),
        Just("K = 4"),
        Just("K = 9007199254740993"),
        Just("K = NULL"),
        Just("S = S + 'b'"),
        Just("S = 'a'"),
        Just("V = V + 1000"),
    ];
    prop_oneof![
        3 => arb_where().prop_map(Step::Select),
        1 => arb_where().prop_map(Step::Delete),
        2 => (assignment, arb_where()).prop_map(|(set, w)| Step::Update(set, w)),
    ]
}

struct Side {
    db: Database,
    engines: EngineRegistry,
    pump: Arc<ReqPump>,
}

impl Side {
    fn new(rows: &[(String, String)], indexed: bool) -> Side {
        let mut side = Side {
            db: Database::open_in_memory().unwrap(),
            engines: EngineRegistry::new(),
            pump: ReqPump::new(PumpConfig::default()),
        };
        side.run("CREATE TABLE T (K INT, S VARCHAR(8), V INT)")
            .unwrap();
        for (v, (k, s)) in rows.iter().enumerate() {
            side.run(&format!("INSERT INTO T VALUES ({k}, {s}, {v})"))
                .unwrap();
        }
        if indexed {
            side.run("CREATE INDEX ON T (K); CREATE INDEX ON T (S)")
                .unwrap();
        }
        side
    }

    /// The statement's outcome, rendered: rows in order, an affected
    /// count, or the error.
    fn run(&mut self, sql: &str) -> Result<String, String> {
        let results = self
            .db
            .run_sql(sql, &self.engines, &self.pump, QueryOptions::default())
            .map_err(|e| e.to_string())?;
        Ok(match results.last() {
            Some(StatementResult::Rows(r)) => r
                .rows
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(" "),
            Some(StatementResult::Affected(n)) => format!("affected {n}"),
            None => String::new(),
        })
    }

    /// The index on `column` must hold exactly one `(key, rid)` per heap
    /// row.
    fn index_agrees_with_heap(&self, column: &str) -> Result<(), String> {
        let (heap, schema) = self.db.table("T").map_err(|e| e.to_string())?;
        let col = schema.resolve(None, column).map_err(|e| e.to_string())?;
        let mut want = Vec::new();
        for rec in heap.scan() {
            let (rid, bytes) = rec.map_err(|e| e.to_string())?;
            let tuple = codec::decode(&schema, &bytes).map_err(|e| e.to_string())?;
            want.push((codec::encode_key(tuple.get(col)).unwrap(), rid));
        }
        want.sort();
        let tree = self.db.index("T", column).ok_or("index missing")?;
        let mut got = Vec::new();
        tree.scan_all(|k, rid| got.push((k.to_vec(), rid)))
            .map_err(|e| e.to_string())?;
        got.sort();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "index on {column} holds {} entries, heap {} rows (or their keys differ)",
                got.len(),
                want.len()
            ))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn an_index_never_changes_an_answer(
        rows in prop::collection::vec((arb_int_key(), arb_str_key()), 0..40),
        steps in prop::collection::vec(arb_step(), 1..10),
    ) {
        let mut plain = Side::new(&rows, false);
        let mut indexed = Side::new(&rows, true);
        for step in steps {
            let sql = match &step {
                Step::Select(w) => format!("SELECT K, S, V FROM T WHERE {w}"),
                Step::Delete(w) => format!("DELETE FROM T WHERE {w}"),
                Step::Update(set, w) => format!("UPDATE T SET {set} WHERE {w}"),
            };
            prop_assert_eq!(indexed.run(&sql), plain.run(&sql), "{}", sql);
            if !matches!(step, Step::Select(_)) {
                let all = "SELECT K, S, V FROM T";
                prop_assert_eq!(indexed.run(all), plain.run(all), "the table after {}", sql);
                for column in ["K", "S"] {
                    if let Err(e) = indexed.index_agrees_with_heap(column) {
                        prop_assert!(false, "after {}: {}", sql, e);
                    }
                }
            }
        }
    }
}

/// The differential above only bites if the indexed side really takes the
/// index: most of its WHERE clauses must plan an `IndexScan`.
#[test]
fn the_generated_predicates_do_reach_the_index() {
    let indexed = Side::new(&[("1".into(), "'a'".into())], true);
    let mut rng = proptest::test_runner::TestRng::deterministic("reach");
    let (mut index_scans, total) = (0, 200);
    for _ in 0..total {
        let w = arb_where().generate(&mut rng);
        let plan = indexed
            .db
            .explain(
                &format!("SELECT V FROM T WHERE {w}"),
                &indexed.engines,
                QueryOptions::default(),
            )
            .unwrap();
        index_scans += usize::from(plan.contains("IndexScan"));
    }
    assert!(
        index_scans * 10 >= total * 7,
        "only {index_scans} of {total} generated predicates use an index"
    );
}
