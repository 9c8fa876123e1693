//! DML (DELETE / UPDATE) and B+-tree index integration tests.

use std::sync::Arc;
use wsq_engine::db::{Database, QueryOptions, StatementResult};
use wsq_engine::engines::EngineRegistry;
use wsq_pump::{PumpConfig, ReqPump};

struct H {
    db: Database,
    engines: EngineRegistry,
    pump: Arc<ReqPump>,
}

fn h() -> H {
    H {
        db: Database::open_in_memory().unwrap(),
        engines: EngineRegistry::new(),
        pump: ReqPump::new(PumpConfig::default()),
    }
}

impl H {
    fn run(&mut self, sql: &str) -> Vec<StatementResult> {
        self.db
            .run_sql(sql, &self.engines, &self.pump, QueryOptions::default())
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    fn rows(&mut self, sql: &str) -> Vec<String> {
        match self.run(sql).remove(0) {
            StatementResult::Rows(r) => r.rows.iter().map(|t| t.to_string()).collect(),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn affected(&mut self, sql: &str) -> usize {
        match self.run(sql).remove(0) {
            StatementResult::Affected(n) => n,
            other => panic!("expected affected count, got {other:?}"),
        }
    }

    fn setup_people(&mut self) {
        self.run(
            "CREATE TABLE People (Name VARCHAR(32), Age INT, City VARCHAR(32));\
             INSERT INTO People VALUES \
             ('Ann', 30, 'Denver'), ('Bob', 41, 'Boston'), ('Cy', 30, 'Denver'),\
             ('Dee', 25, 'Austin'), ('Eli', 41, 'Denver')",
        );
    }
}

#[test]
fn delete_with_and_without_predicate() {
    let mut t = h();
    t.setup_people();
    assert_eq!(t.affected("DELETE FROM People WHERE Age = 30"), 2);
    assert_eq!(
        t.rows("SELECT Name FROM People ORDER BY Name"),
        vec!["<Bob>", "<Dee>", "<Eli>"]
    );
    assert_eq!(t.affected("DELETE FROM People"), 3);
    assert_eq!(t.rows("SELECT COUNT(*) FROM People"), vec!["<0>"]);
}

#[test]
fn update_values_and_expressions() {
    let mut t = h();
    t.setup_people();
    assert_eq!(
        t.affected("UPDATE People SET Age = Age + 1 WHERE City = 'Denver'"),
        3
    );
    assert_eq!(
        t.rows("SELECT Name, Age FROM People WHERE City = 'Denver' ORDER BY Name"),
        vec!["<Ann, 31>", "<Cy, 31>", "<Eli, 42>"]
    );
    // Multi-column SET; expressions see the OLD row.
    assert_eq!(
        t.affected("UPDATE People SET City = 'Moved', Age = Age * 2 WHERE Name = 'Dee'"),
        1
    );
    assert_eq!(
        t.rows("SELECT Age, City FROM People WHERE Name = 'Dee'"),
        vec!["<50, Moved>"]
    );
}

#[test]
fn update_type_errors_are_rejected() {
    let mut t = h();
    t.setup_people();
    let err =
        t.db.run_sql(
            "UPDATE People SET Age = 'old'",
            &t.engines,
            &t.pump,
            QueryOptions::default(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("is not INT"), "{err}");
    // Unknown column.
    assert!(t
        .db
        .run_sql(
            "UPDATE People SET Nope = 1",
            &t.engines,
            &t.pump,
            QueryOptions::default()
        )
        .is_err());
}

#[test]
fn index_scan_is_chosen_and_correct() {
    let mut t = h();
    t.setup_people();
    t.run("CREATE INDEX ON People (City)");

    let opts = QueryOptions::default();
    let plan =
        t.db.explain(
            "SELECT Name FROM People WHERE City = 'Denver'",
            &t.engines,
            opts,
        )
        .unwrap();
    // The index narrows, the filter decides: the conjunct the range was
    // read from stays above the scan.
    assert!(
        plan.contains("  Select: (City = 'Denver')\n    IndexScan: People (City = 'Denver')\n"),
        "{plan}"
    );

    let mut names = t.rows("SELECT Name FROM People WHERE City = 'Denver'");
    names.sort();
    assert_eq!(names, vec!["<Ann>", "<Cy>", "<Eli>"]);

    // Range conjuncts on the indexed column, in either operand order,
    // intersect into one inclusive key range; `<` stays exact through its
    // residual filter.
    let sql = "SELECT Name FROM People WHERE City >= 'B' AND 'D' > City AND Age > 30";
    let plan = t.db.explain(sql, &t.engines, opts).unwrap();
    assert!(
        plan.contains(
            "  Select: (Age > 30)\n    Select: ('D' > City)\n      Select: (City >= 'B')\n        \
             IndexScan: People ('B' <= City <= 'D')\n"
        ),
        "{plan}"
    );
    assert_eq!(t.rows(sql), vec!["<Bob>"]);
    let plan =
        t.db.explain("SELECT Name FROM People WHERE City > 'C'", &t.engines, opts)
            .unwrap();
    assert!(plan.contains("IndexScan: People (City >= 'C')"), "{plan}");
    let sql = "SELECT Name FROM People WHERE City BETWEEN 'Austin' AND 'Boston' ORDER BY Name";
    let plan = t.db.explain(sql, &t.engines, opts).unwrap();
    assert!(
        plan.contains("IndexScan: People ('Austin' <= City <= 'Boston')"),
        "{plan}"
    );
    assert_eq!(t.rows(sql), vec!["<Bob>", "<Dee>"]);
    // A literal of the wrong type class orders by type, not by key, and a
    // NULL matches nothing: neither can narrow the scan.
    for sql in [
        "SELECT Name FROM People WHERE City > 5",
        "SELECT Name FROM People WHERE City = NULL",
    ] {
        let plan = t.db.explain(sql, &t.engines, opts).unwrap();
        assert!(!plan.contains("IndexScan"), "{sql}: {plan}");
    }

    // Non-indexed predicates still use a sequential scan.
    let plan =
        t.db.explain("SELECT Name FROM People WHERE Age = 30", &t.engines, opts)
            .unwrap();
    assert!(plan.contains("Scan: People"), "{plan}");
    assert!(!plan.contains("IndexScan"));
}

#[test]
fn index_is_maintained_by_dml() {
    let mut t = h();
    t.setup_people();
    t.run("CREATE INDEX ON People (City)");

    t.run("INSERT INTO People VALUES ('Fay', 22, 'Denver')");
    t.run("DELETE FROM People WHERE Name = 'Ann'");
    t.run("UPDATE People SET City = 'Boston' WHERE Name = 'Cy'");

    let mut denver = t.rows("SELECT Name FROM People WHERE City = 'Denver'");
    denver.sort();
    assert_eq!(denver, vec!["<Eli>", "<Fay>"]);
    let mut boston = t.rows("SELECT Name FROM People WHERE City = 'Boston'");
    boston.sort();
    assert_eq!(boston, vec!["<Bob>", "<Cy>"]);
}

#[test]
fn index_agrees_with_seq_scan_on_int_keys() {
    let mut t = h();
    t.run("CREATE TABLE Nums (K INT, V VARCHAR(8))");
    let mut values = Vec::new();
    for i in 0..500 {
        values.push(format!("({}, 'v{}')", i % 50, i));
    }
    t.run(&format!("INSERT INTO Nums VALUES {}", values.join(",")));
    let baseline = {
        let mut r = t.rows("SELECT V FROM Nums WHERE K = 17");
        r.sort();
        r
    };
    t.run("CREATE INDEX ON Nums (K)");
    let plan =
        t.db.explain(
            "SELECT V FROM Nums WHERE K = 17",
            &t.engines,
            QueryOptions::default(),
        )
        .unwrap();
    assert!(plan.contains("IndexScan"));
    let mut indexed = t.rows("SELECT V FROM Nums WHERE K = 17");
    indexed.sort();
    assert_eq!(indexed, baseline);
    assert_eq!(indexed.len(), 10);
}

#[test]
fn drop_index_falls_back_to_scan() {
    let mut t = h();
    t.setup_people();
    t.run("CREATE INDEX ON People (City)");
    t.run("DROP INDEX ON People (City)");
    let plan =
        t.db.explain(
            "SELECT Name FROM People WHERE City = 'Denver'",
            &t.engines,
            QueryOptions::default(),
        )
        .unwrap();
    assert!(!plan.contains("IndexScan"));
    assert_eq!(
        t.rows("SELECT COUNT(*) FROM People WHERE City = 'Denver'"),
        vec!["<3>"]
    );
}

#[test]
fn indexes_persist_across_reopen() {
    let dir = tempfile::tempdir().unwrap();
    let engines = EngineRegistry::new();
    let pump = ReqPump::new(PumpConfig::default());
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.run_sql(
            "CREATE TABLE T (K VARCHAR(16), V INT);\
             INSERT INTO T VALUES ('a', 1), ('b', 2), ('a', 3);\
             CREATE INDEX ON T (K)",
            &engines,
            &pump,
            QueryOptions::default(),
        )
        .unwrap();
        db.flush().unwrap();
    }
    let mut db = Database::open(dir.path()).unwrap();
    let plan = db
        .explain(
            "SELECT V FROM T WHERE K = 'a'",
            &engines,
            QueryOptions::default(),
        )
        .unwrap();
    assert!(plan.contains("IndexScan"), "{plan}");
    let results = db
        .run_sql(
            "SELECT V FROM T WHERE K = 'a'",
            &engines,
            &pump,
            QueryOptions::default(),
        )
        .unwrap();
    match &results[0] {
        StatementResult::Rows(r) => assert_eq!(r.rows.len(), 2),
        other => panic!("{other:?}"),
    }
}

#[test]
fn show_tables_and_describe() {
    let mut t = h();
    t.setup_people();
    t.run("CREATE INDEX ON People (City)");
    assert_eq!(t.rows("SHOW TABLES"), vec!["<people>"]);
    let desc = t.rows("DESCRIBE People");
    assert_eq!(
        desc,
        vec!["<Name, VARCHAR, 0>", "<Age, INT, 0>", "<City, VARCHAR, 1>"]
    );
    assert!(t
        .db
        .run_sql(
            "DESCRIBE Nope",
            &t.engines,
            &t.pump,
            QueryOptions::default()
        )
        .is_err());
}

#[test]
fn insert_select_materializes_query_results() {
    let mut t = h();
    t.setup_people();
    t.run("CREATE TABLE Denverites (Name VARCHAR(32), Age INT)");
    assert_eq!(
        t.affected("INSERT INTO Denverites SELECT Name, Age FROM People WHERE City = 'Denver'"),
        3
    );
    assert_eq!(
        t.rows("SELECT Name FROM Denverites ORDER BY Name"),
        vec!["<Ann>", "<Cy>", "<Eli>"]
    );
    // Arity mismatch is rejected; nothing is inserted.
    assert!(t
        .db
        .run_sql(
            "INSERT INTO Denverites SELECT Name FROM People",
            &t.engines,
            &t.pump,
            QueryOptions::default()
        )
        .is_err());
    assert_eq!(t.rows("SELECT COUNT(*) FROM Denverites"), vec!["<3>"]);
    // Type mismatch rejected too.
    assert!(t
        .db
        .run_sql(
            "INSERT INTO Denverites SELECT Age, Age FROM People",
            &t.engines,
            &t.pump,
            QueryOptions::default()
        )
        .is_err());
}

#[test]
fn insert_select_materializes_web_results() {
    use wsq_websim::{CorpusConfig, EngineKind, SimWeb};
    let web = SimWeb::build(CorpusConfig::small());
    let mut t = h();
    t.engines.register("AV", true);
    t.pump
        .register_service("AV", web.engine(EngineKind::AltaVista));
    t.run(
        "CREATE TABLE Places (Name VARCHAR(32));\
         INSERT INTO Places VALUES ('Colorado'), ('Utah');\
         CREATE TABLE WebCache (Term VARCHAR(32), Hits INT)",
    );
    // Materialize live Web counts into a local cache table — the natural
    // WSQ companion to the [HN96]-style result cache.
    assert_eq!(
        t.affected("INSERT INTO WebCache SELECT Name, Count FROM Places, WebCount WHERE Name = T1"),
        2
    );
    let rows = t.rows("SELECT Term FROM WebCache WHERE Hits > 0 ORDER BY Term");
    assert_eq!(rows, vec!["<Colorado>", "<Utah>"]);
}

#[test]
fn index_on_join_column_used_in_wsq_query() {
    // An indexed lookup feeding a dependent join: the WSQ machinery and
    // the index access path compose.
    use wsq_websim::{CorpusConfig, EngineKind, SimWeb};
    let web = SimWeb::build(CorpusConfig::small());
    let mut t = h();
    t.engines.register("AV", true);
    t.pump
        .register_service("AV", web.engine(EngineKind::AltaVista));
    t.run("CREATE TABLE S (Name VARCHAR(32))");
    t.run("INSERT INTO S VALUES ('Colorado'), ('Utah'), ('Texas')");
    t.run("CREATE INDEX ON S (Name)");
    let rows = t.rows("SELECT Name, Count FROM S, WebCount WHERE S.Name = 'Utah' AND Name = T1");
    assert_eq!(rows.len(), 1);
    assert!(rows[0].starts_with("<Utah, "));
    let plan =
        t.db.explain(
            "SELECT Name, Count FROM S, WebCount WHERE S.Name = 'Utah' AND Name = T1",
            &t.engines,
            QueryOptions::default(),
        )
        .unwrap();
    assert!(plan.contains("IndexScan"), "{plan}");
    assert!(plan.contains("AEVScan"));
}

/// `=` with NULL is false for every row — the row whose key *is* NULL
/// included, although the index files it under a NULL key.
#[test]
fn null_literal_matches_nothing_through_an_index() {
    let mut t = h();
    t.run(
        "CREATE TABLE T (Id INT, V INT);\
         INSERT INTO T VALUES (NULL, 1), (5, 2), (NULL, 3);\
         CREATE INDEX ON T (Id)",
    );
    assert!(t.rows("SELECT V FROM T WHERE Id = NULL").is_empty());
    assert!(t.rows("SELECT V FROM T WHERE Id <= NULL").is_empty());
    assert!(t
        .rows("SELECT V FROM T WHERE Id BETWEEN NULL AND 9")
        .is_empty());
    assert_eq!(t.affected("UPDATE T SET V = 0 WHERE Id = NULL"), 0);
    assert_eq!(t.affected("DELETE FROM T WHERE Id = NULL"), 0);
    // An open-ended range starts below the NULL keys; the filter drops them.
    assert_eq!(t.rows("SELECT V FROM T WHERE Id < 9"), vec!["<2>"]);
    assert_eq!(t.affected("DELETE FROM T WHERE Id < 9"), 1);
    assert_eq!(t.rows("SELECT V FROM T ORDER BY V"), vec!["<1>", "<3>"]);
}

/// Index keys go through `f64`, so 2^53 and 2^53 + 1 share one: the key
/// range finds both, the kept filter tells them apart.
#[test]
fn lossy_index_keys_do_not_widen_a_match() {
    let mut t = h();
    t.run(
        "CREATE TABLE T (Id INT, V INT);\
         INSERT INTO T VALUES (9007199254740992, 1), (9007199254740993, 2), (9007199254740994, 3);\
         CREATE INDEX ON T (Id)",
    );
    let plan =
        t.db.explain(
            "SELECT V FROM T WHERE Id = 9007199254740993",
            &t.engines,
            QueryOptions::default(),
        )
        .unwrap();
    assert!(plan.contains("IndexScan"), "{plan}");
    assert_eq!(
        t.rows("SELECT V FROM T WHERE Id = 9007199254740993"),
        vec!["<2>"]
    );
    assert_eq!(
        t.rows("SELECT V FROM T WHERE Id > 9007199254740992 ORDER BY V"),
        vec!["<2>", "<3>"]
    );
    assert_eq!(
        t.affected("UPDATE T SET V = 20 WHERE Id = 9007199254740993"),
        1
    );
    assert_eq!(t.affected("DELETE FROM T WHERE Id = 9007199254740992"), 1);
    assert_eq!(t.rows("SELECT V FROM T ORDER BY V"), vec!["<3>", "<20>"]);
    // The survivor that shared the deleted row's key is still indexed.
    assert_eq!(
        t.rows("SELECT V FROM T WHERE Id = 9007199254740993"),
        vec!["<20>"]
    );
}

/// Page requests (pool hits + misses) one statement makes.
fn pages_requested(t: &mut H, sql: &str) -> u64 {
    let before = t.db.pool_stats();
    t.run(sql);
    let after = t.db.pool_stats();
    (after.hits + after.misses) - (before.hits + before.misses)
}

/// Deterministic guard on the access path itself: on a 20 000-row table
/// (about 300 heap pages) a statement that names a key must cost a descent
/// and a row, not the table. Counts, not times.
#[test]
fn keyed_statements_touch_a_handful_of_pages() {
    let mut t = h();
    t.run("CREATE TABLE Orders (Id INT, Cust INT, Note VARCHAR(40))");
    for chunk in (0..20_000).collect::<Vec<i64>>().chunks(500) {
        let values: Vec<String> = chunk
            .iter()
            .map(|id| format!("({id}, {}, 'note {id} on the order')", id % 500))
            .collect();
        t.run(&format!("INSERT INTO Orders VALUES {}", values.join(",")));
    }
    t.run("CREATE INDEX ON Orders (Id)");

    let update = pages_requested(&mut t, "UPDATE Orders SET Cust = 1 WHERE Id = 12345");
    let delete = pages_requested(&mut t, "DELETE FROM Orders WHERE Id = 12346");
    let range = pages_requested(
        &mut t,
        "SELECT Cust, COUNT(*) FROM Orders WHERE Id >= 4000 AND Id < 4200 GROUP BY Cust",
    );
    assert!(update < 20, "UPDATE by key requested {update} pages");
    assert!(delete < 20, "DELETE by key requested {delete} pages");
    assert!(range < 250, "200-id range SELECT requested {range} pages");
    // Without a usable key the same statements still scan.
    let scan = pages_requested(&mut t, "UPDATE Orders SET Cust = 2 WHERE Cust = 499");
    assert!(
        scan > 250,
        "an unindexed UPDATE requested only {scan} pages"
    );
    assert_eq!(
        t.rows("SELECT Cust FROM Orders WHERE Id = 12345"),
        vec!["<1>"]
    );
    assert!(t
        .rows("SELECT Cust FROM Orders WHERE Id = 12346")
        .is_empty());
}
