//! View tests: definition, expansion (including Web-supported views —
//! "WebCount can be thought of as an aggregate view over WebPages", §1),
//! persistence, and error handling.

use std::sync::Arc;
use wsq_engine::db::{Database, QueryOptions, StatementResult};
use wsq_engine::engines::EngineRegistry;
use wsq_pump::{PumpConfig, ReqPump};
use wsq_websim::{CorpusConfig, EngineKind, SimWeb};

struct H {
    db: Database,
    engines: EngineRegistry,
    pump: Arc<ReqPump>,
}

fn h() -> H {
    let web = SimWeb::build(CorpusConfig::small());
    let mut engines = EngineRegistry::new();
    engines.register("AV", true);
    let pump = ReqPump::new(PumpConfig::default());
    pump.register_service("AV", web.engine(EngineKind::AltaVista));
    let mut t = H {
        db: Database::open_in_memory().unwrap(),
        engines,
        pump,
    };
    t.run(
        "CREATE TABLE States (Name VARCHAR(32), Population INT, Capital VARCHAR(32));\
         INSERT INTO States VALUES \
         ('California', 32667000, 'Sacramento'), ('Texas', 19760000, 'Austin'),\
         ('Wyoming', 481000, 'Cheyenne'), ('Vermont', 591000, 'Montpelier')",
    );
    t
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

    fn err(&mut self, sql: &str) -> String {
        match self
            .db
            .run_sql(sql, &self.engines, &self.pump, QueryOptions::default())
        {
            Err(e) => e.to_string(),
            Ok(_) => panic!("statement unexpectedly succeeded: {sql}"),
        }
    }
}

#[test]
fn basic_view_definition_and_query() {
    let mut t = h();
    t.run("CREATE VIEW Big AS SELECT Name, Population FROM States WHERE Population > 10000000");
    assert_eq!(
        t.rows("SELECT Name FROM Big ORDER BY Name"),
        vec!["<California>", "<Texas>"]
    );
    // Views join with tables and carry their alias.
    assert_eq!(
        t.rows(
            "SELECT b.Name, States.Capital FROM Big b, States \
             WHERE b.Name = States.Name ORDER BY b.Name"
        ),
        vec!["<California, Sacramento>", "<Texas, Austin>"]
    );
    // Predicates over view columns work.
    assert_eq!(
        t.rows("SELECT Name FROM Big WHERE Population < 20000000"),
        vec!["<Texas>"]
    );
}

#[test]
fn views_over_views_and_aggregates() {
    let mut t = h();
    t.run("CREATE VIEW Small AS SELECT Name, Population FROM States WHERE Population < 1000000");
    t.run("CREATE VIEW SmallStats AS SELECT COUNT(*) AS n, SUM(Population) AS total FROM Small");
    let rows = t.rows("SELECT n, total FROM SmallStats");
    assert_eq!(rows, vec!["<2, 1072000>"]);
}

#[test]
fn web_supported_view() {
    // A stored view over the virtual tables: per-state Web counts.
    let mut t = h();
    t.run(
        "CREATE VIEW StateCounts AS \
         SELECT Name AS State, Count AS Hits FROM States, WebCount WHERE Name = T1",
    );
    let rows =
        t.rows("SELECT State FROM StateCounts WHERE Hits > 0 ORDER BY Hits DESC, State LIMIT 2");
    assert_eq!(rows, vec!["<California>", "<Texas>"]);
    assert_eq!(t.pump.live_calls(), 0);
    // The asynchronous plan reaches through the view boundary.
    let plan =
        t.db.explain(
            "SELECT State FROM StateCounts",
            &t.engines,
            QueryOptions::default(),
        )
        .unwrap();
    assert!(plan.contains("AEVScan"), "{plan}");
    assert!(plan.contains("ReqSync"), "{plan}");
}

#[test]
fn view_persistence_across_reopen() {
    let dir = tempfile::tempdir().unwrap();
    let engines = EngineRegistry::new();
    let pump = ReqPump::new(PumpConfig::default());
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.run_sql(
            "CREATE TABLE T (x INT); INSERT INTO T VALUES (1), (5), (9);\
             CREATE VIEW BigX AS SELECT x FROM T WHERE x > 2",
            &engines,
            &pump,
            QueryOptions::default(),
        )
        .unwrap();
        db.flush().unwrap();
    }
    let mut db = Database::open(dir.path()).unwrap();
    let results = db
        .run_sql(
            "SELECT x FROM BigX ORDER BY x",
            &engines,
            &pump,
            QueryOptions::default(),
        )
        .unwrap();
    match &results[0] {
        StatementResult::Rows(r) => {
            assert_eq!(r.rows.len(), 2);
            assert_eq!(r.rows[0].get(0).as_int().unwrap(), 5);
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(db.catalog().view_names(), vec!["bigx".to_string()]);
}

#[test]
fn view_error_handling() {
    let mut t = h();
    // Name collisions in both directions.
    t.run("CREATE VIEW V AS SELECT Name FROM States");
    assert!(t.err("CREATE TABLE V (x INT)").contains("view"));
    assert!(t
        .err("CREATE VIEW States AS SELECT 1 FROM States")
        .contains("table"));
    assert!(t
        .err("CREATE VIEW V AS SELECT Name FROM States")
        .contains("exists"));
    // Reserved names.
    assert!(t
        .err("CREATE VIEW WebCount AS SELECT Name FROM States")
        .contains("reserved"));
    // Duplicate output columns rejected at definition time.
    assert!(t
        .err("CREATE VIEW D AS SELECT Name, Name FROM States")
        .contains("duplicate"));
    // Invalid definitions rejected at definition time.
    assert!(t
        .err("CREATE VIEW E AS SELECT Nope FROM States")
        .contains("Nope"));
    // DML against a view fails (it is not a table).
    assert!(!t.err("INSERT INTO V VALUES ('x')").is_empty());
    assert!(!t.err("DELETE FROM V").is_empty());
    // DROP VIEW.
    t.run("DROP VIEW V");
    assert!(t.err("SELECT * FROM V").contains("no such table"));
    assert!(t.err("DROP VIEW V").contains("no such view"));
}

/// A view is stored as SQL text and parsed again on every use, so its
/// literals must print as what they are: a float `1.0` once came back as
/// the integer `1`, a float beyond `i64` as an unreadable integer, and
/// `i64::MIN` could not be written at all.
#[test]
fn views_keep_their_literals_types() {
    let mut t = h();
    let direct = "SELECT Population * 1.0 AS P, -9223372036854775808 AS M FROM States \
                  WHERE Name = 'Wyoming'";
    t.run(&format!("CREATE VIEW W AS {direct}"));
    assert_eq!(t.rows(direct), vec!["<481000.0, -9223372036854775808>"]);
    let through_view = t.rows("SELECT P, M FROM W");
    assert_eq!(through_view, t.rows(direct));
    match t.run("SELECT P FROM W").remove(0) {
        StatementResult::Rows(r) => {
            assert_eq!(r.rows[0].get(0), &wsq_common::Value::Float(481000.0))
        }
        other => panic!("{other:?}"),
    }

    t.run(
        "CREATE VIEW W2 AS SELECT Name FROM States \
         WHERE Population < 100000000000000000000.5 AND Population > 1e3",
    );
    assert_eq!(t.rows("SELECT Name FROM W2 ORDER BY Name").len(), 4);
}

#[test]
fn view_definition_roundtrips_complex_sql() {
    let mut t = h();
    t.run(
        "CREATE VIEW C AS SELECT Capital, COUNT(*) AS n FROM States \
         WHERE Name LIKE '%a%' OR Population BETWEEN 1 AND 600000 \
         GROUP BY Capital HAVING COUNT(*) > 0 ORDER BY Capital LIMIT 10",
    );
    let rows = t.rows("SELECT Capital FROM C ORDER BY Capital LIMIT 2");
    assert_eq!(rows.len(), 2);
}
