//! End-to-end engine tests: SQL → plan → (a)synchronous execution against
//! the simulated Web.

use std::sync::Arc;
use wsq_common::{Column, DataType, Schema, Tuple, Value};
use wsq_engine::db::{Database, QueryOptions, StatementResult};
use wsq_engine::engines::EngineRegistry;
use wsq_engine::plan::{ExecutionMode, PlacementStrategy};
use wsq_pump::{PumpConfig, ReqPump};
use wsq_websim::{CorpusConfig, EngineKind, SimWeb};

struct Harness {
    db: Database,
    engines: EngineRegistry,
    pump: Arc<ReqPump>,
}

fn harness() -> Harness {
    harness_with(CorpusConfig::small())
}

fn harness_with(corpus: CorpusConfig) -> Harness {
    let web = SimWeb::build(corpus);
    let av = web.engine(EngineKind::AltaVista);
    let google = web.engine(EngineKind::Google);

    let pump = ReqPump::new(PumpConfig::default());
    pump.register_service("AV", av);
    pump.register_service("Google", google);

    let mut engines = EngineRegistry::new();
    engines.register("AV", true);
    engines.register("Google", false);

    let mut db = Database::open_in_memory().unwrap();
    db.create_table(
        "States",
        &Schema::new(vec![
            Column::new("Name", DataType::Varchar),
            Column::new("Population", DataType::Int),
            Column::new("Capital", DataType::Varchar),
        ]),
    )
    .unwrap();
    let rows: Vec<Tuple> = wsq_websim::data::STATES
        .iter()
        .map(|s| {
            Tuple::new(vec![
                Value::from(s.name),
                Value::Int(s.population),
                Value::from(s.capital),
            ])
        })
        .collect();
    db.insert("States", &rows).unwrap();

    db.create_table(
        "Sigs",
        &Schema::new(vec![Column::new("Name", DataType::Varchar)]),
    )
    .unwrap();
    let rows: Vec<Tuple> = wsq_websim::data::SIGS
        .iter()
        .map(|(n, _)| Tuple::new(vec![Value::from(*n)]))
        .collect();
    db.insert("Sigs", &rows).unwrap();

    Harness { db, engines, pump }
}

impl Harness {
    fn query_with(&mut self, sql: &str, opts: QueryOptions) -> wsq_engine::QueryResult {
        let results = self
            .db
            .run_sql(sql, &self.engines, &self.pump, opts)
            .unwrap_or_else(|e| panic!("query failed: {e}\nsql: {sql}"));
        match results.into_iter().next().unwrap() {
            StatementResult::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn query(&mut self, sql: &str) -> wsq_engine::QueryResult {
        self.query_with(
            sql,
            QueryOptions {
                mode: ExecutionMode::Asynchronous,
                ..Default::default()
            },
        )
    }

    /// Run under every execution configuration and assert identical
    /// result bags (order-insensitive unless the query sorts).
    fn query_all_modes(&mut self, sql: &str, ordered: bool) -> wsq_engine::QueryResult {
        let baseline = self.query_with(
            sql,
            QueryOptions {
                mode: ExecutionMode::Synchronous,
                ..Default::default()
            },
        );
        for strategy in [PlacementStrategy::Full, PlacementStrategy::InsertionOnly] {
            let got = self.query_with(
                sql,
                QueryOptions {
                    mode: ExecutionMode::Asynchronous,
                    strategy,
                    ..Default::default()
                },
            );
            let mut a: Vec<String> = baseline.rows.iter().map(|t| t.to_string()).collect();
            let mut b: Vec<String> = got.rows.iter().map(|t| t.to_string()).collect();
            if !ordered {
                a.sort();
                b.sort();
            }
            assert_eq!(a, b, "async ({strategy:?}) diverged from sync on: {sql}");
        }
        baseline
    }
}

fn strings(result: &wsq_engine::QueryResult, col: usize) -> Vec<String> {
    result
        .rows
        .iter()
        .map(|t| t.get(col).as_str().unwrap().to_string())
        .collect()
}

#[test]
fn local_only_queries_work() {
    let mut h = harness();
    let r = h.query(
        "SELECT Name, Population FROM States WHERE Population > 10000000 ORDER BY Population DESC",
    );
    let names = strings(&r, 0);
    assert_eq!(names[0], "California");
    assert!(names.contains(&"Texas".to_string()));
    assert!(names.len() >= 5);

    let r = h.query("SELECT COUNT(*) FROM States");
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);

    let r = h.query("SELECT Capital FROM States WHERE Name = 'Colorado'");
    assert_eq!(strings(&r, 0), vec!["Denver"]);
}

#[test]
fn paper_query_1_rank_states_by_count() {
    let mut h = harness();
    // Name is a tie-breaking secondary key: the paper leaves tie order
    // unspecified and asynchronous completion order is nondeterministic.
    let r = h.query_all_modes(
        "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
         ORDER BY Count DESC, Name",
        true,
    );
    assert_eq!(r.rows.len(), 50);
    let names = strings(&r, 0);
    // The paper's top-5 shape.
    assert_eq!(
        &names[..5],
        &["California", "Washington", "New York", "Texas", "Michigan"]
    );
    // Counts strictly ordered at the top.
    let c0 = r.rows[0].get(1).as_int().unwrap();
    let c4 = r.rows[4].get(1).as_int().unwrap();
    assert!(c0 > c4 && c4 > 0);
}

#[test]
fn paper_query_2_normalized_by_population() {
    // The normalized ranking's margins are tight for low-population
    // states; the full-size corpus keeps sampling noise well below them.
    let mut h = harness_with(CorpusConfig::default());
    // Scale the ratio up since our engine does integer division.
    let r = h.query(
        "SELECT Name, Count * 1000000 / Population AS C FROM States, WebCount \
         WHERE Name = T1 ORDER BY C DESC",
    );
    let names = strings(&r, 0);
    assert_eq!(
        &names[..5],
        &["Alaska", "Washington", "Delaware", "Hawaii", "Wyoming"]
    );
}

#[test]
fn paper_query_3_four_corners() {
    let mut h = harness();
    let r = h.query_all_modes(
        "SELECT Name, Count FROM States, WebCount \
         WHERE Name = T1 AND T2 = 'four corners' ORDER BY Count DESC, Name",
        true,
    );
    let names = strings(&r, 0);
    assert_eq!(&names[..4], &["Colorado", "New Mexico", "Arizona", "Utah"]);
    // The dramatic dropoff between 4th and 5th.
    let c3 = r.rows[3].get(1).as_int().unwrap();
    let c4 = r.rows[4].get(1).as_int().unwrap();
    assert!(c3 >= c4 * 3, "dropoff missing: {c3} vs {c4}");
}

#[test]
fn paper_query_4_capitals_beating_states() {
    let mut h = harness();
    let r = h.query_all_modes(
        "SELECT Capital, C.Count, Name, S.Count \
         FROM States, WebCount C, WebCount S \
         WHERE Capital = C.T1 AND Name = S.T1 AND C.Count > S.Count",
        false,
    );
    let mut capitals = strings(&r, 0);
    capitals.sort();
    assert_eq!(
        capitals,
        vec!["Atlanta", "Boston", "Columbia", "Jackson", "Lincoln", "Pierre"]
    );
}

#[test]
fn paper_query_5_top_urls_per_state() {
    let mut h = harness();
    let r = h.query_all_modes(
        "SELECT Name, URL, Rank FROM States, WebPages \
         WHERE Name = T1 AND Rank <= 2 ORDER BY Name, Rank",
        true,
    );
    assert_eq!(r.rows.len(), 100, "2 URLs per state");
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "Alabama");
    assert_eq!(r.rows[0].get(2).as_int().unwrap(), 1);
    assert_eq!(r.rows[1].get(2).as_int().unwrap(), 2);
}

#[test]
fn paper_query_6_engine_agreement() {
    let mut h = harness();
    let r = h.query_all_modes(
        "SELECT Name, AV.URL FROM States, WebPages_AV AV, WebPages_Google G \
         WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 5 AND G.Rank <= 5 \
         AND AV.URL = G.URL",
        false,
    );
    // Shape: the engines agree on a few URLs, far fewer than 50×5.
    assert!(!r.rows.is_empty(), "engines never agree");
    assert!(
        r.rows.len() < 100,
        "engines agree on too much: {}",
        r.rows.len()
    );
}

#[test]
fn sigs_knuth_ranking() {
    let mut h = harness();
    let r = h.query_all_modes(
        "SELECT Name, Count FROM Sigs, WebCount \
         WHERE Name = T1 AND T2 = 'Knuth' AND Count > 0 ORDER BY Count DESC",
        true,
    );
    let names = strings(&r, 0);
    assert_eq!(
        names,
        vec!["SIGACT", "SIGPLAN", "SIGGRAPH", "SIGMOD", "SIGCOMM", "SIGSAM"]
    );
}

#[test]
fn webpages_cancellation_when_no_results() {
    let mut h = harness();
    // No SIG name co-occurs with a gibberish phrase; with AND semantics on
    // an unknown word the result set is empty, so every optimistic tuple
    // is cancelled.
    let r = h.query_all_modes(
        "SELECT Name, URL FROM Sigs, WebPages \
         WHERE Name = T1 AND T2 = 'zxqzzyqk' AND Rank <= 3",
        false,
    );
    assert_eq!(r.rows.len(), 0);
}

#[test]
fn standalone_virtual_table() {
    let mut h = harness();
    let r = h.query_all_modes("SELECT Count FROM WebCount WHERE T1 = 'California'", false);
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0].get(0).as_int().unwrap() > 100);
}

#[test]
fn explicit_search_template() {
    let mut h = harness();
    // Explicit SearchExp overrides the default NEAR template: plain AND.
    let and_count = h
        .query("SELECT Count FROM WebCount WHERE SearchExp = '%1 %2' AND T1 = 'Colorado' AND T2 = 'four corners'")
        .rows[0]
        .get(0)
        .as_int()
        .unwrap();
    let near_count = h
        .query("SELECT Count FROM WebCount WHERE T1 = 'Colorado' AND T2 = 'four corners'")
        .rows[0]
        .get(0)
        .as_int()
        .unwrap();
    assert!(and_count >= near_count);
    assert!(near_count > 0);
}

#[test]
fn bound_value_holding_a_placeholder_is_not_substituted_into() {
    // `%2`'s value itself holds `%1`. Building the expression by repeated
    // replacement rescanned it and sent the engine `utah near "ski utah
    // pass"`; synchronous and asynchronous plans shared that builder, so
    // no equivalence test could see it.
    let mut h = harness();
    h.db.run_sql(
        "CREATE TABLE P (A VARCHAR(20), B VARCHAR(20)); \
         INSERT INTO P VALUES ('utah', 'ski %1 pass')",
        &h.engines,
        &h.pump,
        QueryOptions::default(),
    )
    .unwrap();
    let r = h.query_all_modes(
        "SELECT SearchExp FROM P, WebCount WHERE A = T1 AND B = T2",
        false,
    );
    assert_eq!(strings(&r, 0), vec!["utah near \"ski %1 pass\""]);
}

#[test]
fn aggregation_over_web_counts() {
    let mut h = harness();
    // Total Web presence of all states (clash case 3: ReqSync must resolve
    // below the aggregate).
    let r = h.query_all_modes(
        "SELECT SUM(Count), COUNT(*) FROM States, WebCount WHERE Name = T1",
        false,
    );
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0].get(0).as_int().unwrap() > 1000);
    assert_eq!(r.rows[0].get(1).as_int().unwrap(), 50);
}

#[test]
fn distinct_and_limit() {
    let mut h = harness();
    let r = h.query_all_modes(
        "SELECT DISTINCT Rank FROM States, WebPages WHERE Name = T1 AND Rank <= 3 \
         ORDER BY Rank",
        true,
    );
    assert_eq!(r.rows.len(), 3);

    let r = h.query(
        "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
         ORDER BY Count DESC LIMIT 5",
    );
    assert_eq!(r.rows.len(), 5);
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "California");
}

#[test]
fn filter_on_web_count_value() {
    let mut h = harness();
    // Carried-filter path: predicate on the placeholder attribute.
    let r = h.query_all_modes(
        "SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND Count > 200 \
         ORDER BY Count DESC",
        true,
    );
    assert!(!r.rows.is_empty());
    for row in &r.rows {
        assert!(row.get(1).as_int().unwrap() > 200);
    }
}

#[test]
fn like_in_between_and_having_end_to_end() {
    let mut h = harness();
    // LIKE over state names.
    let r = h.query("SELECT Name FROM States WHERE Name LIKE 'New%' ORDER BY Name");
    assert_eq!(
        strings(&r, 0),
        vec!["New Hampshire", "New Jersey", "New Mexico", "New York"]
    );
    // IN list combined with a Web count.
    let r = h.query_all_modes(
        "SELECT Name, Count FROM States, WebCount \
         WHERE Name IN ('Utah', 'Texas', 'Maine') AND Name = T1 \
         ORDER BY Count DESC, Name",
        true,
    );
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "Texas");
    // BETWEEN on population.
    let r = h.query("SELECT COUNT(*) FROM States WHERE Population BETWEEN 1000000 AND 2000000");
    assert!(r.rows[0].get(0).as_int().unwrap() > 3);
    // HAVING filters groups.
    let r = h.query(
        "SELECT Capital, COUNT(*) AS n FROM States GROUP BY Capital HAVING COUNT(*) > 0 \
         ORDER BY Capital LIMIT 3",
    );
    assert_eq!(r.rows.len(), 3);
    // HAVING that eliminates everything.
    let r = h.query("SELECT Capital, COUNT(*) FROM States GROUP BY Capital HAVING COUNT(*) > 10");
    assert_eq!(r.rows.len(), 0);
    // HAVING over web counts: states whose total is large.
    let r = h.query_all_modes(
        "SELECT Name, SUM(Count) AS total FROM States, WebCount WHERE Name = T1 \
         GROUP BY Name HAVING SUM(Count) > 100",
        false,
    );
    assert!(!r.rows.is_empty());
    assert!(r.rows.len() < 50);
}

#[test]
fn planner_errors() {
    let mut h = harness();
    let opts = QueryOptions::default();
    // Unbound T1.
    let err =
        h.db.run_sql("SELECT Count FROM WebCount", &h.engines, &h.pump, opts)
            .unwrap_err();
    assert!(err.to_string().contains("bound") || err.to_string().contains("search terms"));
    // Binding from a LATER table is not allowed (FROM order = join order).
    let err =
        h.db.run_sql(
            "SELECT Count FROM WebCount, States WHERE Name = T1",
            &h.engines,
            &h.pump,
            opts,
        )
        .unwrap_err();
    assert!(matches!(err, wsq_common::WsqError::Plan(_)));
    // Unknown engine suffix.
    let err =
        h.db.run_sql(
            "SELECT Count FROM WebCount_Bing WHERE T1 = 'x'",
            &h.engines,
            &h.pump,
            opts,
        )
        .unwrap_err();
    assert!(err.to_string().contains("Bing"));
    // Unknown table & column.
    assert!(h
        .db
        .run_sql("SELECT x FROM Nope", &h.engines, &h.pump, opts)
        .is_err());
    assert!(h
        .db
        .run_sql("SELECT Nope FROM States", &h.engines, &h.pump, opts)
        .is_err());
}

#[test]
fn uncorrelated_subqueries() {
    let mut h = harness();
    // Scalar subquery: states more populous than the average.
    let r = h.query(
        "SELECT COUNT(*) FROM States \
         WHERE Population > (SELECT AVG(Population) FROM States)",
    );
    let above_avg = r.rows[0].get(0).as_int().unwrap();
    assert!((5..25).contains(&above_avg), "{above_avg}");

    // IN (SELECT …): capitals of big states.
    let r = h.query(
        "SELECT Capital FROM States \
         WHERE Name IN (SELECT Name FROM States WHERE Population > 19000000) \
         ORDER BY Capital",
    );
    assert_eq!(strings(&r, 0), vec!["Austin", "Sacramento"]);

    // NOT IN with a subquery.
    let r = h.query(
        "SELECT COUNT(*) FROM States \
         WHERE Name NOT IN (SELECT Name FROM States WHERE Population > 1000000)",
    );
    let small = r.rows[0].get(0).as_int().unwrap();
    assert!((3..12).contains(&small), "{small}");

    // A Web-supported subquery: states whose count beats Utah's.
    let r = h.query_all_modes(
        "SELECT Name FROM States, WebCount WHERE Name = T1 \
         AND Count > (SELECT Count FROM WebCount WHERE T1 = 'Utah') \
         ORDER BY Name",
        true,
    );
    assert!(r.rows.len() > 3 && r.rows.len() < 40, "{}", r.rows.len());
    assert!(strings(&r, 0).contains(&"California".to_string()));

    // Subquery in DML.
    h.db.run_sql(
        "CREATE TABLE Flagged (Name VARCHAR(32));\
             INSERT INTO Flagged SELECT Name FROM States WHERE Population < 700000;\
             DELETE FROM Flagged WHERE Name IN (SELECT Capital FROM States)",
        &h.engines,
        &h.pump,
        QueryOptions::default(),
    )
    .unwrap();

    // Error paths: multi-column and multi-row scalar subqueries.
    assert!(h
        .db
        .run_sql(
            "SELECT 1 FROM States WHERE Population > (SELECT Name, Population FROM States)",
            &h.engines,
            &h.pump,
            QueryOptions::default()
        )
        .is_err());
    assert!(h
        .db
        .run_sql(
            "SELECT 1 FROM States WHERE Population > (SELECT Population FROM States)",
            &h.engines,
            &h.pump,
            QueryOptions::default()
        )
        .is_err());
}

#[test]
fn order_by_non_projected_column() {
    let mut h = harness();
    // Sort key not in the select list: Sort plans below the Project.
    let r = h.query("SELECT Name FROM States ORDER BY Population DESC LIMIT 3");
    assert_eq!(strings(&r, 0), vec!["California", "Texas", "New York"]);
    assert_eq!(
        r.schema.len(),
        1,
        "Population must not leak into the output"
    );

    // Alias and ordinal keys still work.
    let r = h.query("SELECT Name, Population / 1000 AS K FROM States ORDER BY K DESC LIMIT 1");
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "California");
    let r = h.query("SELECT Population, Name FROM States ORDER BY 2 LIMIT 1");
    assert_eq!(r.rows[0].get(1).as_str().unwrap(), "Alabama");

    // DISTINCT preserves the below-projection sort.
    let r = h.query("SELECT DISTINCT Capital FROM States ORDER BY Population DESC LIMIT 2");
    assert_eq!(strings(&r, 0), vec!["Sacramento", "Austin"]);

    // And the WSQ case: order by the web count while projecting only names.
    let r = h.query_all_modes(
        "SELECT Name FROM States, WebCount WHERE Name = T1 \
         ORDER BY Count DESC, Name LIMIT 3",
        true,
    );
    assert_eq!(strings(&r, 0), vec!["California", "Washington", "New York"]);

    // Unknown key columns still error.
    assert!(h
        .db
        .run_sql(
            "SELECT Name FROM States ORDER BY Nope",
            &h.engines,
            &h.pump,
            QueryOptions::default()
        )
        .is_err());
}

#[test]
fn pump_does_not_leak_calls() {
    let mut h = harness();
    h.query("SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC");
    h.query("SELECT Name, URL FROM States, WebPages WHERE Name = T1 AND Rank <= 3");
    assert_eq!(h.pump.live_calls(), 0, "ReqSync must release every call");
}

#[test]
fn limit_above_reqsync_releases_pending() {
    let mut h = harness();
    // LIMIT cuts the query short; buffered placeholder tuples must still
    // release their pump registrations on close.
    h.query("SELECT Name, Count FROM States, WebCount WHERE Name = T1 LIMIT 3");
    // A call released while in flight is forgotten when its reply lands
    // (`ReqPump::release`), so give the replies a moment.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while h.pump.live_calls() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(h.pump.live_calls(), 0);
}

#[test]
fn multi_statement_script_and_persistence() {
    let mut h = harness();
    let results =
        h.db.run_sql(
            "CREATE TABLE Notes (Body VARCHAR(64), Score INT);\
             INSERT INTO Notes VALUES ('a', 1), ('b', 2), ('c', 2);\
             SELECT Score, COUNT(*) AS n FROM Notes GROUP BY Score ORDER BY Score;",
            &h.engines,
            &h.pump,
            QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(results.len(), 3);
    match &results[2] {
        StatementResult::Rows(r) => {
            assert_eq!(r.rows.len(), 2);
            assert_eq!(r.rows[1].get(1).as_int().unwrap(), 2);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn disk_database_roundtrip() {
    let dir = tempfile::tempdir().unwrap();
    let engines = EngineRegistry::new();
    let pump = ReqPump::new(PumpConfig::default());
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.run_sql(
            "CREATE TABLE T (x INT, s VARCHAR(8)); INSERT INTO T VALUES (1,'a'),(2,'b')",
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
            "SELECT s FROM T WHERE x = 2",
            &engines,
            &pump,
            QueryOptions::default(),
        )
        .unwrap();
    match &results[0] {
        StatementResult::Rows(r) => {
            assert_eq!(r.rows.len(), 1);
            assert_eq!(r.rows[0].get(0).as_str().unwrap(), "b");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn explain_matches_figure_3_shape() {
    let h = harness();
    let text =
        h.db.explain(
            "SELECT Name, Count FROM Sigs, WebCount \
             WHERE Name = T1 AND T2 = 'Knuth' ORDER BY Count DESC",
            &h.engines,
            QueryOptions {
                mode: ExecutionMode::Asynchronous,
                ..Default::default()
            },
        )
        .unwrap();
    // Figure 3: Sort → … ReqSync … → Dependent Join → {Scan, AEVScan}.
    let sort_pos = text.find("Sort:").unwrap();
    let sync_pos = text.find("ReqSync").unwrap();
    let dj_pos = text.find("Dependent Join").unwrap();
    let scan_pos = text.find("Scan: Sigs").unwrap();
    let aev_pos = text.find("AEVScan").unwrap();
    assert!(sort_pos < sync_pos && sync_pos < dj_pos && dj_pos < scan_pos && scan_pos < aev_pos);

    // Synchronous plan uses EVScan and no ReqSync.
    let sync_text =
        h.db.explain(
            "SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1",
            &h.engines,
            QueryOptions {
                mode: ExecutionMode::Synchronous,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(sync_text.contains("EVScan"));
    assert!(!sync_text.contains("ReqSync"));
    assert!(!sync_text.contains("AEVScan"));
}
