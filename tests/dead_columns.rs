//! Columns nothing reads are `Null` inside the executor tree and never
//! built (DESIGN.md §18): each query shape below must still return
//! exactly the rows that direct service calls, which bypass the pump and
//! every operator, say it should. Each shape runs on three instances:
//!
//! - *warm*: the cache on and every call already made, so each call's
//!   result is delivered with its registration and the scan emits
//!   finished rows;
//! - *pending*: the cache off and 1 ms of declared latency, so every call
//!   is pending at registration and its rows go through placeholders and
//!   `ReqSync`;
//! - *sync*: the synchronous plan, whose scans wait for their calls.
//!
//! The shapes are those whose read sets differ from a plain projection:
//! `SELECT *`, DISTINCT, ORDER BY a column not selected, GROUP BY with
//! HAVING, RERANK BY, an `_ANY` race, COUNT(*) over a virtual table (one
//! row per hit, a cancelled tuple none), INSERT INTO … SELECT, and a view.

use std::collections::BTreeMap;
use std::time::Duration;
use wsqdsq::prelude::*;
use wsqdsq::pump::{PageHit, RequestKind, SearchRequest, SearchResult, SearchService};
use wsqdsq::websim::SimWeb;

/// The outer table: each term with two columns most shapes leave dead.
/// `zzznope` matches no page, so its tuple is cancelled.
const TOPICS: [(&str, i64, &str); 6] = [
    ("computer", 6, "one"),
    ("beaches", 5, "two"),
    ("skiing", 4, "three"),
    ("Knuth", 3, "four"),
    ("four corners", 2, "five"),
    ("zzznope", 1, "six"),
];

const PAGES: &str = "FROM Topics, WebPages WHERE Term = T1 AND Rank <= 3";

#[derive(Debug, Clone, Copy)]
enum Setup {
    Warm,
    Pending,
    Sync,
}

fn instance(setup: Setup) -> Wsq {
    let config = match setup {
        Setup::Warm => WsqConfig {
            cache: true,
            ..WsqConfig::fast()
        },
        Setup::Pending => WsqConfig {
            latency: LatencyModel::Fixed(Duration::from_millis(1)),
            ..WsqConfig::fast()
        },
        Setup::Sync => WsqConfig::fast(),
    };
    let mut wsq = Wsq::open_in_memory(config).unwrap();
    if let Setup::Sync = setup {
        wsq.options_mut().mode = ExecutionMode::Synchronous;
    }
    wsq.set_race_group(&["AV", "Google"]).unwrap();
    wsq.execute("CREATE TABLE Topics (Term VARCHAR(32), Weight INT, Note VARCHAR(8))")
        .unwrap();
    let values: Vec<String> = TOPICS
        .iter()
        .map(|(t, w, n)| format!("('{t}', {w}, '{n}')"))
        .collect();
    wsq.execute(&format!("INSERT INTO Topics VALUES {}", values.join(", ")))
        .unwrap();
    wsq
}

/// The rows of `sql` on `wsq`; on the warm instance, once every call it
/// makes is a cache hit.
fn rows(wsq: &mut Wsq, setup: Setup, sql: &str) -> Vec<Tuple> {
    if let Setup::Warm = setup {
        let misses = |wsq: &Wsq| wsq.cache_stats().values().map(|c| c.misses).sum::<u64>();
        loop {
            let before = misses(wsq);
            wsq.query(sql).unwrap();
            if misses(wsq) == before {
                break;
            }
        }
    }
    let rows = wsq
        .query(sql)
        .unwrap_or_else(|e| panic!("{setup:?}: {sql}: {e}"))
        .rows;
    assert_eq!(wsq.pump().live_calls(), 0, "{setup:?}: {sql}");
    rows
}

/// The search expression a one-term scan sends: the term, quoted when it
/// holds whitespace.
fn expr(term: &str) -> String {
    if term.contains(' ') {
        format!("\"{term}\"")
    } else {
        term.to_string()
    }
}

/// A direct call to `engine`'s simulated service, bypassing the pump.
fn direct(web: &SimWeb, engine: EngineKind, term: &str, kind: RequestKind) -> SearchResult {
    let req = SearchRequest {
        engine: String::new(),
        expr: expr(term),
        kind,
    };
    web.engine(engine)
        .execute(&req)
        .result
        .unwrap_or_else(|e| panic!("direct call for {term:?} failed: {e}"))
}

/// AltaVista's hits of rank 3 or better for `term`.
fn hits(web: &SimWeb, term: &str) -> Vec<PageHit> {
    match direct(
        web,
        EngineKind::AltaVista,
        term,
        RequestKind::Pages { max_rank: 3 },
    ) {
        SearchResult::Pages(hits) => hits.to_vec(),
        SearchResult::Count(_) => panic!("a pages request answered with a count"),
    }
}

fn count(web: &SimWeb, engine: EngineKind, term: &str) -> i64 {
    direct(web, engine, term, RequestKind::Count)
        .count()
        .unwrap() as i64
}

fn s(text: &str) -> Value {
    Value::from(text)
}

/// Every (topic, hit) pair of the pages join, in the order a synchronous
/// plan meets them.
fn joined(web: &SimWeb) -> Vec<((&'static str, i64, &'static str), PageHit)> {
    TOPICS
        .iter()
        .flat_map(|&topic| hits(web, topic.0).into_iter().map(move |h| (topic, h)))
        .collect()
}

/// `rows` as a sorted bag, for shapes whose order is not defined.
fn bag(rows: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(Tuple::to_string).collect();
    rows.sort();
    rows
}

/// `sql`'s rows on `wsq` must be `want`, in order or as a bag.
fn check(wsq: &mut Wsq, setup: Setup, sql: &str, want: Vec<Tuple>, ordered: bool) {
    let got = rows(wsq, setup, sql);
    if ordered {
        assert_eq!(got, want, "{setup:?}: {sql}");
    } else {
        assert_eq!(bag(&got), bag(&want), "{setup:?}: {sql}");
    }
}

fn tuples(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<Tuple> {
    rows.into_iter().map(Tuple::new).collect()
}

#[test]
fn every_shape_returns_the_rows_of_direct_service_calls() {
    for setup in [Setup::Warm, Setup::Pending, Setup::Sync] {
        let mut wsq = instance(setup);
        let web = SimWeb::build(CorpusConfig::small());
        let pairs = joined(&web);
        assert!(pairs.len() > 6, "the corpus gives the topics pages");

        // SELECT *: every column live, SearchExp and T1 included.
        let all = pairs.iter().map(|((t, w, n), h)| {
            vec![
                s(t),
                Value::Int(*w),
                s(n),
                s(&expr(t)),
                s(t),
                Value::Str(h.url.clone()),
                Value::Int(h.rank.into()),
                Value::Str(h.date.clone()),
            ]
        });
        check(
            &mut wsq,
            setup,
            &format!("SELECT * {PAGES}"),
            tuples(all),
            false,
        );
        let counts = TOPICS.iter().map(|(t, w, n)| {
            let c = count(&web, EngineKind::AltaVista, t);
            vec![s(t), Value::Int(*w), s(n), s(&expr(t)), s(t), Value::Int(c)]
        });
        check(
            &mut wsq,
            setup,
            "SELECT * FROM Topics, WebCount WHERE Term = T1",
            tuples(counts),
            false,
        );

        // DISTINCT over a virtual column.
        let mut dates: Vec<_> = pairs.iter().map(|(_, h)| h.date.clone()).collect();
        dates.sort();
        dates.dedup();
        let dates = dates.into_iter().map(|d| vec![Value::Str(d)]);
        check(
            &mut wsq,
            setup,
            &format!("SELECT DISTINCT Date {PAGES}"),
            tuples(dates),
            false,
        );

        // ORDER BY columns not selected (a total order, so in order).
        let mut by_weight = pairs.clone();
        by_weight.sort_by(|(a, ha), (b, hb)| (b.1, ha.rank, &ha.url).cmp(&(a.1, hb.rank, &hb.url)));
        let urls = by_weight
            .iter()
            .map(|(_, h)| vec![Value::Str(h.url.clone())]);
        check(
            &mut wsq,
            setup,
            &format!("SELECT URL {PAGES} ORDER BY Weight DESC, Rank, URL"),
            tuples(urls),
            true,
        );

        // GROUP BY with HAVING over the join, by a column that nothing
        // else reads.
        let mut groups: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
        for ((_, _, note), h) in &pairs {
            let g = groups.entry(note).or_default();
            g.0 += 1;
            g.1 = g.1.max(h.rank.into());
        }
        let having = groups
            .iter()
            .filter(|(_, (n, _))| *n > 1)
            .map(|(t, (n, max))| vec![s(t), Value::Int(*n), Value::Int(*max)]);
        check(
            &mut wsq,
            setup,
            &format!("SELECT Note, COUNT(*), MAX(Rank) {PAGES} GROUP BY Note HAVING COUNT(*) > 1"),
            tuples(having),
            false,
        );

        // RERANK BY: the same bag, in ascending URL length.
        let reranked = rows(
            &mut wsq,
            setup,
            &format!("SELECT Term, URL {PAGES} RERANK BY url_len"),
        );
        let lens: Vec<usize> = reranked
            .iter()
            .map(|r| r.get(1).as_str().unwrap().len())
            .collect();
        assert!(lens.windows(2).all(|w| w[0] <= w[1]), "{setup:?}: {lens:?}");
        let plain = pairs
            .iter()
            .map(|((t, _, _), h)| vec![s(t), Value::Str(h.url.clone())]);
        assert_eq!(bag(&reranked), bag(&tuples(plain)), "{setup:?}: rerank");

        // An `_ANY` race: each count is one member's.
        let raced = rows(
            &mut wsq,
            setup,
            "SELECT Term, Count FROM Topics, WebCount_ANY WHERE Term = T1",
        );
        assert_eq!(raced.len(), TOPICS.len(), "{setup:?}: race");
        for row in &raced {
            let term = row.get(0).as_str().unwrap();
            let members = [EngineKind::AltaVista, EngineKind::Google].map(|e| count(&web, e, term));
            let got = row.get(1).as_int().unwrap();
            assert!(
                members.contains(&got),
                "{setup:?}: {row} not in {members:?}"
            );
        }

        // COUNT(*) over a virtual table reads no column: one row per hit,
        // none for the cancelled `zzznope` tuple.
        check(
            &mut wsq,
            setup,
            &format!("SELECT COUNT(*) {PAGES}"),
            tuples([vec![Value::Int(pairs.len() as i64)]]),
            true,
        );
        check(
            &mut wsq,
            setup,
            "SELECT COUNT(*) FROM Topics, WebPages WHERE Term = T1 AND Rank <= 3 \
             AND Term = 'zzznope'",
            tuples([vec![Value::Int(0)]]),
            true,
        );

        // INSERT INTO … SELECT stores the rows the SELECT returns.
        let saved = pairs
            .iter()
            .map(|((t, _, _), h)| vec![s(t), Value::Str(h.url.clone())]);
        wsq.execute("CREATE TABLE Saved (Term VARCHAR(32), URL VARCHAR(200))")
            .unwrap();
        wsq.execute(&format!("INSERT INTO Saved SELECT Term, URL {PAGES}"))
            .unwrap();
        check(
            &mut wsq,
            setup,
            "SELECT Term, URL FROM Saved",
            tuples(saved.clone()),
            false,
        );

        // A view over the join, queried for one of its columns.
        wsq.execute(&format!(
            "CREATE VIEW TopPages AS SELECT Term, Note, URL, Rank, Date {PAGES}"
        ))
        .unwrap();
        let firsts = pairs
            .iter()
            .filter(|(_, h)| h.rank == 1)
            .map(|(_, h)| vec![Value::Str(h.url.clone())]);
        check(
            &mut wsq,
            setup,
            "SELECT URL FROM TopPages WHERE Rank = 1",
            tuples(firsts),
            false,
        );
        // The view queried for none of its virtual columns: on the pending
        // path `ReqSync` rises above the view's projections, which read no
        // virtual column, and must still see each placeholder to multiply
        // a tuple per hit and drop the cancelled one.
        let terms = pairs.iter().map(|((t, _, _), _)| vec![s(t)]);
        check(
            &mut wsq,
            setup,
            "SELECT Term FROM TopPages",
            tuples(terms),
            false,
        );
        check(
            &mut wsq,
            setup,
            "SELECT COUNT(*) FROM TopPages",
            tuples([vec![Value::Int(pairs.len() as i64)]]),
            true,
        );
    }
}

/// The three instances take the paths they are named for.
#[test]
fn the_instances_take_their_paths() {
    let placeholders = |wsq: &Wsq| wsq.obs().metrics().unwrap().placeholder_tuples.get();
    let sql = format!("SELECT URL {PAGES}");
    for (setup, pending) in [
        (Setup::Warm, false),
        (Setup::Pending, true),
        (Setup::Sync, false),
    ] {
        let mut wsq = instance(setup);
        rows(&mut wsq, setup, &sql);
        assert_eq!(placeholders(&wsq) > 0, pending, "{setup:?}");
    }
}
