//! EXPLAIN text of a fixed corpus of SELECTs, byte for byte.
//!
//! The front end (lexer, parser, binder, asyncify) can be rewritten for
//! speed without changing one plan: the corpus below covers the three
//! Table-1 templates, a one-call lookup, index point and range access, a
//! view, aggregates under `ORDER BY`, `RERANK BY`, a `WebCount_ANY` race,
//! and scalar and `IN` subqueries, and `tests/golden/explain.txt` holds
//! what EXPLAIN printed for each before the front end stopped copying.
//!
//! On a mismatch the test writes what it got next to the build's other
//! test output (the path is in the failure message); a deliberate plan
//! change is recorded by copying that file over the golden one.

use wsqdsq::prelude::*;

const GOLDEN: &str = include_str!("golden/explain.txt");

/// Explained under the default (asynchronous) options; the first three
/// are explained synchronously too.
const CORPUS: [&str; 30] = [
    // The three Table-1 templates.
    "SELECT Name, Count FROM States, WebCount \
     WHERE Name = T1 AND WebCount.T2 = 'computer'",
    "SELECT Name, Count, URL, Rank FROM States, WebCount, WebPages \
     WHERE Name = WebCount.T1 AND WebCount.T2 = 'computer' \
     AND Name = WebPages.T1 AND WebPages.T2 = 'beaches' AND WebPages.Rank <= 2",
    "SELECT Name, AV.URL, G.URL FROM Sigs, WebPages_AV AV, WebPages_Google G \
     WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 3 AND G.Rank <= 3 \
     AND AV.T2 = 'computer' AND G.T2 = 'computer'",
    // A one-call lookup, and the paper's other figures.
    "SELECT Count FROM WebCount WHERE T1 = 'Utah' AND T2 = 'computer'",
    "SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC",
    "SELECT Name, Count / Population AS C FROM States, WebCount \
     WHERE Name = T1 ORDER BY C DESC",
    "SELECT Capital, C.Count, Name, S.Count FROM States, WebCount C, WebCount S \
     WHERE Capital = C.T1 AND Name = S.T1 AND C.Count > S.Count",
    "SELECT Name, URL, Rank FROM Sigs, WebPages WHERE Name = T1 AND Rank <= 5",
    "SELECT Count FROM WebCount WHERE SearchExp = '%1 AND %2' \
     AND T1 = 'Colorado' AND T2 = 'skiing'",
    "SELECT S.Name, C.Name FROM Sigs S, CSFields C, WebCount W \
     WHERE S.Name = W.T1 AND C.Name = W.T2 AND W.Count > 10",
    // Index point and range access on a stored table.
    "SELECT Id, Cust, Amount, Note FROM Orders WHERE Id = 1234",
    "SELECT Cust, COUNT(*), SUM(Amount) FROM Orders \
     WHERE Id >= 100 AND Id < 300 GROUP BY Cust",
    "SELECT o.Id, c.Name FROM Orders o, Customers c \
     WHERE o.Cust = c.Id AND o.Id BETWEEN 10 AND 20",
    "SELECT Id FROM Orders WHERE Id > -5 AND Amount * 0.5 > 10.25",
    "SELECT Note FROM Orders WHERE Note = 'it''s' OR Id <= 3",
    // A view, alone and joined with a virtual table.
    "SELECT * FROM BigStates",
    "SELECT B.Name, Count FROM BigStates B, WebCount WHERE B.Name = T1",
    // Aggregates under ORDER BY, DISTINCT, LIMIT.
    "SELECT Capital, COUNT(*) AS N, MAX(Population) FROM States \
     GROUP BY Capital HAVING COUNT(*) > 0 ORDER BY N DESC, Capital LIMIT 5",
    "SELECT COUNT(*), AVG(Count) FROM States, WebCount WHERE Name = T1",
    "SELECT DISTINCT Capital FROM States ORDER BY 1",
    "SELECT Name FROM States WHERE Name LIKE 'New%' AND Population NOT IN (1, 2) LIMIT 3",
    // RERANK BY.
    "SELECT Name, URL FROM States, WebPages WHERE Name = T1 AND Rank <= 3 \
     RERANK BY url_depth ORDER BY Name",
    "SELECT URL, Rank FROM WebPages_Google WHERE T1 = 'Utah' RERANK BY url_len",
    // Racing.
    "SELECT Name, Count FROM States, WebCount_ANY WHERE Name = T1",
    "SELECT Name, URL FROM Sigs, WebPages_ANY WHERE Name = T1 AND Rank < 4",
    // Scalar and IN subqueries.
    "SELECT Name FROM States WHERE Population > (SELECT AVG(Population) FROM States)",
    "SELECT Name, Count FROM States, WebCount \
     WHERE Name = T1 AND Name IN (SELECT Name FROM BigStates)",
    // Errors explain too.
    "SELECT Count FROM WebCount WHERE T2 = 'x'",
    "SELECT Nope FROM States",
    "SELECT Name FROM States s, States s",
];

fn corpus_text() -> String {
    let mut wsq = Wsq::open_in_memory(WsqConfig::default()).unwrap();
    wsq.load_reference_data().unwrap();
    wsq.execute(
        "CREATE TABLE Orders (Id INT, Cust INT, Amount INT, Note VARCHAR(40)); \
         CREATE TABLE Customers (Id INT, Name VARCHAR(24), Region INT); \
         INSERT INTO Orders VALUES (1, 2, 30, 'a'), (2, 3, 40, 'it''s'); \
         INSERT INTO Customers VALUES (2, 'Ann', 1), (3, 'Bo', 2); \
         CREATE INDEX ON Orders (Id); \
         CREATE VIEW BigStates AS \
         SELECT Name, Population FROM States WHERE Population > 5000000",
    )
    .unwrap();
    wsq.set_race_group(&["AV", "Google"]).unwrap();
    let sync = QueryOptions {
        mode: ExecutionMode::Synchronous,
        ..QueryOptions::default()
    };
    let mut out = String::new();
    let mut explain = |label: &str, sql: &str, opts: QueryOptions| {
        out.push_str(&format!("-- {label}: {sql}\n"));
        match wsq.explain_with(sql, opts) {
            Ok(text) => out.push_str(&text),
            Err(e) => out.push_str(&format!("ERROR: {e}\n")),
        }
        out.push('\n');
    };
    for (i, sql) in CORPUS.iter().enumerate() {
        explain("async", sql, QueryOptions::default());
        if i < 3 {
            explain("sync", sql, sync);
        }
    }
    out
}

#[test]
fn explain_text_of_the_corpus_is_unchanged() {
    let got = corpus_text();
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("explain_golden.actual");
        std::fs::write(&path, &got).unwrap();
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "EXPLAIN text differs from tests/golden/explain.txt from line {}; \
             what this build printed is in {}",
            first + 1,
            path.display()
        );
    }
}
