//! The Redbase substrate beyond SELECT: B+-tree indexes, UPDATE and
//! DELETE — a travel journal whose rows join against the (simulated) Web.
//!
//! ```sh
//! cargo run --release --example indexes_dml
//! ```

use wsqdsq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut wsq = Wsq::open_in_memory(WsqConfig::default())?;
    wsq.load_reference_data()?;

    wsq.execute(
        "CREATE TABLE Journal (Place VARCHAR(32), Year INT, Rating INT);
         INSERT INTO Journal VALUES
           ('Colorado', 1997, 5), ('Utah', 1997, 4), ('Maine', 1998, 3),
           ('Colorado', 1998, 4), ('Hawaii', 1999, 5), ('Texas', 1999, 2),
           ('Colorado', 1999, 5), ('Utah', 1999, 3);
         CREATE INDEX ON Journal (Place);
         CREATE INDEX ON Journal (Year)",
    )?;

    // The index turns the Place lookup into a B+-tree probe. The conjunct
    // stays above the scan as a filter: the index narrows, the filter
    // decides.
    let sql = "SELECT Place, Year, Rating FROM Journal WHERE Place = 'Colorado' ORDER BY Year";
    println!("{}", wsq.explain(sql)?);
    println!("{}", wsq.query(sql)?.to_table());

    // Range conjuncts on an indexed column — either operand order, BETWEEN
    // too — intersect into one inclusive key range; `<` stays exact
    // through its filter.
    let sql = "SELECT Place, Year FROM Journal \
               WHERE Year >= 1998 AND 2000 > Year AND Rating > 3 ORDER BY Year, Place";
    println!("{}", wsq.explain(sql)?);
    println!("{}", wsq.query(sql)?.to_table());

    // Fix up some data. UPDATE and DELETE find their victims through the
    // same access-path chooser as SELECT; EXPLAIN takes a SELECT, so the
    // one with the UPDATE's WHERE clause shows the path (a point on Place
    // beats the half-open range on Year).
    let victims = "Year >= 1999 AND Place = 'Texas'";
    println!(
        "{}",
        wsq.explain(&format!("SELECT * FROM Journal WHERE {victims}"))?
    );
    wsq.execute(&format!(
        "UPDATE Journal SET Rating = Rating + 1 WHERE {victims}"
    ))?;
    wsq.execute("DELETE FROM Journal WHERE Year = 1997")?;
    println!(
        "after UPDATE/DELETE:\n{}",
        wsq.query("SELECT Place, Year, Rating FROM Journal ORDER BY Year, Place")?
            .to_table()
    );

    // Journal places, their Web presence, and our rating — an indexed
    // table joined through a dependent join to the search engine.
    let sql = "SELECT DISTINCT Place, Count FROM Journal, WebCount \
               WHERE Place = T1 ORDER BY Count DESC, Place";
    println!("{}", wsq.query(sql)?.to_table());

    // HAVING + aggregates over the journal.
    let sql = "SELECT Place, COUNT(*) AS visits, AVG(Rating) AS avg_rating \
               FROM Journal GROUP BY Place HAVING COUNT(*) > 1 ORDER BY Place";
    println!("{}", wsq.query(sql)?.to_table());

    // A stored VIEW over the Web-supported join: the paper calls WebCount
    // "an aggregate view over WebPages" — user views compose the same way.
    wsq.execute(
        "CREATE VIEW PlaceBuzz AS \
         SELECT DISTINCT Place, Count AS Hits FROM Journal, WebCount WHERE Place = T1",
    )?;
    println!(
        "{}",
        wsq.query("SELECT Place, Hits FROM PlaceBuzz ORDER BY Hits DESC, Place")?
            .to_table()
    );

    // Subquery: places we rated above our own average.
    let sql = "SELECT DISTINCT Place FROM Journal \
               WHERE Rating > (SELECT AVG(Rating) FROM Journal) ORDER BY Place";
    println!("{}", wsq.query(sql)?.to_table());

    // Materialize the Web counts into a local cache table.
    wsq.execute(
        "CREATE TABLE BuzzCache (Place VARCHAR(32), Hits INT);
         INSERT INTO BuzzCache SELECT Place, Hits FROM PlaceBuzz",
    )?;
    println!(
        "cached {} rows locally; SHOW TABLES:\n{}",
        wsq.query("SELECT COUNT(*) FROM BuzzCache")?.rows[0]
            .get(0)
            .as_int()?,
        wsq.query("SHOW TABLES")?.to_table()
    );
    Ok(())
}
