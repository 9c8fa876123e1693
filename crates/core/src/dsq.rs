//! DSQ — Database-Supported (Web) Queries.
//!
//! The converse direction sketched in the paper's introduction: given a
//! keyword phrase, use the Web to *correlate* it with terms the database
//! knows about. For the phrase "scuba diving" and a database of states and
//! movies, DSQ finds the states and the movies that appear on the Web most
//! often near the phrase — and even state/movie/phrase **triples** (the
//! paper's example: an underwater thriller filmed in Florida).
//!
//! Implementation: DSQ *is* a WSQ query over the vocabulary table — one
//! `WebCount` row per term, `term NEAR phrase` — so it runs as SQL through
//! [`Wsq::query`]. Its calls go through ReqPump and ReqSync like any
//! query's: the admission cap, the query's trace scope and ANALYZE all
//! apply to it.

use wsq_common::{Result, Tuple};

use crate::Wsq;

/// A term correlated with the probe phrase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Correlation {
    /// The database term.
    pub term: String,
    /// Pages where the term occurs near the phrase.
    pub count: u64,
}

/// A pair of terms jointly correlated with the probe phrase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCorrelation {
    /// Term from the first vocabulary.
    pub a: String,
    /// Term from the second vocabulary.
    pub b: String,
    /// Pages where both terms occur near the phrase.
    pub count: u64,
}

/// Explores correlations between Web phrases and database vocabulary.
pub struct DsqExplorer {
    engine: String,
}

impl DsqExplorer {
    /// Build an explorer over one of `wsq`'s registered engines.
    pub fn new(wsq: &Wsq, engine: &str) -> Result<DsqExplorer> {
        let (name, _) = wsq.engines().get(engine)?;
        Ok(DsqExplorer {
            engine: name.to_string(),
        })
    }

    /// `SELECT {items}` over the terms of `table.column` that co-occur with
    /// `phrase`, strongest first.
    fn ranked_sql(&self, items: &str, phrase: &str, table: &str, column: &str) -> String {
        format!(
            "SELECT {items} FROM {table}, WebCount_{engine} \
             WHERE {column} = T1 AND T2 = '{phrase}' AND Count > 0 \
             ORDER BY Count DESC, {column}",
            engine = self.engine,
            phrase = phrase.replace('\'', "''"),
        )
    }

    /// The WSQ query [`DsqExplorer::correlate`] runs — DSQ *is* a
    /// Web-supported SQL query over the vocabulary table (the two
    /// directions share one machinery; §1 of the paper).
    pub fn suggest_sql(&self, phrase: &str, table: &str, column: &str) -> String {
        self.ranked_sql(&format!("{column}, Count"), phrase, table, column)
    }

    /// Correlate `phrase` with each term of `table.column`, strongest
    /// first. Terms with zero co-occurrence are dropped.
    pub fn correlate(
        &self,
        wsq: &mut Wsq,
        phrase: &str,
        table: &str,
        column: &str,
    ) -> Result<Vec<Correlation>> {
        let rows = wsq.query(&self.suggest_sql(phrase, table, column))?.rows;
        rows.iter()
            .map(|row| {
                Ok(Correlation {
                    term: term(row, 0)?,
                    count: row.get(1).as_int()? as u64,
                })
            })
            .collect()
    }

    /// Find term pairs, one from each `(table, column)` vocabulary,
    /// jointly correlated with `phrase`. To bound fan-out, only the
    /// `top_k` strongest singles of each vocabulary are paired: one
    /// three-way `WebCount` join whose two `IN` subqueries are
    /// [`DsqExplorer::correlate`]'s queries cut to `top_k`, so the join
    /// itself issues at most `top_k²` calls.
    pub fn correlate_pairs(
        &self,
        wsq: &mut Wsq,
        phrase: &str,
        (table_a, column_a): (&str, &str),
        (table_b, column_b): (&str, &str),
        top_k: usize,
    ) -> Result<Vec<PairCorrelation>> {
        let top_a = self.ranked_sql(column_a, phrase, table_a, column_a);
        let top_b = self.ranked_sql(column_b, phrase, table_b, column_b);
        let sql = format!(
            "SELECT A.{column_a}, B.{column_b}, W.Count \
             FROM {table_a} A, {table_b} B, WebCount_{engine} W \
             WHERE A.{column_a} IN ({top_a} LIMIT {top_k}) \
             AND B.{column_b} IN ({top_b} LIMIT {top_k}) \
             AND A.{column_a} = W.T1 AND B.{column_b} = W.T2 AND W.T3 = '{phrase}' \
             AND W.Count > 0 ORDER BY W.Count DESC, A.{column_a}, B.{column_b}",
            engine = self.engine,
            phrase = phrase.replace('\'', "''"),
        );
        let rows = wsq.query(&sql)?.rows;
        rows.iter()
            .map(|row| {
                Ok(PairCorrelation {
                    a: term(row, 0)?,
                    b: term(row, 1)?,
                    count: row.get(2).as_int()? as u64,
                })
            })
            .collect()
    }
}

/// Column `i` of a result row, as an owned term.
fn term(row: &Tuple, i: usize) -> Result<String> {
    Ok(row.get(i).as_str()?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WsqConfig;
    use std::time::Duration;
    use wsq_websim::LatencyModel;

    const PHRASE: &str = "scuba diving";

    fn setup() -> (Wsq, DsqExplorer) {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        let dsq = DsqExplorer::new(&wsq, "AV").unwrap();
        (wsq, dsq)
    }

    #[test]
    fn scuba_diving_correlates_with_coastal_states() {
        let (mut wsq, dsq) = setup();
        let corr = dsq.correlate(&mut wsq, PHRASE, "States", "Name").unwrap();
        assert!(!corr.is_empty());
        assert_eq!(corr[0].term, "Florida");
        let top: Vec<&str> = corr.iter().take(3).map(|c| c.term.as_str()).collect();
        assert!(
            top.contains(&"Hawaii") || top.contains(&"California"),
            "{top:?}"
        );
        // Landlocked Wyoming should not lead the list.
        assert!(corr.iter().all(|c| c.count > 0));
        assert_eq!(wsq.pump().live_calls(), 0);
    }

    #[test]
    fn scuba_diving_correlates_with_underwater_movies() {
        let (mut wsq, dsq) = setup();
        let corr = dsq.correlate(&mut wsq, PHRASE, "Movies", "Title").unwrap();
        assert!(!corr.is_empty());
        // The underwater thrillers lead (exact order among the top two is
        // sampling noise on the small test corpus).
        let top2: Vec<&str> = corr.iter().take(2).map(|c| c.term.as_str()).collect();
        assert!(top2.contains(&"The Abyss"), "top2: {top2:?}");
        let titles: Vec<&str> = corr.iter().map(|c| c.term.as_str()).collect();
        assert!(titles.contains(&"Thunderball"));
        assert!(!titles.contains(&"Fargo"), "Fargo is not a diving movie");
    }

    #[test]
    fn triples_issue_k_squared_calls_and_leave_no_ddl_behind() {
        let (mut wsq, dsq) = setup();
        let tables = wsq.db().catalog().table_names();
        let vocabularies = (("States", "Name"), ("Movies", "Title"));
        let pairs = dsq
            .correlate_pairs(&mut wsq, PHRASE, vocabularies.0, vocabularies.1, 3)
            .unwrap();
        assert!(!pairs.is_empty(), "no state/movie/scuba triples found");
        assert!(pairs.iter().all(|p| p.count > 0));
        // One call per state and per movie for the two top-3 cuts, then
        // exactly 3 × 3 for the pairs.
        assert_eq!(wsq.pump().stats().registered, 50 + 20 + 3 * 3);
        assert_eq!(wsq.db().catalog().table_names(), tables);
        assert!(wsq.db().catalog().view_names().is_empty());
        assert_eq!(wsq.pump().live_calls(), 0);
    }

    #[test]
    fn a_capped_correlate_matches_the_uncapped_one() {
        let (mut wsq, dsq) = setup();
        let uncapped = dsq.correlate(&mut wsq, PHRASE, "States", "Name").unwrap();
        let mut config = WsqConfig::fast();
        config.query.reqsync_cap = Some(4);
        // Calls that take a while, so that the cap binds.
        config.latency = LatencyModel::Fixed(Duration::from_millis(1));
        let mut wsq = Wsq::open_in_memory(config).unwrap();
        wsq.load_reference_data().unwrap();
        let capped = dsq.correlate(&mut wsq, PHRASE, "States", "Name").unwrap();
        assert_eq!(capped, uncapped);
        let m = wsq.obs().metrics().unwrap();
        let high_water = m.reqsync_buffered.high_water();
        assert!(high_water <= 4, "{high_water}");
        assert!(m.reqsync_stalls.get() > 0, "the cap never bound");
        assert_eq!(wsq.pump().live_calls(), 0);
    }

    #[test]
    fn unknown_engine_rejected() {
        let (wsq, _) = setup();
        assert!(DsqExplorer::new(&wsq, "Bing").is_err());
    }

    #[test]
    fn empty_vocabulary_is_fine() {
        let (mut wsq, dsq) = setup();
        wsq.execute("CREATE TABLE Nothing (Term VARCHAR(8))")
            .unwrap();
        let corr = dsq.correlate(&mut wsq, PHRASE, "Nothing", "Term");
        assert!(corr.unwrap().is_empty());
        let empty = ("Nothing", "Term");
        let pairs = dsq.correlate_pairs(&mut wsq, PHRASE, empty, ("Movies", "Title"), 3);
        assert!(pairs.unwrap().is_empty());
    }
}
