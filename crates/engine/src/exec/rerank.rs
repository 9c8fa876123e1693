//! QR2-style reranking (paper §6 "related services"): reorder the web
//! results an engine returned by a third-party scoring function instead
//! of trusting the engine's own rank.
//!
//! The operator is a materializing pipeline breaker, like Sort: it drains
//! its input, scores each tuple's target column ([`RerankScorer`]), and
//! re-emits in ascending score order with a **stable** sort, so ties keep
//! the input (engine) order. The asyncify pass flushes rising ReqSyncs
//! below it — scoring an unresolved placeholder would order tuples by a
//! sentinel, which is exactly the §4.5.2 clash the verifier rejects.

use super::Executor;
use crate::expr::ColumnSet;
use crate::plan::RerankScorer;
use wsq_common::{Result, Schema, Tuple, WsqError};

/// Materializing rerank: stable ascending sort by a scored column.
pub struct RerankExec {
    child: Box<dyn Executor>,
    scorer: RerankScorer,
    /// Index of the scorer's target column in the input schema.
    target: usize,
    schema: Schema,
    ranked: Vec<Tuple>,
    pos: usize,
}

impl RerankExec {
    /// Rerank `child` by `scorer`. Fails if the scorer's target column
    /// is not in the child's schema.
    pub fn new(child: Box<dyn Executor>, scorer: RerankScorer) -> Result<Self> {
        let schema = child.schema().clone();
        let target = schema.resolve(None, scorer.target_column())?;
        Ok(RerankExec {
            child,
            scorer,
            target,
            schema,
            ranked: Vec::new(),
            pos: 0,
        })
    }
}

impl Executor for RerankExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, _live: ColumnSet) {
        // A scorer may read anything of the row it scores.
        self.child.narrow(ColumnSet::ALL);
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        let mut rows: Vec<(i64, Tuple)> = Vec::new();
        while let Some(t) = self.child.next()? {
            let v = t.get(self.target);
            if v.is_pending() {
                // The asyncify pass places Rerank above every ReqSync, so
                // a placeholder reaching the scorer is a planner bug (the
                // §4.5.2 verifier's rerank-below-sync mutation trips this).
                return Err(WsqError::Exec(format!(
                    "rerank scorer '{}' applied to an unresolved placeholder",
                    self.scorer
                )));
            }
            rows.push((self.scorer.score(v), t));
        }
        self.child.close()?;
        // Stable: equal scores keep the engine's original order.
        rows.sort_by_key(|(s, _)| *s);
        self.ranked = rows.into_iter().map(|(_, t)| t).collect();
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(super::basic::take_next(&mut self.ranked, &mut self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, ValuesExec};
    use wsq_common::{Column, DataType, Value};

    fn pages(urls: &[&str]) -> Box<dyn Executor> {
        let schema = Schema::new(vec![
            Column::new("URL", DataType::Varchar),
            Column::new("Rank", DataType::Int),
        ]);
        Box::new(ValuesExec::new(
            schema,
            urls.iter()
                .enumerate()
                .map(|(i, u)| Tuple::new(vec![Value::from(*u), Value::Int(i as i64 + 1)]))
                .collect(),
        ))
    }

    #[test]
    fn url_depth_orders_shallow_first_and_is_stable() {
        let mut exec = RerankExec::new(
            pages(&[
                "http://a.example/x/y/z",
                "http://b.example/",
                "http://c.example/p/q",
                "http://d.example/",
            ]),
            RerankScorer::UrlDepth,
        )
        .unwrap();
        let out = collect(&mut exec).unwrap();
        let urls: Vec<&str> = out.iter().map(|t| t.get(0).as_str().unwrap()).collect();
        // b and d tie on depth 3 and keep engine order (b before d).
        assert_eq!(
            urls,
            vec![
                "http://b.example/",
                "http://d.example/",
                "http://c.example/p/q",
                "http://a.example/x/y/z",
            ]
        );
    }

    #[test]
    fn rank_scorer_is_the_identity_on_engine_order() {
        let mut exec = RerankExec::new(pages(&["u1", "u2", "u3"]), RerankScorer::Rank).unwrap();
        let before = collect(&mut exec).unwrap();
        let urls: Vec<&str> = before.iter().map(|t| t.get(0).as_str().unwrap()).collect();
        assert_eq!(urls, vec!["u1", "u2", "u3"]);
    }

    #[test]
    fn placeholder_score_is_an_execution_error() {
        let schema = Schema::new(vec![Column::new("URL", DataType::Varchar)]);
        let child = Box::new(ValuesExec::new(
            schema,
            vec![Tuple::new(vec![Value::Pending(wsq_common::Placeholder {
                call: wsq_common::CallId(7),
                col: wsq_common::PendingCol::Url,
            })])],
        ));
        let mut exec = RerankExec::new(child, RerankScorer::UrlLen).unwrap();
        let err = exec.open().unwrap_err().to_string();
        assert!(err.contains("placeholder"), "{err}");
    }

    #[test]
    fn missing_target_column_rejected_at_build() {
        let schema = Schema::new(vec![Column::new("Count", DataType::Int)]);
        let child = Box::new(ValuesExec::new(schema, vec![]));
        assert!(RerankExec::new(child, RerankScorer::UrlDepth).is_err());
    }
}
