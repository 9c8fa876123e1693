//! Simulated search-engine personalities.
//!
//! Two engines with 1999-era characters:
//!
//! * **AltaVista** — supports the `NEAR` operator; ranking weights
//!   term-frequency heavily with a mild static-authority component.
//! * **Google** — no `NEAR` (queries degrade to `AND`, which is why WSQ's
//!   default `SearchExp` for Google is `"%1 %2 … %n"`); ranking is
//!   dominated by static (link-style) authority.
//!
//! Both implement [`wsq_pump::SearchService`], so they plug into either the
//! synchronous `EVScan` path or the asynchronous ReqPump path unchanged.

use crate::corpus::Corpus;
use crate::latency::LatencyModel;
use crate::search::{evaluate, parse_query, PageMatch};
use std::sync::Arc;
use wsq_pump::{PageHit, RequestKind, SearchRequest, SearchResult, SearchService, ServiceReply};

/// Which engine personality to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// AltaVista-like: `NEAR` support, tf-weighted ranking.
    AltaVista,
    /// Google-like: `AND` semantics, authority-weighted ranking.
    Google,
}

impl EngineKind {
    /// Does this engine support the `NEAR` proximity operator?
    pub fn supports_near(&self) -> bool {
        matches!(self, EngineKind::AltaVista)
    }

    /// Conventional destination name used in examples and benchmarks.
    pub fn default_name(&self) -> &'static str {
        match self {
            EngineKind::AltaVista => "AV",
            EngineKind::Google => "Google",
        }
    }
}

/// A simulated search engine over a shared corpus.
pub struct SimEngine {
    corpus: Arc<Corpus>,
    kind: EngineKind,
    latency: LatencyModel,
}

impl SimEngine {
    /// Create an engine of `kind` over `corpus` with the given latency.
    pub fn new(corpus: Arc<Corpus>, kind: EngineKind, latency: LatencyModel) -> Self {
        SimEngine {
            corpus,
            kind,
            latency,
        }
    }

    /// The engine personality.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Total number of pages matching `expr` — what `WebCount` reports.
    /// Engines return this without delivering URLs (paper §3).
    pub fn count(&self, expr: &str) -> u64 {
        let q = parse_query(expr, self.kind.supports_near());
        evaluate(&self.corpus, &q).len() as u64
    }

    /// The top `max_rank` hits for `expr`, rank ascending — `WebPages`.
    pub fn search(&self, expr: &str, max_rank: u32) -> Vec<PageHit> {
        let q = parse_query(expr, self.kind.supports_near());
        let mut matches = evaluate(&self.corpus, &q);
        self.sort_by_score(&mut matches);
        matches
            .iter()
            .take(max_rank as usize)
            .enumerate()
            .map(|(i, m)| {
                let page = &self.corpus.pages[m.page as usize];
                PageHit {
                    url: page.url.as_str().into(),
                    rank: i as u32 + 1,
                    date: page.date.as_str().into(),
                }
            })
            .collect()
    }

    fn score(&self, m: &PageMatch) -> f64 {
        let page = &self.corpus.pages[m.page as usize];
        // Saturating tf: more mentions help, with diminishing returns.
        let tf = m.occurrences as f64 / (1.0 + m.occurrences as f64);
        match self.kind {
            EngineKind::AltaVista => 2.0 * tf + 0.8 * page.av_auth,
            EngineKind::Google => 0.4 * tf + 2.5 * page.g_auth,
        }
    }

    fn sort_by_score(&self, matches: &mut [PageMatch]) {
        matches.sort_by(|a, b| {
            self.score(b)
                .partial_cmp(&self.score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.page.cmp(&b.page)) // deterministic tiebreak
        });
    }
}

impl SearchService for SimEngine {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        let result = match &req.kind {
            RequestKind::Count => SearchResult::Count(self.count(&req.expr)),
            RequestKind::Pages { max_rank } => {
                SearchResult::pages_from(self.search(&req.expr, *max_rank))
            }
        };
        ServiceReply {
            result: Ok(result),
            latency: self.latency.sample(&format!("{req}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use std::time::Duration;

    fn corpus() -> Arc<Corpus> {
        Arc::new(Corpus::generate(&CorpusConfig::small()))
    }

    #[test]
    fn count_reflects_weights() {
        let c = corpus();
        let av = SimEngine::new(c, EngineKind::AltaVista, LatencyModel::Zero);
        let ca = av.count("California");
        let wy = av.count("Wyoming");
        assert!(ca > wy * 5, "California ({ca}) should dwarf Wyoming ({wy})");
        assert!(wy > 0);
    }

    #[test]
    fn search_returns_ranked_hits() {
        let c = corpus();
        let av = SimEngine::new(c, EngineKind::AltaVista, LatencyModel::Zero);
        let hits = av.search("Texas", 10);
        assert_eq!(hits.len(), 10);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.rank, i as u32 + 1);
            assert!(!h.url.is_empty());
            assert!(h.date.starts_with("199"));
        }
        // Determinism.
        let av2 = SimEngine::new(corpus(), EngineKind::AltaVista, LatencyModel::Zero);
        assert_eq!(av2.search("Texas", 10), hits);
    }

    #[test]
    fn engines_rank_differently_but_sometimes_agree() {
        let c = corpus();
        let av = SimEngine::new(c.clone(), EngineKind::AltaVista, LatencyModel::Zero);
        let go = SimEngine::new(c, EngineKind::Google, LatencyModel::Zero);
        let mut agreements = 0;
        let mut disagreements = 0;
        for state in [
            "California",
            "Texas",
            "Florida",
            "Ohio",
            "Georgia",
            "Nevada",
        ] {
            let a: std::collections::HashSet<Arc<str>> =
                av.search(state, 5).into_iter().map(|h| h.url).collect();
            let g: std::collections::HashSet<Arc<str>> =
                go.search(state, 5).into_iter().map(|h| h.url).collect();
            agreements += a.intersection(&g).count();
            disagreements += a.difference(&g).count();
        }
        assert!(agreements > 0, "engines never agree");
        assert!(
            disagreements > agreements,
            "engines agree too much ({agreements} vs {disagreements})"
        );
    }

    #[test]
    fn google_ignores_near_but_still_ands() {
        let c = corpus();
        let go = SimEngine::new(c.clone(), EngineKind::Google, LatencyModel::Zero);
        let av = SimEngine::new(c, EngineKind::AltaVista, LatencyModel::Zero);
        // For Google, `near` is an ordinary keyword that matches nothing
        // much; WSQ's planner therefore uses the space-separated template.
        let and_count = go.count("Colorado \"four corners\"");
        let near_count = av.count("Colorado near \"four corners\"");
        assert!(and_count >= near_count, "AND is weaker than NEAR");
        assert!(near_count > 0);
    }

    #[test]
    fn knuth_ordering_matches_paper_footnote() {
        let c = corpus();
        let av = SimEngine::new(c, EngineKind::AltaVista, LatencyModel::Zero);
        let ordered = [
            "SIGACT", "SIGPLAN", "SIGGRAPH", "SIGMOD", "SIGCOMM", "SIGSAM",
        ];
        let counts: Vec<u64> = ordered
            .iter()
            .map(|s| av.count(&format!("{s} near Knuth")))
            .collect();
        for w in counts.windows(2) {
            assert!(w[0] > w[1], "Knuth ordering violated: {counts:?}");
        }
        // All other Sigs: count 0.
        assert_eq!(av.count("SIGCHI near Knuth"), 0);
        assert_eq!(av.count("SIGOPS near Knuth"), 0);
    }

    #[test]
    fn service_trait_roundtrip_with_latency() {
        let c = corpus();
        let av = SimEngine::new(
            c,
            EngineKind::AltaVista,
            LatencyModel::Fixed(Duration::from_millis(5)),
        );
        let req = SearchRequest {
            engine: "AV".into(),
            expr: "Michigan".into(),
            kind: RequestKind::Count,
        };
        let reply = av.execute(&req);
        assert_eq!(reply.latency, Duration::from_millis(5));
        assert!(reply.result.unwrap().count().unwrap() > 0);

        let req = SearchRequest {
            engine: "AV".into(),
            expr: "Michigan".into(),
            kind: RequestKind::Pages { max_rank: 3 },
        };
        let reply = av.execute(&req);
        assert_eq!(reply.result.unwrap().pages().unwrap().len(), 3);
    }

    #[test]
    fn empty_expression_matches_nothing() {
        let c = corpus();
        let av = SimEngine::new(c, EngineKind::AltaVista, LatencyModel::Zero);
        assert_eq!(av.count(""), 0);
        assert!(av.search("", 5).is_empty());
    }
}
