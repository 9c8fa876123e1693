//! The simulated Web: a deterministic synthetic corpus plus search-engine
//! personalities standing in for 1999's AltaVista and Google.
//!
//! This crate is the substitution documented in `DESIGN.md` §4: the paper
//! queries the live Web through commercial search engines; we generate a
//! corpus whose statistics reproduce the *shapes* of the paper's results
//! (state popularity, the "four corners" cluster, capital/state name
//! collisions, the SIG-"Knuth" co-occurrences) and expose it through the
//! same interface WSQ uses for real engines
//! ([`wsq_pump::SearchService`]).
//!
//! ```
//! use wsq_websim::{CorpusConfig, EngineKind, SimWeb};
//!
//! let web = SimWeb::build(CorpusConfig::small());
//! let av = web.engine(EngineKind::AltaVista);
//! assert!(av.count("California") > av.count("Wyoming"));
//! ```

pub mod cache;
pub mod corpus;
pub mod data;
pub mod degraded;
pub mod engine;
pub mod latency;
pub mod retry;
pub mod search;
pub mod symbols;

pub use cache::{CacheConfig, CacheStats, CachedService};
pub use corpus::{Corpus, CorpusConfig, Page};
pub use degraded::{DegradedConfig, DegradedService, DegradedStats};
pub use engine::{EngineKind, SimEngine};
pub use latency::LatencyModel;
pub use retry::RetryService;
pub use search::{parse_query, Connective, WebQuery};

use std::sync::Arc;

/// A handle to one generated Web: share it among any number of engines.
#[derive(Clone)]
pub struct SimWeb {
    corpus: Arc<Corpus>,
}

impl SimWeb {
    /// Generate the Web described by `config` (deterministic).
    pub fn build(config: CorpusConfig) -> SimWeb {
        SimWeb {
            corpus: Arc::new(Corpus::generate(&config)),
        }
    }

    /// The underlying corpus.
    pub fn corpus(&self) -> &Arc<Corpus> {
        &self.corpus
    }

    /// An engine of `kind` with zero latency (for tests).
    pub fn engine(&self, kind: EngineKind) -> Arc<SimEngine> {
        self.engine_with_latency(kind, LatencyModel::Zero)
    }

    /// An engine of `kind` with the given latency model.
    pub fn engine_with_latency(&self, kind: EngineKind, latency: LatencyModel) -> Arc<SimEngine> {
        Arc::new(SimEngine::new(self.corpus.clone(), kind, latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_share_one_corpus() {
        let web = SimWeb::build(CorpusConfig::small());
        let av = web.engine(EngineKind::AltaVista);
        let go = web.engine(EngineKind::Google);
        // Single keywords have identical counts regardless of personality
        // (AND vs NEAR only matters for multi-phrase queries).
        assert_eq!(av.count("Texas"), go.count("Texas"));
    }
}
