//! The external search-service abstraction.
//!
//! The query engine never talks to a search engine directly; it builds
//! [`SearchRequest`]s and hands them to [`crate::ReqPump`], in both
//! execution modes: a synchronous `EVScan` registers its call and waits
//! for it, an asynchronous `AEVScan` registers it and moves on.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use wsq_common::Result;
use wsq_obs::{LabelParts, Render};

/// What a request asks the engine for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// The total number of matching pages (`WebCount`). Search engines
    /// return this immediately without delivering URLs (paper §3).
    Count,
    /// The top URLs for the expression (`WebPages`), limited to ranks
    /// `1..=max_rank` — the rank bound is effectively an engine input.
    Pages {
        /// Highest rank (inclusive) to retrieve.
        max_rank: u32,
    },
}

/// A fully-instantiated request to one search engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SearchRequest {
    /// Destination engine name (e.g. `"AV"`, `"Google"`). Also the key for
    /// per-destination concurrency limits.
    pub engine: String,
    /// The instantiated search expression (after `%i` substitution).
    pub expr: String,
    /// Count or ranked-pages request.
    pub kind: RequestKind,
}

impl fmt::Display for SearchRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            RequestKind::Count => write!(f, "{}:count({:?})", self.engine, self.expr),
            RequestKind::Pages { max_rank } => {
                write!(
                    f,
                    "{}:pages({:?}, rank<={max_rank})",
                    self.engine, self.expr
                )
            }
        }
    }
}

/// A request labels its call's `Registered` event by its parts: the
/// trace copies the kind, the engine and the expression, and formats them
/// as the request's `Display` only when it is read.
impl LabelParts for SearchRequest {
    fn encode(&self, out: &mut Vec<u8>) -> Render {
        out.reserve(9 + self.engine.len() + self.expr.len());
        match self.kind {
            RequestKind::Count => out.push(0),
            RequestKind::Pages { max_rank } => {
                out.push(1);
                out.extend_from_slice(&max_rank.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.engine.len() as u32).to_le_bytes());
        out.extend_from_slice(self.engine.as_bytes());
        out.extend_from_slice(self.expr.as_bytes());
        |bytes| decode_request(bytes).map_or_else(String::new, |req| req.to_string())
    }
}

/// The request whose label parts are `bytes`.
fn decode_request(bytes: &[u8]) -> Option<SearchRequest> {
    let (&tag, rest) = bytes.split_first()?;
    let (kind, rest) = match tag {
        0 => (RequestKind::Count, rest),
        _ => {
            let (rank, rest) = rest.split_first_chunk::<4>()?;
            let max_rank = u32::from_le_bytes(*rank);
            (RequestKind::Pages { max_rank }, rest)
        }
    };
    let (len, rest) = rest.split_first_chunk::<4>()?;
    let (engine, expr) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
    let text = |b| String::from_utf8_lossy(b).into_owned();
    Some(SearchRequest {
        engine: text(engine),
        expr: text(expr),
        kind,
    })
}

/// One ranked search hit.
///
/// The strings are reference-counted so that a `WebPages` row patched
/// from a (cached) hit shares the hit's bytes with every other row and
/// query that reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageHit {
    /// Result URL.
    pub url: Arc<str>,
    /// 1-based rank assigned by the engine.
    pub rank: u32,
    /// Page date as an ISO `YYYY-MM-DD` string.
    pub date: Arc<str>,
}

/// A completed search result.
///
/// The pages payload is reference-counted: results flow from the service
/// through the pump's result store, the cache, and into every patched
/// tuple, and each hop used to deep-copy the hit vector. `Arc<[PageHit]>`
/// makes every clone on that path a pointer bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchResult {
    /// Total page count for a [`RequestKind::Count`] request.
    Count(u64),
    /// Ranked hits for a [`RequestKind::Pages`] request, rank ascending.
    Pages(Arc<[PageHit]>),
}

impl SearchResult {
    /// Build a pages result from a hit vector.
    pub fn pages_from(hits: Vec<PageHit>) -> Self {
        SearchResult::Pages(hits.into())
    }

    /// The count, if this is a count result.
    pub fn count(&self) -> Option<u64> {
        match self {
            SearchResult::Count(c) => Some(*c),
            SearchResult::Pages(_) => None,
        }
    }

    /// The hits, if this is a pages result.
    pub fn pages(&self) -> Option<&[PageHit]> {
        match self {
            SearchResult::Pages(p) => Some(p),
            SearchResult::Count(_) => None,
        }
    }
}

/// A service's reply: the result plus how long the "network" takes.
///
/// `latency` is the *additional* simulated wait before the result becomes
/// visible. The pump's timer thread delivers the reply `latency` after
/// launch without blocking any thread, and a reply with `latency == 0` is
/// delivered at once by the thread that ran [`SearchService::execute`].
/// A service models its wait by declaring it here, not by blocking inside
/// `execute`.
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// Result or failure.
    pub result: Result<SearchResult>,
    /// Simulated network latency still to elapse.
    pub latency: Duration,
}

impl ServiceReply {
    /// A successful instant reply (zero latency).
    pub fn instant(result: SearchResult) -> Self {
        ServiceReply {
            result: Ok(result),
            latency: Duration::ZERO,
        }
    }
}

/// An external search engine (or any other high-latency source).
pub trait SearchService: Send + Sync {
    /// Compute the reply for `req`.
    ///
    /// The caller is the thread that made the call launchable: the query
    /// thread inside [`crate::ReqPump::register`] (or `register_batch` /
    /// `register_race`) when the call fits under the concurrency caps,
    /// otherwise whichever thread's delivery freed the capacity — another
    /// registrant, or the pump's timer thread. `execute` must therefore be
    /// cheap: compute the result, declare the wait as
    /// [`ServiceReply::latency`], return. A service that blocks here
    /// blocks that thread — the query, or the timer and every delivery
    /// behind it — and the pump has no other path for it.
    ///
    /// Several threads may be inside `execute` at once. A panic here fails
    /// the call with `WsqError::Search("service panicked: …")`; it does not
    /// take the launching thread or the pump down.
    fn execute(&self, req: &SearchRequest) -> ServiceReply;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_display() {
        let r = SearchRequest {
            engine: "Google".into(),
            expr: "four corners".into(),
            kind: RequestKind::Pages { max_rank: 5 },
        };
        assert_eq!(r.to_string(), "Google:pages(\"four corners\", rank<=5)");
        // The trace label formats the same text from the parts it copied.
        let quoted = SearchRequest {
            engine: "AV".into(),
            expr: "say \"hi\"\n".into(),
            kind: RequestKind::Count,
        };
        for r in [r, quoted] {
            let mut bytes = vec![7];
            let render = r.encode(&mut bytes);
            assert_eq!(render(&bytes[1..]), r.to_string());
        }
    }

    #[test]
    fn result_accessors() {
        assert_eq!(SearchResult::Count(3).count(), Some(3));
        assert_eq!(SearchResult::Count(3).pages(), None);
        let p = SearchResult::pages_from(vec![]);
        assert_eq!(p.count(), None);
        assert_eq!(p.pages().unwrap().len(), 0);
    }
}
