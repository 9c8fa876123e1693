//! Property tests for the search substrate: the inverted-index evaluator
//! must agree with a brute-force reference matcher, and with the
//! materialise-then-intersect evaluator it replaced, on random corpora and
//! random queries.

use proptest::prelude::*;
use std::collections::HashMap;
use wsq_websim::corpus::{Corpus, Page, Posting};
use wsq_websim::search::{evaluate, Connective, PageMatch, WebQuery};
use wsq_websim::symbols::SymbolTable;

/// Small vocabulary so collisions and co-occurrence are common.
const WORDS: &[&str] = &["alpha", "beta", "gamma", "delta", "echo", "fox"];

/// The word for index `w`; `WORDS.len()` names a word no page contains.
fn word(w: usize) -> String {
    WORDS.get(w).unwrap_or(&"zulu").to_string()
}

fn query_of(phrases: &[Vec<usize>], connective: Connective) -> WebQuery {
    WebQuery {
        phrases: phrases
            .iter()
            .map(|p| p.iter().map(|&w| word(w)).collect())
            .collect(),
        connective,
    }
}

fn build_corpus(pages: &[Vec<usize>], window: u32) -> Corpus {
    let mut symbols = SymbolTable::new();
    let word_syms: Vec<u32> = WORDS.iter().map(|w| symbols.intern(w)).collect();
    let mut built = Vec::new();
    let mut index: HashMap<u32, Vec<Posting>> = HashMap::new();
    for (pid, words) in pages.iter().enumerate() {
        let terms: Vec<u32> = words.iter().map(|&w| word_syms[w % WORDS.len()]).collect();
        for (pos, &t) in terms.iter().enumerate() {
            let ps = index.entry(t).or_default();
            match ps.last_mut() {
                Some(p) if p.page == pid as u32 => p.positions.push(pos as u32),
                _ => ps.push(Posting {
                    page: pid as u32,
                    positions: vec![pos as u32],
                }),
            }
        }
        built.push(Page {
            url: format!("www.p{pid}.test/"),
            date: "1999-01-01".into(),
            terms,
            av_auth: 0.5,
            g_auth: 0.5,
        });
    }
    Corpus {
        symbols,
        pages: built,
        index,
        near_window: window,
    }
}

/// Brute-force reference: all start positions of `phrase` in `page`.
fn phrase_starts(page: &[usize], phrase: &[usize]) -> Vec<i64> {
    if phrase.is_empty() || phrase.len() > page.len() {
        return vec![];
    }
    (0..=page.len() - phrase.len())
        .filter(|&s| {
            phrase
                .iter()
                .enumerate()
                .all(|(k, &w)| page[s + k] % WORDS.len() == w)
        })
        .map(|s| s as i64)
        .collect()
}

/// Brute-force query evaluation.
fn reference_matches(
    pages: &[Vec<usize>],
    phrases: &[Vec<usize>],
    connective: Connective,
    window: u32,
) -> Vec<u32> {
    let mut out = Vec::new();
    'pages: for (pid, page) in pages.iter().enumerate() {
        let occ: Vec<Vec<i64>> = phrases.iter().map(|p| phrase_starts(page, p)).collect();
        if occ.iter().any(|o| o.is_empty()) {
            continue;
        }
        if connective == Connective::Near && phrases.len() > 1 {
            for pair in occ.windows(2) {
                let close = pair[0]
                    .iter()
                    .any(|&a| pair[1].iter().any(|&b| (a - b).abs() <= window as i64));
                if !close {
                    continue 'pages;
                }
            }
        }
        out.push(pid as u32);
    }
    out
}

/// The evaluator `search::evaluate` replaced, kept as a second reference:
/// materialise every phrase's `page → starts` map, then intersect.
fn evaluate_materialised(corpus: &Corpus, query: &WebQuery) -> Vec<PageMatch> {
    fn phrase_occurrences(corpus: &Corpus, words: &[String]) -> HashMap<u32, Vec<u32>> {
        let mut out: HashMap<u32, Vec<u32>> = HashMap::new();
        let Some(first_sym) = corpus.symbols.get(&words[0]) else {
            return out;
        };
        let Some(first_postings) = corpus.index.get(&first_sym) else {
            return out;
        };
        let mut rest_syms = Vec::with_capacity(words.len() - 1);
        for w in &words[1..] {
            match corpus.symbols.get(w) {
                Some(s) => rest_syms.push(s),
                None => return out,
            }
        }
        for posting in first_postings {
            let page_terms = &corpus.pages[posting.page as usize].terms;
            let mut starts = Vec::new();
            'pos: for &p in &posting.positions {
                for (k, &sym) in rest_syms.iter().enumerate() {
                    let idx = p as usize + k + 1;
                    if idx >= page_terms.len() || page_terms[idx] != sym {
                        continue 'pos;
                    }
                }
                starts.push(p);
            }
            if !starts.is_empty() {
                out.insert(posting.page, starts);
            }
        }
        out
    }

    if query.phrases.is_empty() {
        return Vec::new();
    }
    let occ: Vec<HashMap<u32, Vec<u32>>> = query
        .phrases
        .iter()
        .map(|p| phrase_occurrences(corpus, p))
        .collect();
    let smallest = occ
        .iter()
        .enumerate()
        .min_by_key(|(_, m)| m.len())
        .map(|(i, _)| i)
        .expect("non-empty phrase list");
    let mut matches = Vec::new();
    'pages: for &page in occ[smallest].keys() {
        for m in &occ {
            if !m.contains_key(&page) {
                continue 'pages;
            }
        }
        if query.connective == Connective::Near && occ.len() > 1 {
            let w = corpus.near_window as i64;
            for pair in occ.windows(2) {
                let a = &pair[0][&page];
                let b = &pair[1][&page];
                let close = a
                    .iter()
                    .any(|&pa| b.iter().any(|&pb| (pa as i64 - pb as i64).abs() <= w));
                if !close {
                    continue 'pages;
                }
            }
        }
        let occurrences: u32 = occ.iter().map(|m| m[&page].len() as u32).sum();
        matches.push(PageMatch { page, occurrences });
    }
    matches
}

/// `(page, occurrences)` in page order.
fn sorted(mut matches: Vec<PageMatch>) -> Vec<(u32, u32)> {
    matches.sort_unstable_by_key(|m| m.page);
    matches.iter().map(|m| (m.page, m.occurrences)).collect()
}

fn arb_pages() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0..WORDS.len(), 0..20), 1..20)
}

fn arb_phrases() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0..WORDS.len(), 1..3), 1..4)
}

/// Like [`arb_phrases`], but a word may be unknown to the corpus and the
/// first phrase may appear a second time at the end.
fn arb_phrases_with_unknown_and_repeat() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (
        prop::collection::vec(prop::collection::vec(0..WORDS.len() + 1, 1..3), 1..4),
        any::<bool>(),
    )
        .prop_map(|(mut phrases, repeat)| {
            if repeat {
                phrases.push(phrases[0].clone());
            }
            phrases
        })
}

/// The evaluator against both references on one case.
fn check_case(pages: &[Vec<usize>], phrases: &[Vec<usize>], connective: Connective, window: u32) {
    let corpus = build_corpus(pages, window);
    let query = query_of(phrases, connective);
    let got = sorted(evaluate(&corpus, &query));
    assert_eq!(got, sorted(evaluate_materialised(&corpus, &query)));
    let pages_got: Vec<u32> = got.iter().map(|(p, _)| *p).collect();
    assert_eq!(
        pages_got,
        reference_matches(pages, phrases, connective, window)
    );
}

#[test]
fn three_phrase_near_chain() {
    // alpha .. beta gamma .. delta: the chain holds on page 0 only; page 1
    // has the right phrases with the last link too far; page 2 lacks one.
    let pages = vec![
        vec![0, 4, 1, 2, 3],
        vec![0, 1, 2, 4, 4, 4, 4, 3],
        vec![0, 1, 2],
    ];
    let phrases = vec![vec![0], vec![1, 2], vec![3]];
    check_case(&pages, &phrases, Connective::Near, 2);
    let corpus = build_corpus(&pages, 2);
    let near = evaluate(&corpus, &query_of(&phrases, Connective::Near));
    assert_eq!(sorted(near), vec![(0, 3)]);
    check_case(&pages, &phrases, Connective::And, 2);
}

#[test]
fn unknown_word_matches_nothing() {
    let pages = vec![vec![0, 1, 2], vec![1, 0]];
    let unknown = WORDS.len();
    for phrases in [
        vec![vec![unknown]],
        vec![vec![0], vec![unknown]],
        vec![vec![0, unknown]],
        vec![vec![unknown, 0], vec![1]],
    ] {
        check_case(&pages, &phrases, Connective::And, 3);
        check_case(&pages, &phrases, Connective::Near, 3);
        let corpus = build_corpus(&pages, 3);
        assert!(evaluate(&corpus, &query_of(&phrases, Connective::Near)).is_empty());
    }
}

#[test]
fn repeated_phrase_counts_its_occurrences_twice() {
    let pages = vec![vec![0, 1, 0, 1, 5], vec![1, 0], vec![5, 5]];
    let phrases = vec![vec![0, 1], vec![5], vec![0, 1]];
    check_case(&pages, &phrases, Connective::And, 1);
    check_case(&pages, &phrases, Connective::Near, 1);
    let corpus = build_corpus(&pages, 1);
    let and = evaluate(&corpus, &query_of(&phrases, Connective::And));
    assert_eq!(sorted(and), vec![(0, 5)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_evaluator_matches_brute_force(
        pages in arb_pages(),
        phrases in arb_phrases(),
        near in any::<bool>(),
        window in 1u32..6,
    ) {
        let corpus = build_corpus(&pages, window);
        let connective = if near { Connective::Near } else { Connective::And };
        let query = query_of(&phrases, connective);
        let mut got: Vec<u32> = evaluate(&corpus, &query).iter().map(|m| m.page).collect();
        got.sort_unstable();
        let expected = reference_matches(&pages, &phrases, connective, window);
        prop_assert_eq!(got, expected);
    }

    /// Same match set and the same `occurrences` as the evaluator this one
    /// replaced, unknown words and repeated phrases included.
    #[test]
    fn index_evaluator_matches_the_materialising_evaluator(
        pages in arb_pages(),
        phrases in arb_phrases_with_unknown_and_repeat(),
        near in any::<bool>(),
        window in 1u32..6,
    ) {
        let connective = if near { Connective::Near } else { Connective::And };
        check_case(&pages, &phrases, connective, window);
    }

    /// Occurrence counts agree with brute force under AND semantics.
    #[test]
    fn occurrence_counts_match_brute_force(
        pages in arb_pages(),
        phrase in prop::collection::vec(0..WORDS.len(), 1..3),
    ) {
        let corpus = build_corpus(&pages, 5);
        let query = query_of(std::slice::from_ref(&phrase), Connective::And);
        for m in evaluate(&corpus, &query) {
            let expected = phrase_starts(&pages[m.page as usize], &phrase).len() as u32;
            prop_assert_eq!(m.occurrences, expected);
        }
    }
}
