//! Search-expression parsing and evaluation over the corpus index.
//!
//! The expression language matches what WSQ needs from 1999-era engines:
//! bare keywords, `"quoted phrases"`, and the `NEAR` proximity connective
//! (AltaVista supported `NEAR`; Google did not — its engine personality
//! treats all phrases as an `AND` query, which is why the paper's default
//! `SearchExp` differs per engine).

use crate::corpus::{Corpus, Posting};
use crate::symbols::tokenize;

/// How a multi-phrase query combines its phrases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connective {
    /// Consecutive phrases must occur within the proximity window.
    Near,
    /// All phrases must occur somewhere in the page.
    And,
}

/// A parsed search expression: a list of phrases plus a connective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebQuery {
    /// Each phrase is a sequence of normalized words.
    pub phrases: Vec<Vec<String>>,
    /// Combination semantics.
    pub connective: Connective,
}

/// Parse a search expression.
///
/// * Quoted segments (`"four corners"`) become multi-word phrases.
/// * The bare word `near` (case-insensitive) is a connective when
///   `support_near` is true; otherwise it is an ordinary keyword.
/// * Any unquoted word is a one-word phrase.
///
/// If at least one `near` connective appears, the whole query uses
/// [`Connective::Near`] chain semantics (the paper's default `SearchExp`
/// is `"%1 near %2 near … near %n"`); otherwise [`Connective::And`].
pub fn parse_query(expr: &str, support_near: bool) -> WebQuery {
    let mut phrases: Vec<Vec<String>> = Vec::new();
    let mut connective = Connective::And;
    let mut rest = expr;
    while !rest.is_empty() {
        rest = rest.trim_start();
        if rest.is_empty() {
            break;
        }
        if let Some(stripped) = rest.strip_prefix('"') {
            let end = stripped.find('"').unwrap_or(stripped.len());
            let inner = &stripped[..end];
            let words = tokenize(inner);
            if !words.is_empty() {
                phrases.push(words);
            }
            rest = stripped.get(end + 1..).unwrap_or("");
        } else {
            let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            let word = &rest[..end];
            if support_near && word.eq_ignore_ascii_case("near") {
                connective = Connective::Near;
            } else {
                let words = tokenize(word);
                if !words.is_empty() {
                    phrases.push(words);
                }
            }
            rest = &rest[end..];
        }
    }
    WebQuery {
        phrases,
        connective,
    }
}

/// A page matching a query, with its total phrase-occurrence count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMatch {
    /// Page index into the corpus.
    pub page: u32,
    /// Total phrase occurrences (term-frequency signal for ranking).
    pub occurrences: u32,
}

/// One phrase resolved against the index: the page-sorted postings of its
/// first word and the symbols that must follow each of their positions.
struct ResolvedPhrase<'a> {
    first: &'a [Posting],
    rest: Vec<u32>,
}

/// Resolve `words` to symbols and postings; `None` when a word is unknown
/// to the corpus, so the phrase occurs nowhere.
fn resolve<'a>(corpus: &'a Corpus, words: &[String]) -> Option<ResolvedPhrase<'a>> {
    let first = corpus.index.get(&corpus.symbols.get(&words[0])?)?;
    let rest = words[1..]
        .iter()
        .map(|w| corpus.symbols.get(w))
        .collect::<Option<Vec<u32>>>()?;
    Some(ResolvedPhrase { first, rest })
}

/// Evaluate a query, returning matching pages in page order.
///
/// The phrase whose first word is rarest drives: each of its postings
/// names a candidate page, the other phrases are probed for that page by
/// binary search over their page-sorted postings, and phrase starts are
/// collected into scratch vectors reused from page to page — nothing is
/// built for a page the driver never names.
pub fn evaluate(corpus: &Corpus, query: &WebQuery) -> Vec<PageMatch> {
    let Some(phrases) = query
        .phrases
        .iter()
        .map(|words| resolve(corpus, words))
        .collect::<Option<Vec<_>>>()
    else {
        return Vec::new();
    };
    let Some(driver) = phrases.iter().min_by_key(|p| p.first.len()) else {
        return Vec::new();
    };
    let near = query.connective == Connective::Near;
    let window = i64::from(corpus.near_window);
    // starts[i]: where phrase i begins on the candidate page.
    let mut starts: Vec<Vec<u32>> = vec![Vec::new(); phrases.len()];
    let mut matches = Vec::new();
    'pages: for candidate in driver.first {
        let page = candidate.page;
        let terms = &corpus.pages[page as usize].terms;
        for (phrase, starts) in phrases.iter().zip(&mut starts) {
            starts.clear();
            let Ok(at) = phrase.first.binary_search_by_key(&page, |p| p.page) else {
                continue 'pages;
            };
            starts.extend(phrase.first[at].positions.iter().filter(|&&pos| {
                let follow = terms.get(pos as usize + 1..).unwrap_or_default();
                follow.starts_with(&phrase.rest)
            }));
            if starts.is_empty() {
                continue 'pages;
            }
        }
        // Chain semantics: consecutive phrases within the window.
        if near
            && !starts.windows(2).all(|pair| {
                pair[0].iter().any(|&a| {
                    pair[1]
                        .iter()
                        .any(|&b| (i64::from(a) - i64::from(b)).abs() <= window)
                })
            })
        {
            continue;
        }
        let occurrences = starts.iter().map(|s| s.len() as u32).sum();
        matches.push(PageMatch { page, occurrences });
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig, Page};
    use crate::symbols::SymbolTable;

    /// Hand-built corpus for precise matching semantics.
    fn tiny() -> Corpus {
        let mut symbols = SymbolTable::new();
        let mut pages = Vec::new();
        let mut add = |symbols: &mut SymbolTable, text: &str| {
            let terms: Vec<u32> = tokenize(text).iter().map(|w| symbols.intern(w)).collect();
            pages.push(Page {
                url: format!("www.p{}.test/", pages.len()),
                date: "1999-10-01".into(),
                terms,
                av_auth: 0.5,
                g_auth: 0.5,
            });
        };
        add(&mut symbols, "welcome to colorado four corners monument");
        add(&mut symbols, "colorado ski resorts and hotels");
        add(
            &mut symbols,
            "four corners area guide utah arizona new mexico",
        );
        add(&mut symbols, "corners of the world four continents"); // "four corners" NOT adjacent
        add(&mut symbols, "new mexico santa fe travel");
        let index = {
            let mut idx: std::collections::HashMap<u32, Vec<crate::corpus::Posting>> =
                Default::default();
            for (pid, page) in pages.iter().enumerate() {
                for (pos, &t) in page.terms.iter().enumerate() {
                    let ps = idx.entry(t).or_default();
                    match ps.last_mut() {
                        Some(p) if p.page == pid as u32 => p.positions.push(pos as u32),
                        _ => ps.push(crate::corpus::Posting {
                            page: pid as u32,
                            positions: vec![pos as u32],
                        }),
                    }
                }
            }
            idx
        };
        Corpus {
            symbols,
            pages,
            index,
            near_window: 5,
        }
    }

    fn pages_of(matches: &[PageMatch]) -> Vec<u32> {
        let mut v: Vec<u32> = matches.iter().map(|m| m.page).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn parse_keywords_phrases_and_near() {
        let q = parse_query("Colorado near \"four corners\"", true);
        assert_eq!(q.connective, Connective::Near);
        assert_eq!(
            q.phrases,
            vec![
                vec!["colorado".to_string()],
                vec!["four".into(), "corners".into()]
            ]
        );

        let q = parse_query("\"new mexico\" computer", true);
        assert_eq!(q.connective, Connective::And);
        assert_eq!(q.phrases.len(), 2);

        // Without NEAR support, `near` is just a keyword.
        let q = parse_query("a near b", false);
        assert_eq!(q.connective, Connective::And);
        assert_eq!(q.phrases.len(), 3);

        // Unterminated quote: everything to the end is the phrase.
        let q = parse_query("\"four corners", true);
        assert_eq!(q.phrases, vec![vec!["four".to_string(), "corners".into()]]);

        // Empty expressions parse to zero phrases.
        assert!(parse_query("", true).phrases.is_empty());
        assert!(parse_query("\"\"", true).phrases.is_empty());
    }

    #[test]
    fn single_keyword_matches_all_containing_pages() {
        let c = tiny();
        let q = parse_query("colorado", true);
        assert_eq!(pages_of(&evaluate(&c, &q)), vec![0, 1]);
    }

    #[test]
    fn phrase_requires_adjacency() {
        let c = tiny();
        let q = parse_query("\"four corners\"", true);
        // Page 3 has both words but not adjacent.
        assert_eq!(pages_of(&evaluate(&c, &q)), vec![0, 2]);
        let q = parse_query("\"new mexico\"", true);
        assert_eq!(pages_of(&evaluate(&c, &q)), vec![2, 4]);
    }

    #[test]
    fn near_requires_proximity() {
        let c = tiny(); // window = 5
        let q = parse_query("colorado near \"four corners\"", true);
        // Page 0: colorado at 2, "four corners" at 3 → within 5. Page 2
        // lacks colorado; page 1 lacks the phrase.
        assert_eq!(pages_of(&evaluate(&c, &q)), vec![0]);
        // utah near "four corners": page 2 has utah at 4, phrase at 0 → 4 ≤ 5.
        let q = parse_query("utah near \"four corners\"", true);
        assert_eq!(pages_of(&evaluate(&c, &q)), vec![2]);
    }

    #[test]
    fn near_chain_of_three() {
        let c = tiny();
        let q = parse_query("utah near arizona near \"new mexico\"", true);
        assert_eq!(pages_of(&evaluate(&c, &q)), vec![2]);
    }

    #[test]
    fn and_ignores_distance() {
        let c = tiny();
        let q = parse_query("corners continents", true);
        assert_eq!(pages_of(&evaluate(&c, &q)), vec![3]);
    }

    #[test]
    fn unknown_word_matches_nothing() {
        let c = tiny();
        assert!(evaluate(&c, &parse_query("zanzibar", true)).is_empty());
        assert!(evaluate(&c, &parse_query("\"colorado zanzibar\"", true)).is_empty());
        assert!(evaluate(&c, &parse_query("", true)).is_empty());
    }

    #[test]
    fn occurrence_counts_sum_over_phrases() {
        let c = tiny();
        let q = parse_query("four corners", true); // two 1-word phrases, AND
        let m = evaluate(&c, &q);
        let page3 = m.iter().find(|m| m.page == 3).unwrap();
        // "four" ×2? page 3 = "corners of the world four continents": four ×1, corners ×1.
        assert_eq!(page3.occurrences, 2);
    }

    #[test]
    fn generated_corpus_four_corners_shape() {
        // The marquee Query 3 shape on a real generated corpus: the four
        // corner states dominate, with a dramatic dropoff to the rest.
        let c = Corpus::generate(&CorpusConfig::small());
        let count = |expr: &str| evaluate(&c, &parse_query(expr, true)).len();
        let co = count("colorado near \"four corners\"");
        let nm = count("\"new mexico\" near \"four corners\"");
        let az = count("arizona near \"four corners\"");
        let ut = count("utah near \"four corners\"");
        let ca = count("california near \"four corners\"");
        assert!(co > nm && nm > az && az > ut, "{co} {nm} {az} {ut}");
        assert!(ut > ca, "dropoff missing: ut={ut} ca={ca}");
    }
}
