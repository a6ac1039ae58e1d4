//! Normalized-query plan cache.
//!
//! H-BOLD's index extraction issues the same handful of statistics query
//! shapes against every endpoint, thousands of times per crawl. Parsing is
//! cheap but not free, and the parsed [`Query`] is immutable — so the engine
//! keeps a process-wide cache from *normalized* query text to the parsed
//! plan, shared behind an `Arc`. Normalization collapses insignificant
//! whitespace (outside of string literals and IRIs) so that formatting
//! differences between query builders do not fragment the cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hbold_telemetry::{Counter, Registry};

use crate::ast::Query;
use crate::error::SparqlError;
use crate::parser::parse_query;

/// Capacity bound. Reaching it evicts the least-recently-used *quarter* of
/// the entries — never the whole map: a workload cycling through one more
/// than `MAX_ENTRIES` distinct queries used to clear the cache on every
/// insert, collapsing the hit rate of the hot extraction shapes to ~0 in a
/// sawtooth. Recency is a single atomic stamp bumped on hit, so the hot
/// path stays a `HashMap` lookup.
const MAX_ENTRIES: usize = 4096;

/// One cached plan plus the logical time of its last use.
struct CacheEntry {
    plan: Arc<Query>,
    last_used: u64,
}

static CACHE: OnceLock<Mutex<HashMap<String, CacheEntry>>> = OnceLock::new();
/// Logical clock for LRU stamps: bumped on every hit and insert.
static CLOCK: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<HashMap<String, CacheEntry>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Hit/miss counters live in the process-wide telemetry registry, so the
/// server's `/metrics` endpoint exposes them without a second bookkeeping
/// path.
pub(crate) struct CacheCounters {
    hits: Counter,
    misses: Counter,
}

pub(crate) fn counters() -> &'static CacheCounters {
    static COUNTERS: OnceLock<CacheCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = Registry::global();
        CacheCounters {
            hits: reg.counter(
                "hbold_plan_cache_hits_total",
                "Plan-cache lookups answered from the cache.",
                &[],
            ),
            misses: reg.counter(
                "hbold_plan_cache_misses_total",
                "Plan-cache lookups that had to parse.",
                &[],
            ),
        }
    })
}

/// Cache effectiveness counters (process-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to parse.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

impl PlanCacheStats {
    /// Fraction of lookups served from the cache (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Parses `text` through the plan cache, returning a shared parsed plan.
///
/// Parse errors are *not* cached: a malformed query is re-parsed (and fails
/// again) on every call, which keeps the cache free of garbage keys.
pub fn parse_cached(text: &str) -> Result<Arc<Query>, SparqlError> {
    parse_cached_tracked(text).map(|(plan, _)| plan)
}

/// [`parse_cached`], also reporting whether the lookup hit the cache.
///
/// The flag is what a trace's `parse` span reports as `cache_hit`; the
/// process-wide counters advance either way.
pub fn parse_cached_tracked(text: &str) -> Result<(Arc<Query>, bool), SparqlError> {
    let key = normalize(text);
    {
        let mut cache = cache().lock().expect("plan cache poisoned");
        if let Some(entry) = cache.get_mut(&key) {
            entry.last_used = CLOCK.fetch_add(1, Ordering::Relaxed);
            counters().hits.inc();
            return Ok((entry.plan.clone(), true));
        }
    }
    // Parse outside the lock: parsing is the slow part, and two threads
    // racing on the same fresh query simply both parse it once.
    let plan = Arc::new(parse_query(text)?);
    counters().misses.inc();
    let mut cache = cache().lock().expect("plan cache poisoned");
    if cache.len() >= MAX_ENTRIES {
        evict_lru_quarter(&mut cache);
    }
    cache.insert(
        key,
        CacheEntry {
            plan: plan.clone(),
            last_used: CLOCK.fetch_add(1, Ordering::Relaxed),
        },
    );
    Ok((plan, false))
}

/// Drops the least-recently-used quarter of the cache (at least one entry),
/// keeping recently-hit plans resident across the eviction cycle.
fn evict_lru_quarter(cache: &mut HashMap<String, CacheEntry>) {
    let mut stamped: Vec<(u64, String)> = cache
        .iter()
        .map(|(key, entry)| (entry.last_used, key.clone()))
        .collect();
    stamped.sort_unstable();
    for (_, key) in stamped.iter().take((cache.len() / 4).max(1)) {
        cache.remove(key);
    }
}

/// Current cache counters.
pub fn stats() -> PlanCacheStats {
    PlanCacheStats {
        hits: counters().hits.get(),
        misses: counters().misses.get(),
        entries: cache().lock().expect("plan cache poisoned").len(),
    }
}

/// Clears the cache and resets the counters.
///
/// Benchmarks only: the counters back monotone Prometheus families, so a
/// serving process should never call this.
pub fn reset() {
    cache().lock().expect("plan cache poisoned").clear();
    counters().hits.reset();
    counters().misses.reset();
}

/// Collapses whitespace runs to a single space and strips `#` comments,
/// mirroring the lexer's token boundaries so two texts normalize to the same
/// key if and only if they tokenize identically.
///
/// String literals (single- or double-quoted, with backslash escapes) and
/// IRIs (`<...>` with no whitespace before the closing `>`, exactly the
/// lexer's `looks_like_iri` rule) are copied verbatim: `"a  b"` stays
/// distinct from `"a b"`, and a `#` inside an IRI is not a comment. A `#`
/// anywhere else starts a comment that runs to end of line — it must be
/// *removed* (not just whitespace-collapsed), otherwise `... #x\nLIMIT 5`
/// and `... #x LIMIT 5` (where the LIMIT sits inside the comment) would
/// collide on one cache key while parsing differently.
fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut pending_space = false;
    let push = |out: &mut String, c: char, pending_space: &mut bool| {
        if *pending_space && !out.is_empty() {
            out.push(' ');
        }
        *pending_space = false;
        out.push(c);
    };
    while i < chars.len() {
        let c = chars[i];
        match c {
            '"' | '\'' => {
                push(&mut out, c, &mut pending_space);
                i += 1;
                while i < chars.len() {
                    let inner = chars[i];
                    out.push(inner);
                    i += 1;
                    if inner == '\\' {
                        if i < chars.len() {
                            out.push(chars[i]);
                            i += 1;
                        }
                    } else if inner == c {
                        break;
                    }
                }
            }
            '<' => {
                // The lexer treats `<...>` as an IRI only when no whitespace
                // or quote appears before the closing `>`.
                let mut end = None;
                for (offset, &ahead) in chars[i + 1..].iter().enumerate() {
                    if ahead == '>' {
                        end = Some(i + 1 + offset);
                        break;
                    }
                    if ahead.is_whitespace() || ahead == '"' {
                        break;
                    }
                }
                match end {
                    Some(end) => {
                        push(&mut out, '<', &mut pending_space);
                        for &iri_char in &chars[i + 1..=end] {
                            out.push(iri_char);
                        }
                        i = end + 1;
                    }
                    None => {
                        push(&mut out, '<', &mut pending_space);
                        i += 1;
                    }
                }
            }
            '#' => {
                // Comment to end of line: dropped entirely, acting as a
                // token separator like the whitespace around it.
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                pending_space = true;
            }
            c if c.is_whitespace() => {
                pending_space = true;
                i += 1;
            }
            c => {
                push(&mut out, c, &mut pending_space);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_outer_whitespace_only() {
        assert_eq!(
            normalize("SELECT ?s\n  WHERE  { ?s ?p \"a  b\" }"),
            "SELECT ?s WHERE { ?s ?p \"a  b\" }"
        );
        assert_eq!(normalize("  ASK { ?s ?p ?o }  "), "ASK { ?s ?p ?o }");
        assert_eq!(
            normalize("SELECT ?s WHERE { ?s ?p 'it\\'s  x' }"),
            "SELECT ?s WHERE { ?s ?p 'it\\'s  x' }"
        );
    }

    #[test]
    fn normalization_strips_comments_like_the_lexer() {
        // Tokens after the comment's newline survive; the comment itself
        // disappears, so the two texts below must NOT share a cache key.
        let with_limit = normalize("SELECT ?s WHERE { ?s ?p ?o } #x\nLIMIT 5");
        let limit_in_comment = normalize("SELECT ?s WHERE { ?s ?p ?o } #x LIMIT 5");
        assert_eq!(with_limit, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5");
        assert_eq!(limit_in_comment, "SELECT ?s WHERE { ?s ?p ?o }");
        assert_ne!(with_limit, limit_in_comment);
        // Comment-only formatting differences do share a key.
        assert_eq!(
            normalize("SELECT ?s # pick subjects\nWHERE { ?s ?p ?o }"),
            normalize("SELECT ?s WHERE { ?s ?p ?o }")
        );
        // '#' inside an IRI or a string literal is not a comment.
        assert_eq!(
            normalize("ASK { ?s ?p <http://e.org/x#frag> }"),
            "ASK { ?s ?p <http://e.org/x#frag> }"
        );
        assert_eq!(
            normalize("ASK { ?s ?p \"a # b\" }"),
            "ASK { ?s ?p \"a # b\" }"
        );
        // '<' as a comparison operator (whitespace before any '>') is kept.
        assert_eq!(
            normalize("SELECT ?s WHERE { ?s ?p ?o FILTER(?o <  5) }"),
            "SELECT ?s WHERE { ?s ?p ?o FILTER(?o < 5) }"
        );
    }

    #[test]
    fn repeated_parses_hit_the_cache() {
        // Counters are process-global and tests run in parallel, so assert
        // deltas on a query text unique to this test.
        let before = stats();
        let a = parse_cached("SELECT ?plan_cache_probe WHERE { ?plan_cache_probe a ?c }").unwrap();
        let b =
            parse_cached("SELECT ?plan_cache_probe\nWHERE   { ?plan_cache_probe a ?c }").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "normalized variants share one plan");
        let after = stats();
        assert!(after.hits >= before.hits + 1);
        assert!(after.misses >= before.misses + 1);
        assert!(after.entries >= 1);
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        // Failing twice proves the error was re-derived, not served stale.
        assert!(parse_cached("SELEKT nope").is_err());
        assert!(parse_cached("SELEKT nope").is_err());
    }

    #[test]
    fn hot_queries_survive_an_eviction_cycle() {
        // Churn far more than MAX_ENTRIES distinct queries while re-touching
        // one hot query regularly. The old wholesale `clear()` dropped the
        // hot plan on (almost) every insert past capacity; LRU eviction must
        // keep it resident the whole way through, and keep the cache bounded.
        let hot_text = "SELECT ?hot_survivor WHERE { ?hot_survivor a ?class_eviction_probe }";
        let hot = parse_cached(hot_text).unwrap();
        for i in 0..(MAX_ENTRIES * 2) {
            parse_cached(&format!(
                "SELECT ?churn WHERE {{ ?churn <http://e.org/evict_probe_{i}> ?o }}"
            ))
            .unwrap();
            if i % 64 == 0 {
                let again = parse_cached(hot_text).unwrap();
                assert!(
                    Arc::ptr_eq(&hot, &again),
                    "hot plan evicted after {i} churn inserts"
                );
            }
        }
        let again = parse_cached(hot_text).unwrap();
        assert!(Arc::ptr_eq(&hot, &again), "hot plan evicted by churn");
        assert!(
            stats().entries <= MAX_ENTRIES,
            "eviction keeps the cache bounded"
        );
    }
}
