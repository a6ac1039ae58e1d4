//! Exact-text plan cache.
//!
//! H-BOLD's index extraction issues the same handful of statistics query
//! shapes against every endpoint, thousands of times per crawl. Parsing is
//! cheap but not free, and the parsed [`Query`] is immutable — so the engine
//! keeps a process-wide cache from query text, *exactly as received* and at
//! most 16 KiB of it, to the parsed plan, shared behind an `Arc`. The key is
//! the text itself: the lexer is the only code that reads SPARQL, so two
//! texts that parse differently can never share a plan. A hit borrows the
//! text and allocates nothing; only a miss copies it into the map.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hbold_telemetry::{Counter, Registry, Span};

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

/// The longest text the cache keeps: the server's request-head budget, so
/// every query that fits in a GET stays cacheable, while a megabyte POST
/// body is parsed and dropped instead of pinning its text and plan.
const MAX_CACHED_TEXT: usize = 16 * 1024;

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
    lookup(text).map(|(plan, _)| plan)
}

/// [`parse_cached`] under a `parse` child span of `trace`, when there is
/// one: the span times the lookup and reports whether it hit the cache as
/// `cache_hit` (0 or 1). Without a trace it is [`parse_cached`].
pub fn parse_traced(text: &str, trace: Option<&Span>) -> Result<Arc<Query>, SparqlError> {
    let Some(root) = trace else {
        return parse_cached(text);
    };
    let span = root.child("parse");
    let (plan, cache_hit) = span.timed(|| lookup(text))?;
    span.set_attr("cache_hit", u64::from(cache_hit));
    Ok(plan)
}

/// The cached plan of `text` and whether it was a hit; the process-wide
/// counters advance either way.
fn lookup(text: &str) -> Result<(Arc<Query>, bool), SparqlError> {
    {
        let mut cache = cache().lock().expect("plan cache poisoned");
        if let Some(entry) = cache.get_mut(text) {
            entry.last_used = CLOCK.fetch_add(1, Ordering::Relaxed);
            counters().hits.inc();
            return Ok((entry.plan.clone(), true));
        }
    }
    // Parse outside the lock: parsing is the slow part, and two threads
    // racing on the same fresh query simply both parse it once.
    let plan = Arc::new(parse_query(text)?);
    counters().misses.inc();
    if text.len() > MAX_CACHED_TEXT {
        return Ok((plan, false));
    }
    let mut cache = cache().lock().expect("plan cache poisoned");
    if cache.len() >= MAX_ENTRIES {
        evict_lru_quarter(&mut cache);
    }
    cache.insert(
        text.to_owned(),
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

#[cfg(test)]
mod tests {
    use hbold_rdf_model::{Iri, Literal, Term, Triple};
    use hbold_triple_store::TripleStore;

    use super::*;
    use crate::eval;

    #[test]
    fn repeated_parses_hit_the_cache() {
        // Counters are process-global and tests run in parallel, so assert
        // deltas on a query text unique to this test.
        let text = "SELECT ?plan_cache_probe WHERE { ?plan_cache_probe a ?c }";
        let before = stats();
        let a = parse_cached(text).unwrap();
        let b = parse_cached(text).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one text, one plan");
        let after = stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
        assert!(after.entries >= 1);
        assert!(after.hit_rate() > 0.0);
        // The key is the text as received: a reformatted query is parsed
        // again, to the same plan.
        let reformatted =
            parse_cached("SELECT ?plan_cache_probe\nWHERE   { ?plan_cache_probe a ?c }").unwrap();
        assert!(!Arc::ptr_eq(&a, &reformatted));
        assert_eq!(a, reformatted);
    }

    #[test]
    fn texts_that_lex_differently_never_share_a_plan() {
        // Past 4 096 characters the lexer stops looking for an IRI's `>`, so
        // `<?vvv…` is a comparison here. A key read by any other rule that
        // takes `<?vvv…||?o='>` for one IRI and collapses the spaces after
        // it would serve the first query's plan for the second.
        let iri = |local: &str| Iri::new(format!("http://collide.example/{local}")).unwrap();
        let mut store = TripleStore::new();
        let triples = [
            Triple::new(iri("two"), iri("p"), Literal::string(">  x")),
            Triple::new(iri("one"), iri("p"), Literal::string("> x")),
        ];
        store.insert_batch(triples.iter());
        let long_var = "v".repeat(4100);
        let query = |object: &str| {
            format!("SELECT ?s WHERE {{ ?s ?p ?o FILTER(?s <?{long_var}||?o='{object}') }}")
        };
        // `?s < ?vvv…` errs (unbound), so only the `||`'s right side picks.
        for (text, subject) in [(query(">  x"), "two"), (query("> x"), "one")] {
            let answer = eval::execute_query(&store, &text).unwrap();
            let rows = answer.into_select().unwrap().rows;
            assert_eq!(rows, vec![vec![Some(Term::from(iri(subject)))]]);
        }
    }

    #[test]
    fn a_text_past_the_cap_is_parsed_but_not_kept() {
        let ask = |len: usize| {
            let padding = len - "ASK { ?s ?p \"\" }".len();
            format!("ASK {{ ?s ?p \"{}\" }}", "x".repeat(padding))
        };
        let fits = ask(MAX_CACHED_TEXT);
        assert!(Arc::ptr_eq(
            &parse_cached(&fits).unwrap(),
            &parse_cached(&fits).unwrap()
        ));
        let too_long = ask(17 * 1024);
        let root = Span::root("query");
        let first = parse_traced(&too_long, Some(&root)).unwrap();
        let second = parse_traced(&too_long, Some(&root)).unwrap();
        let cache_hits: Vec<_> = root
            .children()
            .iter()
            .map(|parse| parse.attr("cache_hit").and_then(|hit| hit.as_u64()))
            .collect();
        assert_eq!(cache_hits, [Some(0), Some(0)], "two misses");
        assert!(!Arc::ptr_eq(&first, &second));
        let cache = cache().lock().unwrap();
        assert!(!cache.contains_key(too_long.as_str()), "no entry");
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
