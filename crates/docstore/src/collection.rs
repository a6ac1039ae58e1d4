//! Collections of documents with filters and secondary indexes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::DocStoreError;
use crate::value::DocValue;

/// A stored document: its identifier plus its value (always an object).
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Store-assigned identifier, unique within the collection and stable
    /// for the lifetime of the document.
    pub id: u64,
    /// The document body.
    pub value: DocValue,
}

/// A query filter over documents.
///
/// Paths are dotted field paths into the document (`"summary.classes"`).
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document.
    All,
    /// Field equals value (loose numeric equality).
    Eq(String, DocValue),
    /// Field is strictly greater than value.
    Gt(String, DocValue),
    /// Field is greater than or equal to value.
    Ge(String, DocValue),
    /// Field is strictly less than value.
    Lt(String, DocValue),
    /// Field is less than or equal to value.
    Le(String, DocValue),
    /// Field exists (is present and non-null).
    Exists(String),
    /// String field contains the given substring.
    Contains(String, String),
    /// Array field contains an element loosely equal to the value.
    ArrayContains(String, DocValue),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// At least one sub-filter matches.
    Or(Vec<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// Shorthand for an equality filter.
    pub fn eq(path: impl Into<String>, value: impl Into<DocValue>) -> Filter {
        Filter::Eq(path.into(), value.into())
    }

    /// Shorthand for an existence filter.
    pub fn exists(path: impl Into<String>) -> Filter {
        Filter::Exists(path.into())
    }

    /// Returns `true` if `doc` satisfies the filter.
    pub fn matches(&self, doc: &DocValue) -> bool {
        match self {
            Filter::All => true,
            Filter::Eq(path, value) => doc
                .get_path(path)
                .map_or(false, |v| v.loosely_equals(value)),
            Filter::Gt(path, value) => {
                cmp_is(doc, path, value, |o| o == std::cmp::Ordering::Greater)
            }
            Filter::Ge(path, value) => cmp_is(doc, path, value, |o| o != std::cmp::Ordering::Less),
            Filter::Lt(path, value) => cmp_is(doc, path, value, |o| o == std::cmp::Ordering::Less),
            Filter::Le(path, value) => {
                cmp_is(doc, path, value, |o| o != std::cmp::Ordering::Greater)
            }
            Filter::Exists(path) => doc.get_path(path).map_or(false, |v| !v.is_null()),
            Filter::Contains(path, needle) => doc
                .get_path(path)
                .and_then(DocValue::as_str)
                .map_or(false, |s| s.contains(needle.as_str())),
            Filter::ArrayContains(path, value) => doc
                .get_path(path)
                .and_then(DocValue::as_array)
                .map_or(false, |items| items.iter().any(|i| i.loosely_equals(value))),
            Filter::And(filters) => filters.iter().all(|f| f.matches(doc)),
            Filter::Or(filters) => filters.iter().any(|f| f.matches(doc)),
            Filter::Not(inner) => !inner.matches(doc),
        }
    }
}

fn cmp_is(
    doc: &DocValue,
    path: &str,
    value: &DocValue,
    pred: impl Fn(std::cmp::Ordering) -> bool,
) -> bool {
    doc.get_path(path)
        .and_then(|v| v.compare(value))
        .map_or(false, pred)
}

/// A named collection of documents.
///
/// Collections are cheap to clone (shared behind an `Arc`); all methods take
/// `&self` and synchronize internally, mirroring how a database client
/// behaves.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    inner: Arc<RwLock<CollectionInner>>,
}

#[derive(Debug, Default)]
struct CollectionInner {
    next_id: u64,
    documents: BTreeMap<u64, DocValue>,
    /// Secondary hash indexes: field path → (encoded value → doc ids).
    indexes: HashMap<String, HashMap<String, Vec<u64>>>,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Collection::default()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner.read().documents.len()
    }

    /// Returns `true` if the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declares a secondary index on a (top-level or dotted) field path.
    /// Existing documents are indexed immediately; subsequent inserts keep
    /// the index up to date. Declaring the same index twice is a no-op.
    pub fn create_index(&self, path: &str) {
        let mut inner = self.inner.write();
        if inner.indexes.contains_key(path) {
            return;
        }
        let mut index: HashMap<String, Vec<u64>> = HashMap::new();
        for (&id, doc) in &inner.documents {
            if let Some(key) = index_key(doc, path) {
                index.entry(key).or_default().push(id);
            }
        }
        inner.indexes.insert(path.to_string(), index);
    }

    /// Inserts a document (must be an object) and returns its id.
    ///
    /// # Panics
    /// Panics if `value` is not an object; use [`Collection::try_insert`] for
    /// a fallible version.
    pub fn insert(&self, value: DocValue) -> u64 {
        self.try_insert(value)
            .expect("document must be a JSON object")
    }

    /// Inserts a document, returning an error if it is not an object.
    pub fn try_insert(&self, value: DocValue) -> Result<u64, DocStoreError> {
        if value.as_object().is_none() {
            return Err(DocStoreError::InvalidDocument(
                "only objects can be inserted into a collection".into(),
            ));
        }
        let mut inner = self.inner.write();
        let id = inner.next_id;
        inner.next_id += 1;
        // Maintain secondary indexes.
        let paths: Vec<String> = inner.indexes.keys().cloned().collect();
        for path in paths {
            if let Some(key) = index_key(&value, &path) {
                inner
                    .indexes
                    .get_mut(&path)
                    .unwrap()
                    .entry(key)
                    .or_default()
                    .push(id);
            }
        }
        inner.documents.insert(id, value);
        Ok(id)
    }

    /// Retrieves a document by id.
    pub fn get(&self, id: u64) -> Option<Document> {
        self.inner.read().documents.get(&id).map(|value| Document {
            id,
            value: value.clone(),
        })
    }

    /// Returns all documents matching `filter`, in insertion (id) order.
    ///
    /// Equality filters on indexed fields use the index; everything else is
    /// a scan.
    pub fn find(&self, filter: &Filter) -> Vec<Document> {
        let inner = self.inner.read();
        // Fast path: top-level equality on an indexed field.
        if let Filter::Eq(path, value) = filter {
            if let Some(index) = inner.indexes.get(path) {
                let key = encode_index_value(value);
                let mut out: Vec<Document> = index
                    .get(&key)
                    .into_iter()
                    .flatten()
                    .filter_map(|id| {
                        inner.documents.get(id).map(|v| Document {
                            id: *id,
                            value: v.clone(),
                        })
                    })
                    .collect();
                out.sort_by_key(|d| d.id);
                return out;
            }
        }
        inner
            .documents
            .iter()
            .filter(|(_, doc)| filter.matches(doc))
            .map(|(&id, value)| Document {
                id,
                value: value.clone(),
            })
            .collect()
    }

    /// Returns the first document matching `filter`, if any.
    pub fn find_one(&self, filter: &Filter) -> Option<Document> {
        self.find(filter).into_iter().next()
    }

    /// Counts matching documents without cloning them.
    pub fn count(&self, filter: &Filter) -> usize {
        let inner = self.inner.read();
        inner
            .documents
            .values()
            .filter(|doc| filter.matches(doc))
            .count()
    }

    /// Replaces the first document matching `filter` with `value`, inserting
    /// it if nothing matches ("upsert"). Returns the document id.
    pub fn upsert(&self, filter: &Filter, value: DocValue) -> Result<u64, DocStoreError> {
        if value.as_object().is_none() {
            return Err(DocStoreError::InvalidDocument(
                "only objects can be upserted into a collection".into(),
            ));
        }
        let existing = self.find_one(filter).map(|d| d.id);
        match existing {
            Some(id) => {
                let mut inner = self.inner.write();
                remove_from_indexes(&mut inner, id);
                let paths: Vec<String> = inner.indexes.keys().cloned().collect();
                for path in paths {
                    if let Some(key) = index_key(&value, &path) {
                        inner
                            .indexes
                            .get_mut(&path)
                            .unwrap()
                            .entry(key)
                            .or_default()
                            .push(id);
                    }
                }
                inner.documents.insert(id, value);
                Ok(id)
            }
            None => self.try_insert(value),
        }
    }

    /// Applies `update` to every document matching `filter`; returns how many
    /// documents were updated.
    pub fn update(&self, filter: &Filter, update: impl Fn(&mut DocValue)) -> usize {
        let mut inner = self.inner.write();
        let ids: Vec<u64> = inner
            .documents
            .iter()
            .filter(|(_, doc)| filter.matches(doc))
            .map(|(&id, _)| id)
            .collect();
        for &id in &ids {
            remove_from_indexes(&mut inner, id);
            if let Some(doc) = inner.documents.get_mut(&id) {
                update(doc);
            }
            let doc = inner.documents.get(&id).cloned();
            if let Some(doc) = doc {
                let paths: Vec<String> = inner.indexes.keys().cloned().collect();
                for path in paths {
                    if let Some(key) = index_key(&doc, &path) {
                        inner
                            .indexes
                            .get_mut(&path)
                            .unwrap()
                            .entry(key)
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        ids.len()
    }

    /// Deletes every document matching `filter`; returns how many were removed.
    pub fn delete(&self, filter: &Filter) -> usize {
        let mut inner = self.inner.write();
        let ids: Vec<u64> = inner
            .documents
            .iter()
            .filter(|(_, doc)| filter.matches(doc))
            .map(|(&id, _)| id)
            .collect();
        for &id in &ids {
            remove_from_indexes(&mut inner, id);
            inner.documents.remove(&id);
        }
        ids.len()
    }

    /// Returns all documents (insertion order).
    pub fn all(&self) -> Vec<Document> {
        self.find(&Filter::All)
    }

    /// Serializes the collection as JSON lines (`id<TAB>json` per line).
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.read();
        let mut out = String::new();
        for (id, doc) in &inner.documents {
            out.push_str(&id.to_string());
            out.push('\t');
            out.push_str(&crate::json::to_json(doc));
            out.push('\n');
        }
        out
    }

    /// Rebuilds a collection from [`Collection::to_jsonl`] output.
    pub fn from_jsonl(text: &str) -> Result<Self, DocStoreError> {
        let collection = Collection::new();
        {
            let mut inner = collection.inner.write();
            for (line_no, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let (id_text, json) = line.split_once('\t').ok_or_else(|| {
                    DocStoreError::Json(format!("line {}: missing tab separator", line_no + 1))
                })?;
                let id: u64 = id_text.parse().map_err(|_| {
                    DocStoreError::Json(format!("line {}: invalid id", line_no + 1))
                })?;
                let doc = crate::json::from_json(json)?;
                inner.documents.insert(id, doc);
                inner.next_id = inner.next_id.max(id + 1);
            }
        }
        Ok(collection)
    }
}

fn remove_from_indexes(inner: &mut CollectionInner, id: u64) {
    for index in inner.indexes.values_mut() {
        for ids in index.values_mut() {
            ids.retain(|&existing| existing != id);
        }
    }
}

fn index_key(doc: &DocValue, path: &str) -> Option<String> {
    doc.get_path(path).map(encode_index_value)
}

fn encode_index_value(value: &DocValue) -> String {
    crate::json::to_json(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn endpoints() -> Collection {
        let c = Collection::new();
        c.insert(doc! { "url" => "http://a.org/sparql", "classes" => 10, "available" => true });
        c.insert(doc! { "url" => "http://b.org/sparql", "classes" => 120, "available" => false });
        c.insert(
            doc! { "url" => "http://c.org/sparql", "classes" => 55, "available" => true,
            "tags" => vec!["government", "transport"] },
        );
        c
    }

    #[test]
    fn insert_get_and_ids_are_sequential() {
        let c = endpoints();
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.get(0)
                .unwrap()
                .value
                .get("url")
                .and_then(DocValue::as_str),
            Some("http://a.org/sparql")
        );
        assert!(c.get(99).is_none());
        assert!(
            c.try_insert(DocValue::Int(3)).is_err(),
            "non-objects are rejected"
        );
    }

    #[test]
    fn filters() {
        let c = endpoints();
        assert_eq!(c.find(&Filter::eq("available", true)).len(), 2);
        assert_eq!(
            c.find(&Filter::Gt("classes".into(), DocValue::Int(50)))
                .len(),
            2
        );
        assert_eq!(
            c.find(&Filter::Le("classes".into(), DocValue::Int(55)))
                .len(),
            2
        );
        assert_eq!(
            c.find(&Filter::Contains("url".into(), "b.org".into()))
                .len(),
            1
        );
        assert_eq!(c.find(&Filter::exists("tags")).len(), 1);
        assert_eq!(
            c.find(&Filter::ArrayContains(
                "tags".into(),
                DocValue::from("transport")
            ))
            .len(),
            1
        );
        assert_eq!(
            c.find(&Filter::And(vec![
                Filter::eq("available", true),
                Filter::Gt("classes".into(), DocValue::Int(20)),
            ]))
            .len(),
            1
        );
        assert_eq!(
            c.find(&Filter::Or(vec![
                Filter::eq("url", "http://a.org/sparql"),
                Filter::eq("url", "http://b.org/sparql"),
            ]))
            .len(),
            2
        );
        assert_eq!(
            c.find(&Filter::Not(Box::new(Filter::eq("available", true))))
                .len(),
            1
        );
        assert_eq!(c.count(&Filter::All), 3);
    }

    #[test]
    fn indexed_equality_agrees_with_scan() {
        let c = endpoints();
        let scanned = c.find(&Filter::eq("url", "http://c.org/sparql"));
        c.create_index("url");
        let indexed = c.find(&Filter::eq("url", "http://c.org/sparql"));
        assert_eq!(scanned, indexed);
        // Index stays correct across inserts and updates.
        c.insert(doc! { "url" => "http://d.org/sparql", "classes" => 1 });
        assert_eq!(c.find(&Filter::eq("url", "http://d.org/sparql")).len(), 1);
        c.update(&Filter::eq("url", "http://d.org/sparql"), |d| {
            d.set("url", "http://renamed.org/sparql");
        });
        assert_eq!(c.find(&Filter::eq("url", "http://d.org/sparql")).len(), 0);
        assert_eq!(
            c.find(&Filter::eq("url", "http://renamed.org/sparql"))
                .len(),
            1
        );
    }

    #[test]
    fn upsert_replaces_or_inserts() {
        let c = endpoints();
        let id = c
            .upsert(
                &Filter::eq("url", "http://a.org/sparql"),
                doc! { "url" => "http://a.org/sparql", "classes" => 11 },
            )
            .unwrap();
        assert_eq!(id, 0, "existing document keeps its id");
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.find_one(&Filter::eq("url", "http://a.org/sparql"))
                .unwrap()
                .value
                .get("classes")
                .and_then(DocValue::as_i64),
            Some(11)
        );
        let id = c
            .upsert(
                &Filter::eq("url", "http://new.org/sparql"),
                doc! { "url" => "http://new.org/sparql" },
            )
            .unwrap();
        assert_eq!(id, 3);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn update_and_delete() {
        let c = endpoints();
        let updated = c.update(&Filter::eq("available", false), |d| {
            d.set("available", true);
        });
        assert_eq!(updated, 1);
        assert_eq!(c.count(&Filter::eq("available", true)), 3);
        let deleted = c.delete(&Filter::Gt("classes".into(), DocValue::Int(50)));
        assert_eq!(deleted, 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn jsonl_round_trip() {
        let c = endpoints();
        let text = c.to_jsonl();
        let rebuilt = Collection::from_jsonl(&text).unwrap();
        assert_eq!(rebuilt.len(), 3);
        assert_eq!(rebuilt.all(), c.all());
        // New inserts continue after the highest persisted id.
        let new_id = rebuilt.insert(doc! { "url" => "http://x.org" });
        assert_eq!(new_id, 3);
        assert!(Collection::from_jsonl("not a line").is_err());
        // A hostile line in a collection file is a typed error, not a stack
        // overflow that takes the process down while it loads its cache.
        let hostile = format!("{text}7\t{}\n", "[".repeat(100_000));
        assert!(matches!(
            Collection::from_jsonl(&hostile),
            Err(DocStoreError::Json(_))
        ));
    }

    #[test]
    fn dotted_path_filters() {
        let c = Collection::new();
        c.insert(doc! { "summary" => doc! { "classes" => 7 }, "name" => "x" });
        c.insert(doc! { "summary" => doc! { "classes" => 99 }, "name" => "y" });
        assert_eq!(
            c.find(&Filter::Gt("summary.classes".into(), DocValue::Int(10)))
                .len(),
            1
        );
        c.create_index("summary.classes");
        assert_eq!(c.find(&Filter::eq("summary.classes", 7)).len(), 1);
    }
}
