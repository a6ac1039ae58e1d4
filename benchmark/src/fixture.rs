//! The dataset every workload runs on, and the ground truth the checks
//! compare the server's answers with.
//!
//! `--seed` draws the data (`hbold_endpoint::synth::random_lod`): which
//! instances link to which, every literal value, the IRI namespace. The
//! *sizes* are pinned — class sizes follow the generator's power law, and
//! the per-class property counts are whole numbers so its coin flips always
//! land the same way — because a metric that is compared between runs with
//! different seeds must not depend on the seed through the amount of data.
//! (With the generator's default 2.5 datatype properties per class, the
//! largest class alone moves the quad count by 8 % from seed to seed.)
//!
//! The server only ever sees the N-Triples file. The truth is computed here
//! from the in-memory [`Graph`], without the SPARQL engine.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hbold_endpoint::synth::{random_lod, RandomLodConfig};
use hbold_rdf_model::vocab::rdf;
use hbold_rdf_model::{Graph, Iri, Term};

/// How big the fixture is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Generated classes (`rdfs:Class` itself becomes one more).
    pub classes: usize,
    /// Typed instances over all classes.
    pub instances: usize,
    /// Rows per `browse_pages` page.
    pub page_rows: usize,
}

impl Sizes {
    /// The ledger's fixture.
    pub const FULL: Sizes = Sizes {
        classes: 40,
        instances: 20_000,
        page_rows: 1_000,
    };
    /// The `--smoke` fixture.
    pub const SMOKE: Sizes = Sizes {
        classes: 12,
        instances: 1_500,
        page_rows: 100,
    };
}

/// Pages per `browse_pages` op.
pub const PAGES: usize = 4;

/// What the dataset contains, computed without SPARQL.
#[derive(Debug, Default)]
pub struct Truth {
    /// Quads in the dataset.
    pub quads: usize,
    /// Subjects with at least one `rdf:type`.
    pub typed_subjects: usize,
    /// `class → instances`.
    pub class_sizes: BTreeMap<Iri, usize>,
    /// `class → property → triples whose subject is an instance`.
    pub properties: BTreeMap<Iri, BTreeMap<Iri, usize>>,
    /// `class → (property, target class) → triples linking an instance to
    /// an instance of the target class`.
    pub links: BTreeMap<Iri, BTreeMap<(Iri, Iri), usize>>,
    /// The first `PAGES × page_rows` rows of the browse query, in order.
    pub browse_rows: Vec<[Term; 3]>,
}

/// The generated dataset on disk plus its truth.
#[derive(Debug)]
pub struct Fixture {
    /// The dataset.
    pub graph: Graph,
    /// Its N-Triples serialisation, the only thing the server reads.
    pub nt_path: PathBuf,
    /// Size of that file.
    pub nt_bytes: u64,
    /// Sizes the fixture was generated with.
    pub sizes: Sizes,
    /// The class `browse_pages` pages through (the largest).
    pub browse_class: Iri,
    /// Ground truth.
    pub truth: Truth,
    /// Time to generate, serialise and analyse, in seconds.
    pub gen_s: f64,
}

/// SplitMix64: the benchmark's only source of randomness besides the
/// dataset generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `--seed` to the generator's seed. The generator writes its seed
/// into every IRI, so all generator seeds have ten digits: byte counts then
/// do not depend on how many digits `--seed` happens to have.
pub fn generator_seed(seed: u64) -> u64 {
    let mut state = seed;
    1_000_000_000 + splitmix64(&mut state) % 9_000_000_000
}

/// Sort key reproducing `ORDER BY ?s ?p ?o` over this dataset: IRIs before
/// literals, then by text. Objects only ever tie-break among the IRIs of a
/// multi-valued link (literal-valued properties are single-valued here).
fn order_key(term: &Term) -> (bool, &str) {
    match term {
        Term::Iri(iri) => (false, iri.as_str()),
        other => (true, other.label()),
    }
}

impl Fixture {
    /// Generates the dataset for `seed`, writes it to `dir/fixture.nt` and
    /// computes the truth.
    pub fn generate(seed: u64, sizes: Sizes, dir: &Path) -> Result<Fixture, String> {
        let started = Instant::now();
        let config = RandomLodConfig {
            classes: sizes.classes,
            instances: sizes.instances,
            datatype_properties_per_class: 2.0,
            object_properties_per_class: 2.0,
            seed: generator_seed(seed),
            ..RandomLodConfig::default()
        };
        let graph = random_lod(&config);
        let nt_path = dir.join("fixture.nt");
        let text = hbold_rdf_parser::write_ntriples(&graph);
        std::fs::write(&nt_path, &text)
            .map_err(|e| format!("cannot write {}: {e}", nt_path.display()))?;
        let browse_class = config.class_iri(0);
        let truth = Truth::compute(&graph, &browse_class, PAGES * sizes.page_rows);
        Ok(Fixture {
            nt_bytes: text.len() as u64,
            graph,
            nt_path,
            sizes,
            browse_class,
            truth,
            gen_s: started.elapsed().as_secs_f64(),
        })
    }

    /// The aggregate-strategy queries `IndexExtractor::extract` sends for
    /// this dataset, in the order it sends them.
    pub fn extraction_queries(&self) -> Vec<String> {
        let mut queries = vec![
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }".to_string(),
            "SELECT ?class (COUNT(?s) AS ?n) WHERE { ?s a ?class } GROUP BY ?class ORDER BY ?class"
                .to_string(),
        ];
        for class in self.truth.class_sizes.keys() {
            queries.push(format!(
                "SELECT ?p (COUNT(?o) AS ?n) WHERE {{ ?s a <{0}> . ?s ?p ?o }} GROUP BY ?p ORDER BY ?p",
                class.as_str()
            ));
            queries.push(format!(
                "SELECT ?p ?target (COUNT(?o) AS ?n) WHERE {{ ?s a <{0}> . ?s ?p ?o . ?o a ?target }} \
                 GROUP BY ?p ?target ORDER BY ?p ?target",
                class.as_str()
            ));
        }
        queries.push("SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?class }".to_string());
        queries
    }

    /// The `browse_pages` queries, one per page.
    pub fn browse_queries(&self) -> Vec<String> {
        (0..PAGES)
            .map(|page| {
                format!(
                    "SELECT ?s ?p ?o WHERE {{ ?s a <{}> . ?s ?p ?o }} ORDER BY ?s ?p ?o LIMIT {} OFFSET {}",
                    self.browse_class.as_str(),
                    self.sizes.page_rows,
                    page * self.sizes.page_rows
                )
            })
            .collect()
    }
}

impl Truth {
    fn compute(graph: &Graph, browse_class: &Iri, browse_rows: usize) -> Truth {
        let rdf_type = Term::from(rdf::type_());
        let mut types: HashMap<&Term, Vec<&Iri>> = HashMap::new();
        for triple in graph.iter().filter(|t| t.predicate == rdf_type) {
            if let Some(class) = triple.object.as_iri() {
                types.entry(&triple.subject).or_default().push(class);
            }
        }
        let mut truth = Truth {
            quads: graph.len(),
            typed_subjects: types.len(),
            ..Truth::default()
        };
        for classes in types.values() {
            for class in classes {
                *truth.class_sizes.entry((*class).clone()).or_insert(0) += 1;
            }
        }
        let mut rows = Vec::new();
        for triple in graph.iter() {
            let Some(subject_classes) = types.get(&triple.subject) else {
                continue;
            };
            let Some(property) = triple.predicate.as_iri() else {
                continue;
            };
            for class in subject_classes {
                *truth
                    .properties
                    .entry((*class).clone())
                    .or_default()
                    .entry(property.clone())
                    .or_insert(0) += 1;
                for target in types.get(&triple.object).into_iter().flatten() {
                    *truth
                        .links
                        .entry((*class).clone())
                        .or_default()
                        .entry((property.clone(), (*target).clone()))
                        .or_insert(0) += 1;
                }
            }
            if subject_classes.contains(&browse_class) {
                rows.push([
                    triple.subject.clone(),
                    triple.predicate.clone(),
                    triple.object.clone(),
                ]);
            }
        }
        rows.sort_by(|a, b| {
            (order_key(&a[0]), order_key(&a[1]), order_key(&a[2])).cmp(&(
                order_key(&b[0]),
                order_key(&b[1]),
                order_key(&b[2]),
            ))
        });
        rows.truncate(browse_rows);
        truth.browse_rows = rows;
        truth
    }
}
