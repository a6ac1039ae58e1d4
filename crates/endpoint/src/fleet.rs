//! Fleets of heterogeneous endpoints.
//!
//! The paper's catalog holds 610 (later 680) SPARQL endpoints, of which 110
//! (later 130) can actually be indexed. The fleet generator reproduces that
//! landscape: a configurable number of endpoints of varying size, SPARQL
//! implementation, latency and availability, including a fraction of dead
//! endpoints that can never be indexed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::availability::AvailabilityModel;
use crate::endpoint::SparqlEndpoint;
use crate::profile::{EndpointProfile, SparqlImplementation};
use crate::synth::{random_lod, RandomLodConfig};

/// Configuration of a generated endpoint fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of endpoints to generate.
    pub endpoints: usize,
    /// Minimum number of classes per dataset.
    pub min_classes: usize,
    /// Maximum number of classes per dataset.
    pub max_classes: usize,
    /// Minimum number of instances per dataset.
    pub min_instances: usize,
    /// Maximum number of instances per dataset.
    pub max_instances: usize,
    /// Fraction of endpoints that are permanently dead.
    pub dead_fraction: f64,
    /// Fraction of live endpoints that are flaky (down some days).
    pub flaky_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            endpoints: 20,
            min_classes: 5,
            max_classes: 120,
            min_instances: 500,
            max_instances: 20_000,
            dead_fraction: 0.1,
            flaky_fraction: 0.2,
            seed: 2020,
        }
    }
}

impl FleetConfig {
    /// A fleet sized like the paper's 130 indexed "Big LD" (§5). The dataset
    /// sizes are kept laptop-friendly; the *number* of endpoints and the
    /// spread of classes is what the experiments exercise.
    pub fn paper_scale() -> Self {
        FleetConfig {
            endpoints: 130,
            min_classes: 5,
            max_classes: 400,
            min_instances: 1_000,
            max_instances: 50_000,
            dead_fraction: 0.0,
            flaky_fraction: 0.15,
            seed: 130,
        }
    }

    /// A small fleet for unit tests.
    pub fn small(endpoints: usize, seed: u64) -> Self {
        FleetConfig {
            endpoints,
            min_classes: 4,
            max_classes: 25,
            min_instances: 100,
            max_instances: 1_500,
            dead_fraction: 0.1,
            flaky_fraction: 0.2,
            seed,
        }
    }
}

/// A collection of simulated endpoints.
#[derive(Debug, Clone, Default)]
pub struct EndpointFleet {
    endpoints: Vec<SparqlEndpoint>,
}

impl EndpointFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        EndpointFleet::default()
    }

    /// Generates a fleet according to `config`.
    pub fn generate(config: &FleetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let implementations = SparqlImplementation::all();
        let mut endpoints = Vec::with_capacity(config.endpoints);
        for i in 0..config.endpoints {
            let classes = rng.gen_range(config.min_classes..=config.max_classes);
            let instances = rng.gen_range(config.min_instances..=config.max_instances);
            let data_config =
                RandomLodConfig::sized(classes, instances, config.seed.wrapping_add(i as u64));
            let graph = random_lod(&data_config);

            let implementation = implementations[rng.gen_range(0..implementations.len())];
            let mut profile =
                EndpointProfile::for_implementation(implementation, config.seed + i as u64);
            if rng.gen_bool(config.dead_fraction) {
                profile.availability = AvailabilityModel::always_down();
            } else if rng.gen_bool(config.flaky_fraction) {
                profile.availability =
                    AvailabilityModel::flaky(rng.gen_range(0.6..0.95), config.seed + i as u64);
            }

            let url = format!("http://ld{}.fleet.example/sparql", i);
            endpoints.push(SparqlEndpoint::new(url, &graph, profile));
        }
        EndpointFleet { endpoints }
    }

    /// Adds an endpoint to the fleet.
    pub fn push(&mut self, endpoint: SparqlEndpoint) {
        self.endpoints.push(endpoint);
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Returns `true` if the fleet has no endpoints.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// All endpoints.
    pub fn endpoints(&self) -> &[SparqlEndpoint] {
        &self.endpoints
    }

    /// Iterates over the endpoints.
    pub fn iter(&self) -> impl Iterator<Item = &SparqlEndpoint> {
        self.endpoints.iter()
    }

    /// Looks an endpoint up by URL.
    pub fn by_url(&self, url: &str) -> Option<&SparqlEndpoint> {
        self.endpoints.iter().find(|e| e.url() == url)
    }

    /// Sets the virtual day on every endpoint (used by the scheduler
    /// simulation).
    pub fn set_day(&self, day: u64) {
        for endpoint in &self.endpoints {
            endpoint.set_day(day);
        }
    }

    /// Endpoints that are reachable today.
    pub fn available(&self) -> Vec<&SparqlEndpoint> {
        self.endpoints.iter().filter(|e| e.is_available()).collect()
    }

    /// Total triples across the fleet.
    pub fn total_triples(&self) -> usize {
        self.endpoints
            .iter()
            .map(SparqlEndpoint::triple_count)
            .sum()
    }
}

impl FromIterator<SparqlEndpoint> for EndpointFleet {
    fn from_iter<I: IntoIterator<Item = SparqlEndpoint>>(iter: I) -> Self {
        EndpointFleet {
            endpoints: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_generation_matches_config() {
        let config = FleetConfig::small(12, 99);
        let fleet = EndpointFleet::generate(&config);
        assert_eq!(fleet.len(), 12);
        assert!(!fleet.is_empty());
        assert!(fleet.total_triples() > 0);
        // Deterministic: same config → same fleet shape.
        let again = EndpointFleet::generate(&config);
        assert_eq!(fleet.total_triples(), again.total_triples());
        let urls: Vec<_> = fleet.iter().map(|e| e.url().to_string()).collect();
        assert_eq!(urls.len(), 12);
        assert!(fleet.by_url(&urls[3]).is_some());
        assert!(fleet.by_url("http://nowhere.example/sparql").is_none());
    }

    #[test]
    fn fleet_has_heterogeneous_profiles() {
        let fleet = EndpointFleet::generate(&FleetConfig {
            endpoints: 40,
            ..FleetConfig::small(40, 7)
        });
        let mut implementations: Vec<_> =
            fleet.iter().map(|e| e.profile().implementation).collect();
        implementations.sort_by_key(|i| format!("{i:?}"));
        implementations.dedup();
        assert!(
            implementations.len() >= 3,
            "expected at least 3 implementation kinds"
        );
    }

    #[test]
    fn dead_endpoints_are_never_available() {
        let fleet = EndpointFleet::generate(&FleetConfig {
            endpoints: 30,
            dead_fraction: 0.5,
            flaky_fraction: 0.0,
            ..FleetConfig::small(30, 3)
        });
        fleet.set_day(5);
        let available = fleet.available().len();
        assert!(available < 30, "some endpoints should be dead");
        assert!(available > 5, "not all endpoints should be dead");
    }

    #[test]
    fn endpoints_answer_queries() {
        let fleet = EndpointFleet::generate(&FleetConfig::small(4, 21));
        fleet.set_day(0);
        let mut answered = 0;
        for endpoint in fleet.iter() {
            if let Ok(out) = endpoint.query("SELECT (COUNT(*) AS ?n) WHERE { ?s a ?c }") {
                let rows = out.results.into_select().unwrap();
                assert_eq!(rows.len(), 1);
                answered += 1;
            }
        }
        assert!(answered >= 1, "at least one endpoint should answer");
    }
}
