//! `BENCHMARK.json`, the benchmark's declaration, as the programs read it.

use std::path::Path;

use hbold_sparql::json::JsonValue;

/// Reads and parses `BENCHMARK.json` from the root of the checkout this
/// crate was built in.
pub fn load() -> Result<JsonValue, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark has no parent directory")?
        .join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}
