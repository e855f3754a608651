//! Scenario specifications: the daemon's JSON face of one catalogue grid,
//! its canonical form and its hash.
//!
//! A [`ScenarioSpec`] carries what `exp` accepts on the command line —
//! grid name, `--quick`, `--trials`, `--seed`, `--protocols` — and
//! delegates defaults, validation and building to
//! [`dimmer_bench::catalogue`], so a daemon-served report is the same
//! report `exp --json` writes. Two specs that resolve to the same
//! configuration (say, protocols left to default versus spelled out
//! explicitly) canonicalize to the same string and therefore the same
//! [`ScenarioSpec::hash`]; the memo cache is keyed by `(hash, seed)`.

use std::sync::Arc;

use dimmer_bench::catalogue::{self, Context, Resolved, DEFAULT_ENVS};
use dimmer_bench::experiments::CityWorld;
use dimmer_bench::harness::ScenarioGrid;

use crate::cache::WorldCache;
use dimmer_json::Json;

/// One submitted scenario: which grid, at which scale, with which
/// protocol selection and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Catalogue grid name (`fig5`, `dynamics:churn-storm`, ...).
    pub grid: String,
    /// Quick mode: the catalogue's reduced counts, as `exp --quick`.
    pub quick: bool,
    /// Trials per cell; `None` uses the grid's default.
    pub trials: Option<usize>,
    /// Base seed; `None` uses the grid's default.
    pub seed: Option<u64>,
    /// Protocol selection; `None` uses the grid's default set. Must be
    /// absent for grids that do not compare protocols.
    pub protocols: Option<Vec<String>>,
}

impl ScenarioSpec {
    /// Parses a spec from the request's `"spec"` object. Unknown fields
    /// are rejected so that typos cannot silently change what runs.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = v else {
            return Err("spec must be an object".to_string());
        };
        let mut spec = ScenarioSpec {
            grid: String::new(),
            quick: false,
            trials: None,
            seed: None,
            protocols: None,
        };
        for (key, value) in fields {
            match key.as_str() {
                "grid" => {
                    spec.grid = value
                        .as_str()
                        .ok_or_else(|| "spec.grid must be a string".to_string())?
                        .to_string();
                }
                "quick" => {
                    spec.quick = value
                        .as_bool()
                        .ok_or_else(|| "spec.quick must be a boolean".to_string())?;
                }
                "trials" => {
                    let n = value
                        .as_u64()
                        .ok_or_else(|| "spec.trials must be a non-negative integer".to_string())?;
                    spec.trials = Some(n as usize);
                }
                "seed" => {
                    spec.seed =
                        Some(value.as_u64().ok_or_else(|| {
                            "spec.seed must be a non-negative integer".to_string()
                        })?);
                }
                "protocols" => {
                    let items = value
                        .as_arr()
                        .ok_or_else(|| "spec.protocols must be an array of strings".to_string())?;
                    let mut protocols = Vec::with_capacity(items.len());
                    for item in items {
                        protocols.push(
                            item.as_str()
                                .ok_or_else(|| {
                                    "spec.protocols must be an array of strings".to_string()
                                })?
                                .to_string(),
                        );
                    }
                    spec.protocols = Some(protocols);
                }
                other => return Err(format!("unknown spec field '{other}'")),
            }
        }
        if spec.grid.is_empty() {
            return Err("spec needs a \"grid\" field".to_string());
        }
        spec.resolve()?;
        Ok(spec)
    }

    /// The spec resolved against the scenario catalogue.
    pub(crate) fn resolve(&self) -> Result<Resolved, String> {
        catalogue::resolve(
            &self.grid,
            self.quick,
            self.trials,
            self.seed,
            self.protocols.as_deref(),
        )
    }

    /// The resolved trials-per-cell count.
    pub fn trials(&self) -> Result<usize, String> {
        Ok(self.resolve()?.trials)
    }

    /// The resolved base seed (the second half of the memo key).
    pub fn resolved_seed(&self) -> Result<u64, String> {
        Ok(self.resolve()?.seed)
    }

    /// The canonical form: every default resolved, deterministic field
    /// order. Equivalent specs produce identical strings — this is what
    /// [`hash`](Self::hash) digests and what makes memoization safe.
    pub fn canonical(&self) -> Result<String, String> {
        let r = self.resolve()?;
        let protocols = if r.protocols.is_empty() {
            "-".to_string()
        } else {
            r.protocols.join(",")
        };
        Ok(format!(
            "grid={};quick={};trials={};protocols={}",
            r.name, r.quick, r.trials, protocols
        ))
    }

    /// FNV-1a digest of the canonical form — the scenario half of the
    /// `(scenario_hash, seed)` memo key.
    pub fn hash(&self) -> Result<u64, String> {
        let canonical = self.canonical()?;
        let mut h: u64 = 0xcbf29ce484222325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        Ok(h)
    }

    /// Builds the scenario's grid, resolving city worlds through the warm
    /// cache.
    pub fn build(&self, worlds: &mut WorldCache) -> Result<ScenarioGrid, String> {
        self.build_with(&mut || worlds.city())
    }

    /// [`build`](Self::build) with city worlds from `city_worlds`, so the
    /// executor can lock its cache only while fetching them.
    pub(crate) fn build_with(
        &self,
        city_worlds: &mut dyn FnMut() -> Vec<Arc<CityWorld>>,
    ) -> Result<ScenarioGrid, String> {
        Ok(self.resolve()?.build(&mut Context {
            batch_threads: 1,
            envs: DEFAULT_ENVS,
            city_worlds,
        }))
    }

    /// Convenience: a quick spec for `grid` with every other field
    /// defaulted.
    pub fn quick(grid: &str) -> Self {
        ScenarioSpec {
            grid: grid.to_string(),
            quick: true,
            trials: None,
            seed: None,
            protocols: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(line: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::from_json(&dimmer_json::parse(line).unwrap())
    }

    #[test]
    fn equivalent_constructions_hash_identically() {
        let defaulted = spec(r#"{"grid":"fig5","quick":true}"#).unwrap();
        let explicit = spec(
            r#"{"trials":1,"protocols":["static","dimmer-dqn","pid"],"quick":true,"grid":"fig5"}"#,
        )
        .unwrap();
        assert_eq!(
            defaulted.canonical().unwrap(),
            explicit.canonical().unwrap()
        );
        assert_eq!(defaulted.hash().unwrap(), explicit.hash().unwrap());
        // Seeds do not enter the scenario hash (they key the memo jointly).
        let seeded = spec(r#"{"grid":"fig5","quick":true,"seed":77}"#).unwrap();
        assert_eq!(seeded.hash().unwrap(), defaulted.hash().unwrap());
    }

    #[test]
    fn differing_configurations_hash_differently() {
        let base = spec(r#"{"grid":"fig5","quick":true}"#).unwrap();
        for other in [
            r#"{"grid":"fig5"}"#,
            r#"{"grid":"fig5","quick":true,"trials":2}"#,
            r#"{"grid":"fig5","quick":true,"protocols":["static"]}"#,
            r#"{"grid":"fig7","quick":true}"#,
            r#"{"grid":"dynamics:churn-storm","quick":true}"#,
            r#"{"grid":"train:calm","quick":true}"#,
            r#"{"grid":"train:jammed","quick":true}"#,
        ] {
            assert_ne!(
                spec(other).unwrap().hash().unwrap(),
                base.hash().unwrap(),
                "{other} must hash differently"
            );
        }
    }

    /// The canonical string of every grid the daemon served before it
    /// read the catalogue, quick and full: the memo keys must not move.
    #[test]
    fn canonical_strings_of_previously_served_grids_are_unchanged() {
        let testbed = "static,dimmer-dqn,pid";
        let dynamics = "static,dimmer-dqn,dimmer-rule,pid";
        let mut expected: Vec<(String, [usize; 2], &str)> = vec![
            ("table1".into(), [1, 1], "-"),
            ("fig5".into(), [1, 3], testbed),
            ("fig5-seeds".into(), [16, 16], testbed),
            ("fig6".into(), [1, 1], "-"),
            ("fig7".into(), [1, 3], "static,dimmer-dqn,crystal"),
            ("topology-size".into(), [8, 8], "static,dimmer-rule"),
            ("city".into(), [4, 4], "-"),
        ];
        for preset in ["churn-storm", "link-fade", "roaming-jammer", "flash-crowd"] {
            expected.push((format!("dynamics:{preset}"), [1, 1], dynamics));
        }
        for family in ["calm", "jammed", "churn-storm", "roaming-jammer"] {
            expected.push((format!("train:{family}"), [1, 1], "-"));
        }
        for (grid, trials, protocols) in expected {
            for (quick, trials) in [(true, trials[0]), (false, trials[1])] {
                let s = spec(&format!(r#"{{"grid":"{grid}","quick":{quick}}}"#)).unwrap();
                assert_eq!(
                    s.canonical().unwrap(),
                    format!("grid={grid};quick={quick};trials={trials};protocols={protocols}")
                );
            }
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(spec(r#"{"grid":"fig9"}"#)
            .unwrap_err()
            .contains("unknown grid"));
        assert!(spec(r#"{"grid":"dynamics:warp"}"#)
            .unwrap_err()
            .contains("unknown dynamics preset"));
        assert!(spec(r#"{"grid":"train:volcanic"}"#)
            .unwrap_err()
            .contains("unknown train family"));
        assert!(spec(r#"{"grid":"train:calm","protocols":["static"]}"#)
            .unwrap_err()
            .contains("no protocol axis"));
        assert!(spec(r#"{"grid":"fig5","protocols":["crystal"]}"#)
            .unwrap_err()
            .contains("not supported"));
        assert!(spec(r#"{"grid":"fig5","protocols":["pid","pid"]}"#)
            .unwrap_err()
            .contains("more than once"));
        assert!(spec(r#"{"grid":"city","protocols":["static"]}"#)
            .unwrap_err()
            .contains("no protocol axis"));
        assert!(spec(r#"{"grid":"fig5","trials":0}"#)
            .unwrap_err()
            .contains("at least 1"));
        assert!(spec(r#"{"grid":"fig5","rounds":9}"#)
            .unwrap_err()
            .contains("unknown spec field"));
        assert!(spec(r#"{"quick":true}"#).unwrap_err().contains("grid"));
    }

    #[test]
    fn dynamics_grids_accept_the_zoo() {
        let zoo = spec(r#"{"grid":"dynamics:roaming-jammer","protocols":["dimmer-zoo","pid"]}"#);
        assert_eq!(
            zoo.unwrap().canonical().unwrap(),
            "grid=dynamics:roaming-jammer;quick=false;trials=1;protocols=dimmer-zoo,pid"
        );
    }

    #[test]
    fn every_catalogue_grid_builds() {
        let mut worlds = WorldCache::new();
        for grid in [
            "table1",
            "fig4b:nodes",
            "fig4c",
            "fig5",
            "fig5-seeds",
            "fig6",
            "fig7",
            "topology-size",
            "dynamics:churn-storm",
            "train:calm",
            "train:roaming-jammer",
            "city",
            "grid10k",
        ] {
            let s = ScenarioSpec::quick(grid);
            assert!(
                !s.build(&mut worlds).unwrap().is_empty(),
                "{grid} must build a non-empty grid"
            );
        }
        let (hits, misses) = worlds.counters();
        assert_eq!((hits, misses), (0, 1), "city worlds built exactly once");
    }
}
