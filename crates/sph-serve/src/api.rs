//! Job specification: the cache/dedup key of the whole service.
//!
//! A job is fully determined by `(scenario, resolution, steps, seed)`.
//! Because the simulation pipeline is bit-deterministic (fixed-chunk map,
//! ordered reduce — the README's "Determinism contract", held by the
//! contract table in `tests/contract/mod.rs`), two jobs with equal specs
//! produce byte-identical result documents, which is what makes result
//! caching and in-flight deduplication *correct* rather than merely
//! convenient.
//!
//! The job id is the FNV-1a hash of the canonical rendering, so ids are
//! stable across server restarts and across servers.

use crate::error::ServeError;
use sph_json::Value;

/// Bounds accepted at parse time; admission control applies the tighter,
/// cost-model-driven limits on top of these syntactic ones.
const MAX_SCALE: f64 = 16.0;
const MAX_STEPS: u64 = 100_000;
/// JSON numbers are parsed as `f64`, which holds every integer up to 2⁵³
/// exactly; a larger seed could alias a neighbour's job id and cached
/// result, so it is refused.
const MAX_SEED: u64 = (1 << 53) - 1;

#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub scenario: String,
    /// Resolution multiplier passed to `Resolution { scale }`.
    pub scale: f64,
    /// Macro-steps to evolve.
    pub steps: u64,
    /// Opaque key component; seeds the (empty) fault plan and keeps
    /// otherwise-identical submissions distinct in the cache.
    pub seed: u64,
}

impl JobSpec {
    /// Parse a `POST /jobs` body. `scenario` and `steps` are required;
    /// `resolution` defaults to 1.0 and `seed` to 0.
    pub(crate) fn from_json(body: &str) -> Result<JobSpec, ServeError> {
        let doc = sph_json::parse(body).map_err(ServeError::MalformedJson)?;
        if doc.as_obj().is_none() {
            return Err(ServeError::InvalidParam("body must be a JSON object".into()));
        }
        let scenario = doc
            .get("scenario")
            .and_then(|v| v.as_str())
            .ok_or_else(|| ServeError::InvalidParam("\"scenario\" (string) is required".into()))?
            .to_string();
        let scale = match doc.get("resolution") {
            None => 1.0,
            Some(v) => v.as_f64().ok_or_else(|| {
                ServeError::InvalidParam("\"resolution\" must be a number".into())
            })?,
        };
        if !scale.is_finite() || scale <= 0.0 || scale > MAX_SCALE {
            return Err(ServeError::InvalidParam(format!(
                "\"resolution\" must be in (0, {MAX_SCALE}], got {scale}"
            )));
        }
        let steps = doc.get("steps").and_then(|v| v.as_u64()).ok_or_else(|| {
            ServeError::InvalidParam("\"steps\" (positive integer) is required".into())
        })?;
        if steps == 0 || steps > MAX_STEPS {
            return Err(ServeError::InvalidParam(format!(
                "\"steps\" must be in [1, {MAX_STEPS}], got {steps}"
            )));
        }
        let seed = match doc.get("seed") {
            None => 0,
            Some(v) => v.as_u64().ok_or_else(|| {
                ServeError::InvalidParam("\"seed\" must be a non-negative integer".into())
            })?,
        };
        if seed > MAX_SEED {
            return Err(ServeError::InvalidParam(format!(
                "\"seed\" must be in [0, {MAX_SEED}], got {seed}"
            )));
        }
        Ok(JobSpec { scenario, scale, steps, seed })
    }

    /// Fixed-field-order JSON value; `render()` of this is the canonical
    /// form hashed into the job id.
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("scenario", Value::str(&self.scenario)),
            ("resolution", Value::Num(self.scale)),
            ("steps", Value::Num(self.steps as f64)),
            ("seed", Value::Num(self.seed as f64)),
        ])
    }

    pub fn canonical(&self) -> String {
        self.to_value().render()
    }

    /// Stable 16-hex-digit job id: FNV-1a over the canonical rendering.
    pub fn job_id(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self.canonical().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        format!("{hash:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_and_defaulted_specs() {
        let full = JobSpec::from_json(r#"{"scenario":"sod","resolution":1.5,"steps":20,"seed":7}"#)
            .unwrap();
        assert_eq!(full, JobSpec { scenario: "sod".into(), scale: 1.5, steps: 20, seed: 7 });
        let minimal = JobSpec::from_json(r#"{"scenario":"sedov","steps":5}"#).unwrap();
        assert_eq!(minimal.scale, 1.0);
        assert_eq!(minimal.seed, 0);
    }

    #[test]
    fn rejects_bad_specs_with_400s() {
        for body in [
            "not json",
            "[1,2]",
            r#"{"steps":5}"#,
            r#"{"scenario":"sod"}"#,
            r#"{"scenario":"sod","steps":0}"#,
            r#"{"scenario":"sod","steps":5,"resolution":-1}"#,
            r#"{"scenario":"sod","steps":5,"resolution":1e9}"#,
            r#"{"scenario":"sod","steps":5,"seed":-3}"#,
            r#"{"scenario":"sod","steps":5,"seed":9007199254740993}"#,
            r#"{"scenario":"sod","steps":5,"seed":9007199254740992}"#,
            r#"{"scenario":"sod","steps":5,"seed":18446744073709551616}"#,
            r#"{"scenario":"sod","steps":2.5}"#,
        ] {
            let err = JobSpec::from_json(body).unwrap_err();
            assert_eq!(err.status(), 400, "body {body:?} gave {err:?}");
        }
    }

    #[test]
    fn job_id_is_stable_and_seed_sensitive() {
        let a = JobSpec { scenario: "sod".into(), scale: 1.0, steps: 10, seed: 1 };
        let b = JobSpec { scenario: "sod".into(), scale: 1.0, steps: 10, seed: 1 };
        let c = JobSpec { scenario: "sod".into(), scale: 1.0, steps: 10, seed: 2 };
        assert_eq!(a.job_id(), b.job_id());
        assert_ne!(a.job_id(), c.job_id());
        assert_eq!(a.job_id().len(), 16);
        // Canonical form round-trips through the parser.
        let back = JobSpec::from_json(&a.canonical()).unwrap();
        assert_eq!(back, a);
    }
}
