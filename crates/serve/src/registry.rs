//! Named, versioned model registry.
//!
//! Models are `chemcost_ml` gradient-boosting ensembles held as their
//! [`FlatGbt`] image — the one in-memory form of a served model. A file
//! decodes straight into it through `chemcost_ml::persist::load_flat`;
//! the recursive model is never built to serve. Each entry remembers the
//! file it came from so it can be hot-reloaded; every successful
//! (re)load bumps the entry's version. Lookups return an `Arc` clone, so
//! a reload never invalidates predictions already in flight (a reload
//! briefly holds the old image and the new one).

use crate::fault::{FaultKind, FaultPlane};
use chemcost_ml::flat::FlatGbt;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::persist::load_flat;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One registered model.
struct Entry {
    flat: Arc<FlatGbt>,
    version: u64,
    machine: String,
    path: Option<PathBuf>,
    /// Displaced (image, version) kept by the last promotion so one
    /// rollback command can restore it.
    prior: Option<(Arc<FlatGbt>, u64)>,
}

/// Summary of a registered model, as reported by `GET /v1/models`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    /// Registry name.
    pub name: String,
    /// Load generation; starts at 1, +1 per successful reload.
    pub version: u64,
    /// Machine the model was trained against.
    pub machine: String,
    /// Source file, when loaded from disk.
    pub path: Option<PathBuf>,
    /// Machines for which this model is the default.
    pub default_for: Vec<String>,
}

/// A resolved model lookup: the ensemble plus its registry metadata.
#[derive(Clone)]
pub struct ResolvedModel {
    /// Registry name the lookup resolved to.
    pub name: String,
    /// The shared model image; its predictions agree with the recursive
    /// model's within `chemcost_ml::flat::QUANT_REL_TOL`, and
    /// `FlatGbt::to_gb` rebuilds that model exactly.
    pub flat: Arc<FlatGbt>,
    /// Load generation.
    pub version: u64,
    /// Machine the model was trained against.
    pub machine: String,
}

impl std::fmt::Debug for ResolvedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedModel")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("machine", &self.machine)
            .finish_non_exhaustive()
    }
}

/// Thread-safe registry of named models with per-machine defaults.
#[derive(Default)]
pub struct ModelRegistry {
    entries: RwLock<HashMap<String, Entry>>,
    /// machine name → model name
    defaults: RwLock<HashMap<String, String>>,
    /// Chaos hook: when set, reloads roll for poison-reload injection.
    faults: RwLock<Option<Arc<FaultPlane>>>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Install a fault plane: subsequent [`ModelRegistry::reload`] calls
    /// roll for [`FaultKind::PoisonReload`] and fail as if the file on
    /// disk were corrupt when the roll fires. The last-good model stays
    /// live either way.
    pub fn set_fault_plane(&self, plane: Arc<FaultPlane>) {
        *self.faults.write() = Some(plane);
    }

    /// Register an in-memory model (no reload path).
    pub fn insert(&self, name: &str, machine: &str, model: GradientBoosting) {
        self.install(name, machine, FlatGbt::compile(&model), None);
    }

    /// Register a model from a persisted `.ccgb` file.
    pub fn load_file(&self, name: &str, machine: &str, path: &Path) -> Result<(), String> {
        let (flat, _) = load_flat(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
        self.install(name, machine, flat, Some(path.to_path_buf()));
        Ok(())
    }

    fn install(&self, name: &str, machine: &str, flat: FlatGbt, path: Option<PathBuf>) {
        let entry = Entry {
            flat: Arc::new(flat),
            version: 1,
            machine: machine.to_string(),
            path,
            prior: None,
        };
        self.entries.write().insert(name.to_string(), entry);
    }

    /// Re-read a file-backed model from disk. Returns the new version.
    /// The old model stays in place if the reload fails.
    pub fn reload(&self, name: &str) -> Result<u64, String> {
        let (path, expect_features) = {
            let entries = self.entries.read();
            let entry = entries.get(name).ok_or_else(|| format!("no model named {name:?}"))?;
            let path = entry
                .path
                .clone()
                .ok_or_else(|| format!("model {name:?} is in-memory only (no file to reload)"))?;
            (path, entry.flat.n_features())
        };
        let poisoned = self.faults.read().as_ref().is_some_and(|p| p.roll(FaultKind::PoisonReload));
        if poisoned {
            return Err(format!(
                "reloading {}: injected corrupt model file (chaos poison-reload)",
                path.display()
            ));
        }
        // Read and decode without holding the lock — disk I/O under a
        // write lock would stall every concurrent prediction.
        let (flat, _) =
            load_flat(&path).map_err(|e| format!("reloading {}: {e}", path.display()))?;
        // The wire format only bounds the feature count loosely, so a
        // corrupt-but-decodable file can change it; swapping such a model
        // in would panic every caller still predicting with the old
        // feature layout. Keep the last-good model instead.
        if flat.n_features() != expect_features {
            return Err(format!(
                "reloading {}: feature count changed from {expect_features} to {} (refusing to swap)",
                path.display(),
                flat.n_features()
            ));
        }
        let mut entries = self.entries.write();
        let entry = entries.get_mut(name).ok_or_else(|| format!("model {name:?} was removed"))?;
        entry.flat = Arc::new(flat);
        entry.version += 1;
        // A reload is explicit operator intervention: the pre-promotion
        // snapshot no longer describes the previous serving model.
        entry.prior = None;
        Ok(entry.version)
    }

    /// Atomically swap a retrained candidate's image in as the serving
    /// model, keeping the displaced (image, version) pair for
    /// [`ModelRegistry::rollback`]. Returns the new version.
    ///
    /// The candidate is the shadow's own image, installed as is: a
    /// promotion compiles nothing. Versions only ever move forward, and
    /// in-flight requests keep their `Arc` to the displaced model.
    pub fn promote(&self, name: &str, candidate: Arc<FlatGbt>) -> Result<u64, String> {
        let mut entries = self.entries.write();
        let entry = entries.get_mut(name).ok_or_else(|| format!("no model named {name:?}"))?;
        let displaced = std::mem::replace(&mut entry.flat, candidate);
        entry.prior = Some((displaced, entry.version));
        entry.version += 1;
        Ok(entry.version)
    }

    /// Restore the model displaced by the last [`ModelRegistry::promote`].
    ///
    /// The prior model comes back **byte-identical** (the same `Arc` the
    /// promotion displaced) but under a *new*, higher version number — never
    /// the old one — so caches and quality groups keyed by (name, version)
    /// can never confuse pre- and post-rollback answers. The snapshot is
    /// consumed: a second rollback without an intervening promotion errors.
    pub fn rollback(&self, name: &str) -> Result<u64, String> {
        let mut entries = self.entries.write();
        let entry = entries.get_mut(name).ok_or_else(|| format!("no model named {name:?}"))?;
        let (flat, _) = entry
            .prior
            .take()
            .ok_or_else(|| format!("model {name:?} has no prior version to roll back to"))?;
        entry.flat = flat;
        entry.version += 1;
        Ok(entry.version)
    }

    /// Make `name` the default model for `machine`.
    pub fn set_default(&self, machine: &str, name: &str) -> Result<(), String> {
        if !self.entries.read().contains_key(name) {
            return Err(format!("no model named {name:?}"));
        }
        self.defaults.write().insert(machine.to_string(), name.to_string());
        Ok(())
    }

    /// Look up a model by explicit name, falling back to the machine's
    /// default, falling back to the sole registered model.
    pub fn resolve(
        &self,
        name: Option<&str>,
        machine: Option<&str>,
    ) -> Result<ResolvedModel, String> {
        let entries = self.entries.read();
        let resolved_name = match name {
            Some(n) => n.to_string(),
            None => {
                let defaults = self.defaults.read();
                match machine.and_then(|m| defaults.get(m)) {
                    Some(n) => n.clone(),
                    None if entries.len() == 1 => {
                        entries.keys().next().expect("len checked").clone()
                    }
                    None => {
                        return Err(if entries.is_empty() {
                            "no models registered".to_string()
                        } else {
                            "multiple models registered; specify \"model\"".to_string()
                        })
                    }
                }
            }
        };
        let entry = entries
            .get(&resolved_name)
            .ok_or_else(|| format!("no model named {resolved_name:?}"))?;
        Ok(ResolvedModel {
            name: resolved_name,
            flat: Arc::clone(&entry.flat),
            version: entry.version,
            machine: entry.machine.clone(),
        })
    }

    /// All registered models, sorted by name.
    pub fn list(&self) -> Vec<ModelInfo> {
        let entries = self.entries.read();
        let defaults = self.defaults.read();
        let mut out: Vec<ModelInfo> = entries
            .iter()
            .map(|(name, e)| {
                let mut default_for: Vec<String> = defaults
                    .iter()
                    .filter(|(_, model)| *model == name)
                    .map(|(machine, _)| machine.clone())
                    .collect();
                default_for.sort();
                ModelInfo {
                    name: name.clone(),
                    version: e.version,
                    machine: e.machine.clone(),
                    path: e.path.clone(),
                    default_for,
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chemcost_linalg::Matrix;
    use chemcost_ml::Regressor;

    /// `tiny_model(seed)` compiled, as a promotion hands it over.
    fn tiny_image(seed: u64) -> Arc<FlatGbt> {
        Arc::new(FlatGbt::compile(&tiny_model(seed)))
    }

    /// Tiny model fitted on a trivial 4-feature dataset.
    fn tiny_model(seed: u64) -> GradientBoosting {
        let mut gb = GradientBoosting::new(4, 2, 0.5);
        gb.seed = seed;
        let x = Matrix::from_fn(8, 4, |i, j| (i * 4 + j) as f64);
        let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
        gb.fit(&x, &y).unwrap();
        gb
    }

    #[test]
    fn resolve_by_explicit_name() {
        let reg = ModelRegistry::new();
        reg.insert("gb-a", "aurora", tiny_model(1));
        reg.insert("gb-f", "frontier", tiny_model(2));
        let r = reg.resolve(Some("gb-f"), None).unwrap();
        assert_eq!(r.name, "gb-f");
        assert_eq!(r.machine, "frontier");
        assert_eq!(r.version, 1);
    }

    #[test]
    fn resolve_falls_back_to_machine_default_then_sole_model() {
        let reg = ModelRegistry::new();
        reg.insert("only", "aurora", tiny_model(1));
        // Sole model resolves with no hints at all.
        assert_eq!(reg.resolve(None, None).unwrap().name, "only");

        reg.insert("other", "frontier", tiny_model(2));
        // Ambiguous now.
        assert!(reg.resolve(None, None).is_err());
        reg.set_default("frontier", "other").unwrap();
        assert_eq!(reg.resolve(None, Some("frontier")).unwrap().name, "other");
        // A machine without a default is still ambiguous.
        assert!(reg.resolve(None, Some("aurora")).is_err());
    }

    #[test]
    fn unknown_lookups_error() {
        let reg = ModelRegistry::new();
        assert!(reg.resolve(None, None).unwrap_err().contains("no models"));
        assert!(reg.resolve(Some("ghost"), None).is_err());
        assert!(reg.set_default("aurora", "ghost").is_err());
        assert!(reg.reload("ghost").is_err());
    }

    #[test]
    fn reload_bumps_version_and_swaps_model() {
        let dir = std::env::temp_dir().join(format!("chemcost-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ccgb");
        chemcost_ml::persist::save_gb(&path, &tiny_model(1)).unwrap();

        let reg = ModelRegistry::new();
        reg.load_file("m", "aurora", &path).unwrap();
        let before = reg.resolve(Some("m"), None).unwrap();
        assert_eq!(before.version, 1);

        chemcost_ml::persist::save_gb(&path, &tiny_model(99)).unwrap();
        assert_eq!(reg.reload("m").unwrap(), 2);
        let after = reg.resolve(Some("m"), None).unwrap();
        assert_eq!(after.version, 2);
        // The old Arc is still usable by in-flight requests.
        let probe = Matrix::from_fn(1, 4, |_, j| j as f64);
        let _ = before.flat.predict(&probe);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_reload_keeps_last_good_model() {
        let dir = std::env::temp_dir().join(format!("chemcost-lastgood-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ccgb");
        chemcost_ml::persist::save_gb(&path, &tiny_model(1)).unwrap();

        let reg = ModelRegistry::new();
        reg.load_file("m", "aurora", &path).unwrap();

        // Overwrite with garbage: reload errors, last-good stays live at v1.
        std::fs::write(&path, b"definitely not a model").unwrap();
        assert!(reg.reload("m").is_err());
        let still = reg.resolve(Some("m"), None).unwrap();
        assert_eq!(still.version, 1);
        let probe = Matrix::from_fn(1, 4, |_, j| j as f64);
        assert!(still.flat.predict(&probe)[0].is_finite());

        // Restore a valid file: the next reload succeeds and bumps to v2.
        chemcost_ml::persist::save_gb(&path, &tiny_model(2)).unwrap();
        assert_eq!(reg.reload("m").unwrap(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poison_reload_injects_failure_without_touching_the_model() {
        use crate::fault::{FaultKind, FaultPlane};

        let dir = std::env::temp_dir().join(format!("chemcost-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ccgb");
        chemcost_ml::persist::save_gb(&path, &tiny_model(1)).unwrap();

        let reg = ModelRegistry::new();
        reg.load_file("m", "aurora", &path).unwrap();
        let plane =
            Arc::new(FaultPlane::builder().seed(1).rate(FaultKind::PoisonReload, 1.0).build());
        reg.set_fault_plane(Arc::clone(&plane));

        // The file on disk is perfectly valid, yet the injected fault
        // fails the reload — and the last-good model keeps serving.
        let err = reg.reload("m").unwrap_err();
        assert!(err.contains("poison-reload"), "{err}");
        assert_eq!(plane.injected(FaultKind::PoisonReload), 1);
        assert_eq!(reg.resolve(Some("m"), None).unwrap().version, 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_models_cannot_reload() {
        let reg = ModelRegistry::new();
        reg.insert("mem", "aurora", tiny_model(1));
        let err = reg.reload("mem").unwrap_err();
        assert!(err.contains("in-memory"), "{err}");
    }

    #[test]
    fn promote_swaps_and_rollback_restores_byte_identically() {
        use chemcost_ml::persist::{encode_flat, encode_gb};

        let reg = ModelRegistry::new();
        let original = tiny_model(1);
        let original_bytes = encode_gb(&original);
        reg.insert("m", "aurora", original);
        let candidate = tiny_image(99);
        let candidate_bytes = encode_flat(&candidate, None);

        assert_eq!(reg.promote("m", Arc::clone(&candidate)).unwrap(), 2);
        let promoted = reg.resolve(Some("m"), None).unwrap();
        assert_eq!(promoted.version, 2);
        assert!(Arc::ptr_eq(&promoted.flat, &candidate), "a promotion installs the shadow's image");
        assert_eq!(encode_flat(&promoted.flat, None), candidate_bytes);

        // Rollback restores the displaced model byte-identically, under a
        // NEW version — never a reused one.
        assert_eq!(reg.rollback("m").unwrap(), 3);
        let restored = reg.resolve(Some("m"), None).unwrap();
        assert_eq!(restored.version, 3);
        assert_eq!(encode_flat(&restored.flat, None), original_bytes);

        // The snapshot is consumed: no double rollback.
        let err = reg.rollback("m").unwrap_err();
        assert!(err.contains("no prior"), "{err}");
    }

    #[test]
    fn rollback_without_promotion_errors() {
        let reg = ModelRegistry::new();
        reg.insert("m", "aurora", tiny_model(1));
        assert!(reg.rollback("m").unwrap_err().contains("no prior"));
        assert!(reg.rollback("ghost").unwrap_err().contains("no model"));
        assert!(reg.promote("ghost", tiny_image(2)).is_err());
    }

    #[test]
    fn reload_clears_the_rollback_snapshot() {
        let dir = std::env::temp_dir().join(format!("chemcost-promote-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ccgb");
        chemcost_ml::persist::save_gb(&path, &tiny_model(1)).unwrap();

        let reg = ModelRegistry::new();
        reg.load_file("m", "aurora", &path).unwrap();
        reg.promote("m", tiny_image(99)).unwrap();
        assert_eq!(reg.reload("m").unwrap(), 3);
        // Operator reload invalidates the pre-promotion snapshot.
        assert!(reg.rollback("m").unwrap_err().contains("no prior"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_reload_and_promote_last_writer_wins() {
        let dir = std::env::temp_dir().join(format!("chemcost-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ccgb");
        chemcost_ml::persist::save_gb(&path, &tiny_model(1)).unwrap();

        let reg = Arc::new(ModelRegistry::new());
        reg.load_file("m", "aurora", &path).unwrap();

        let mut handles = Vec::new();
        for i in 0..4u64 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for j in 0..8u64 {
                    if (i + j) % 2 == 0 {
                        reg.promote("m", tiny_image(100 + i * 8 + j)).unwrap();
                    } else {
                        reg.reload("m").unwrap();
                    }
                    // Every interleaving must leave a servable model.
                    let r = reg.resolve(Some("m"), None).unwrap();
                    let probe = Matrix::from_fn(1, 4, |_, j| j as f64);
                    assert!(r.flat.predict_row(&[0.0, 1.0, 2.0, 3.0]).is_finite());
                    assert!(r.flat.predict(&probe)[0].is_finite());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 32 swaps from version 1: versions are monotonic, no lost updates.
        assert_eq!(reg.resolve(Some("m"), None).unwrap().version, 33);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_reports_defaults() {
        let reg = ModelRegistry::new();
        reg.insert("a", "aurora", tiny_model(1));
        reg.insert("b", "frontier", tiny_model(2));
        reg.set_default("aurora", "a").unwrap();
        reg.set_default("frontier", "a").unwrap();
        let infos = reg.list();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "a");
        assert_eq!(infos[0].default_for, vec!["aurora".to_string(), "frontier".to_string()]);
        assert!(infos[1].default_for.is_empty());
    }
}
