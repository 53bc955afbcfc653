//! Binary persistence for the deployed gradient-boosting model.
//!
//! Training takes ~1 s (Table 2), but a downstream tool (a job-script
//! generator, a CI gate on allocation requests) should not retrain per
//! invocation. This module gives the deployed GB a compact, versioned
//! binary format: save once after training, load in microseconds.
//!
//! Format (little-endian, via `bytes`):
//!
//! ```text
//! magic  u32  = 0x43434742  ("CCGB")
//! version u32 = 1
//! init   f64
//! learning_rate f64
//! n_features u32
//! n_trees u32
//! per tree: n_nodes u32, then nodes as
//!   feature u32, threshold f64, left u32, right u32, value f64
//! version 2 only, after the last tree (the lineage trailer):
//!   parent_version u64, train_rows u32, observed_rows u32,
//!   fit_duration_ms u64, seed u64
//! ```
//!
//! Version 2 is version 1 plus a fixed [`Lineage`] trailer recording a
//! retrained model's provenance (see the `lifecycle` subsystem); both
//! versions decode with [`decode_gb_full`].
//!
//! Decoding validates every structural field (magic, version, counts,
//! split features < n_features, and child indices that point forward
//! within their tree to a node no other split claims), so arbitrary or
//! corrupted bytes produce [`DecodeError`], never a panic or a tree
//! that loops — fuzzed in `tests/properties.rs`. Trees are written in
//! preorder, so a valid child index is always greater than its
//! parent's and names a node of its own; a backward or self link would
//! make every walk of the tree cycle, and a shared child would make
//! the number of root-to-leaf paths grow exponentially with depth.

use crate::gradient_boosting::GradientBoosting;
use crate::tree::FlatNode;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::Path;

const MAGIC: u32 = 0x4343_4742;
const VERSION: u32 = 1;
/// Format version 2 = the version-1 payload plus a 32-byte [`Lineage`]
/// trailer after the last tree. Version-1 files remain readable forever;
/// [`encode_gb`] keeps writing version 1 so artifacts stay compatible
/// with older builds unless lineage is explicitly requested.
const VERSION_LINEAGE: u32 = 2;

/// Provenance of a retrained model: where it came from and what data and
/// effort produced it. Persisted as a fixed 32-byte trailer in version-2
/// model files so a promoted candidate on disk explains itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lineage {
    /// Registry version of the serving model this candidate was
    /// warm-started from (0 when trained from scratch).
    pub parent_version: u64,
    /// Rows in the original training set the parent retains knowledge of.
    pub train_rows: u32,
    /// Redeemed live observations the warm-start stages were fitted on.
    pub observed_rows: u32,
    /// Wall-clock fit duration in milliseconds.
    pub fit_duration_ms: u64,
    /// RNG seed the fit ran with, for reproducibility.
    pub seed: u64,
}

/// Error decoding a persisted model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes — not a chemcost model file.
    BadMagic,
    /// Format version this build does not understand.
    UnsupportedVersion(u32),
    /// Buffer ended early or counts are inconsistent.
    Truncated,
    /// Node indices out of range.
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a chemcost GB model (bad magic)"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported model version {v}"),
            DecodeError::Truncated => write!(f, "model file truncated"),
            DecodeError::Corrupt(msg) => write!(f, "corrupt model: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialize a fitted GB model to bytes (version 1, no lineage).
pub fn encode_gb(gb: &GradientBoosting) -> Bytes {
    encode_gb_at(gb, None)
}

/// Serialize a fitted GB model with its [`Lineage`] trailer (version 2).
pub fn encode_gb_with_lineage(gb: &GradientBoosting, lineage: &Lineage) -> Bytes {
    encode_gb_at(gb, Some(lineage))
}

fn encode_gb_at(gb: &GradientBoosting, lineage: Option<&Lineage>) -> Bytes {
    let (init, lr, n_features, trees) = gb.export();
    let node_total: usize = trees.iter().map(|t| t.len()).sum();
    let mut buf = BytesMut::with_capacity(36 + trees.len() * 4 + node_total * 28 + 32);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(if lineage.is_some() { VERSION_LINEAGE } else { VERSION });
    buf.put_f64_le(init);
    buf.put_f64_le(lr);
    buf.put_u32_le(n_features as u32);
    buf.put_u32_le(trees.len() as u32);
    for tree in &trees {
        buf.put_u32_le(tree.len() as u32);
        for n in tree {
            buf.put_u32_le(n.feature);
            buf.put_f64_le(n.threshold);
            buf.put_u32_le(n.left);
            buf.put_u32_le(n.right);
            buf.put_f64_le(n.value);
        }
    }
    if let Some(l) = lineage {
        buf.put_u64_le(l.parent_version);
        buf.put_u32_le(l.train_rows);
        buf.put_u32_le(l.observed_rows);
        buf.put_u64_le(l.fit_duration_ms);
        buf.put_u64_le(l.seed);
    }
    buf.freeze()
}

/// Deserialize a GB model from bytes, discarding any lineage trailer.
pub fn decode_gb(buf: &[u8]) -> Result<GradientBoosting, DecodeError> {
    decode_gb_full(buf).map(|(gb, _)| gb)
}

/// Deserialize a GB model plus its [`Lineage`] (version-2 files; `None`
/// for version-1 files, which predate lineage).
pub fn decode_gb_full(mut buf: &[u8]) -> Result<(GradientBoosting, Option<Lineage>), DecodeError> {
    let need = |n: usize, buf: &[u8]| {
        if buf.remaining() < n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    };
    need(8, buf)?;
    if buf.get_u32_le() != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION && version != VERSION_LINEAGE {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    need(24, buf)?;
    let init = buf.get_f64_le();
    let lr = buf.get_f64_le();
    let n_features = buf.get_u32_le() as usize;
    let n_trees = buf.get_u32_le() as usize;
    if n_trees > 1_000_000 {
        return Err(DecodeError::Corrupt(format!("implausible tree count {n_trees}")));
    }
    if n_features == 0 || n_features > 1_000_000 {
        return Err(DecodeError::Corrupt(format!("implausible feature count {n_features}")));
    }
    let mut trees = Vec::with_capacity(n_trees);
    for _ in 0..n_trees {
        need(4, buf)?;
        let n_nodes = buf.get_u32_le() as usize;
        if n_nodes == 0 {
            return Err(DecodeError::Corrupt("empty tree".into()));
        }
        if buf.remaining() < n_nodes * 28 {
            return Err(DecodeError::Truncated);
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        // Which nodes a split already names as its child.
        let mut claimed = vec![false; n_nodes];
        for i in 0..n_nodes {
            let feature = buf.get_u32_le();
            let threshold = buf.get_f64_le();
            let left = buf.get_u32_le();
            let right = buf.get_u32_le();
            let value = buf.get_f64_le();
            if feature != u32::MAX {
                if feature as usize >= n_features {
                    return Err(DecodeError::Corrupt(format!(
                        "split feature {feature} >= feature count {n_features}"
                    )));
                }
                if left as usize >= n_nodes || right as usize >= n_nodes {
                    return Err(DecodeError::Corrupt("child index out of range".into()));
                }
                for child in [left as usize, right as usize] {
                    if child <= i {
                        return Err(DecodeError::Corrupt(format!(
                            "node {i} links back to node {child}"
                        )));
                    }
                    if std::mem::replace(&mut claimed[child], true) {
                        return Err(DecodeError::Corrupt(format!(
                            "node {child} is the child of two splits"
                        )));
                    }
                }
            }
            nodes.push(FlatNode { feature, threshold, left, right, value });
        }
        trees.push(nodes);
    }
    let lineage = if version == VERSION_LINEAGE {
        need(32, buf)?;
        Some(Lineage {
            parent_version: buf.get_u64_le(),
            train_rows: buf.get_u32_le(),
            observed_rows: buf.get_u32_le(),
            fit_duration_ms: buf.get_u64_le(),
            seed: buf.get_u64_le(),
        })
    } else {
        None
    };
    if buf.remaining() > 0 {
        return Err(DecodeError::Corrupt(format!(
            "{} trailing bytes after last tree",
            buf.remaining()
        )));
    }
    Ok((GradientBoosting::from_export(init, lr, n_features, &trees), lineage))
}

/// Save a fitted GB model to a file.
pub fn save_gb(path: &Path, gb: &GradientBoosting) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, encode_gb(gb))
}

/// Save a fitted GB model with its [`Lineage`] trailer (version-2 file).
pub fn save_gb_with_lineage(
    path: &Path,
    gb: &GradientBoosting,
    lineage: &Lineage,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, encode_gb_with_lineage(gb, lineage))
}

/// Load a GB model from a file.
pub fn load_gb(path: &Path) -> std::io::Result<GradientBoosting> {
    let data = std::fs::read(path)?;
    decode_gb(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Load a GB model plus its lineage (if the file is version 2).
pub fn load_gb_full(path: &Path) -> std::io::Result<(GradientBoosting, Option<Lineage>)> {
    let data = std::fs::read(path)?;
    decode_gb_full(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Regressor;
    use chemcost_linalg::Matrix;

    fn fitted_gb() -> (GradientBoosting, Matrix) {
        let x = Matrix::from_fn(120, 3, |i, j| ((i * (j + 2)) % 23) as f64);
        let y: Vec<f64> =
            (0..120).map(|i| x[(i, 0)] * 2.0 + (x[(i, 1)] * 0.5).sin() * 4.0).collect();
        let mut gb = GradientBoosting::new(60, 4, 0.1);
        gb.fit(&x, &y).unwrap();
        (gb, x)
    }

    #[test]
    fn round_trip_preserves_predictions_exactly() {
        let (gb, x) = fitted_gb();
        let bytes = encode_gb(&gb);
        let back = decode_gb(&bytes).unwrap();
        assert_eq!(gb.predict(&x), back.predict(&x));
    }

    #[test]
    fn file_round_trip() {
        let (gb, x) = fitted_gb();
        let dir = std::env::temp_dir().join("chemcost_persist_test");
        let path = dir.join("model.ccgb");
        save_gb(&path, &gb).unwrap();
        let back = load_gb(&path).unwrap();
        assert_eq!(gb.predict(&x), back.predict(&x));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(decode_gb(&[0u8; 64]).unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let (gb, _) = fitted_gb();
        let bytes = encode_gb(&gb);
        // Cutting the buffer at any prefix must error, never panic.
        for cut in [0, 4, 8, 20, 25, 30, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_gb(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_future_version() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb).to_vec();
        bytes[4] = 99; // version field
        assert!(matches!(decode_gb(&bytes), Err(DecodeError::UnsupportedVersion(_))));
    }

    #[test]
    fn rejects_corrupt_child_index() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb).to_vec();
        // First tree's first node: set feature=0 with left pointing far out
        // of range. Node layout starts at offset 32 (header) + 4 (n_nodes).
        let node0 = 32 + 4;
        bytes[node0..node0 + 4].copy_from_slice(&0u32.to_le_bytes());
        bytes[node0 + 12..node0 + 16].copy_from_slice(&u32::MAX.to_le_bytes()); // left
        let r = decode_gb(&bytes);
        assert!(r.is_err(), "corrupt child index must be rejected");
    }

    /// A child link back to an ancestor would send every walk of the
    /// tree round a cycle forever (`FlatGbt::compile` measures depth by
    /// walking it), so decode refuses it. Asserted on decode only: the
    /// bad model is never compiled.
    #[test]
    fn rejects_backward_child_link() {
        // A 1-tree model whose node 1, a split, links its left child
        // back to the root.
        let x = Matrix::from_fn(40, 2, |i, j| ((i * (j + 3)) % 11) as f64);
        let y: Vec<f64> = (0..40).map(|i| x[(i, 0)] * 3.0 + x[(i, 1)]).collect();
        let mut gb = GradientBoosting::new(1, 3, 0.5);
        gb.fit(&x, &y).unwrap();
        let mut bytes = encode_gb(&gb).to_vec();
        let node1 = 32 + 4 + 28;
        let feature = u32::from_le_bytes(bytes[node1..node1 + 4].try_into().unwrap());
        assert_ne!(feature, u32::MAX, "node 1 must be a split for this case");
        bytes[node1 + 12..node1 + 16].copy_from_slice(&0u32.to_le_bytes()); // left → root
        match decode_gb(&bytes) {
            Err(DecodeError::Corrupt(msg)) => assert!(msg.contains("links back"), "{msg}"),
            other => panic!("expected Corrupt(links back), got {other:?}"),
        }
    }

    /// Forward links alone do not make a tree: a chain of 64 splits
    /// whose left and right child are both the next node has 2⁶³
    /// root-to-leaf paths, and any walk without a visited set (depth
    /// measurement, scoring) would never finish. Decode refuses the
    /// shared child; the model is never compiled.
    #[test]
    fn rejects_a_child_shared_by_two_links() {
        let x = Matrix::from_fn(40, 2, |i, j| ((i * (j + 3)) % 11) as f64);
        let y: Vec<f64> = (0..40).map(|i| x[(i, 0)] * 3.0 + x[(i, 1)]).collect();
        let mut gb = GradientBoosting::new(1, 3, 0.5);
        gb.fit(&x, &y).unwrap();
        // Keep the fitted 1-tree header, replace the tree with the chain.
        let n = 64u32;
        let mut bytes = encode_gb(&gb)[..32].to_vec();
        bytes.extend_from_slice(&n.to_le_bytes());
        for i in 0..n {
            let (feature, child) = if i + 1 < n { (0, i + 1) } else { (u32::MAX, 0) };
            bytes.extend_from_slice(&feature.to_le_bytes());
            bytes.extend_from_slice(&1.0f64.to_le_bytes());
            bytes.extend_from_slice(&child.to_le_bytes()); // left
            bytes.extend_from_slice(&child.to_le_bytes()); // right
            bytes.extend_from_slice(&0.5f64.to_le_bytes());
        }
        match decode_gb(&bytes) {
            Err(DecodeError::Corrupt(msg)) => assert!(msg.contains("two splits"), "{msg}"),
            other => panic!("expected Corrupt(two splits), got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb).to_vec();
        bytes.extend_from_slice(&[0xAB; 7]);
        match decode_gb(&bytes) {
            Err(DecodeError::Corrupt(msg)) => {
                assert!(msg.contains("trailing"), "{msg}");
                assert!(msg.contains('7'), "{msg}");
            }
            other => panic!("expected Corrupt(trailing), got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_header_fields() {
        // Valid magic+version, then the header cut mid-f64.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 5]);
        assert_eq!(decode_gb(&bytes).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn rejects_implausible_counts() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb).to_vec();
        // n_features at offset 24, n_trees at offset 28.
        bytes[24..28].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_gb(&bytes), Err(DecodeError::Corrupt(_))), "zero features");
        let mut bytes = encode_gb(&gb).to_vec();
        bytes[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_gb(&bytes), Err(DecodeError::Corrupt(_))), "huge tree count");
    }

    #[test]
    fn rejects_split_feature_out_of_range() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb).to_vec();
        // First node: feature index far beyond n_features (3), with valid
        // child indices (0) so the feature check is the one that fires.
        let node0 = 32 + 4;
        bytes[node0..node0 + 4].copy_from_slice(&1000u32.to_le_bytes());
        bytes[node0 + 12..node0 + 16].copy_from_slice(&0u32.to_le_bytes());
        bytes[node0 + 16..node0 + 20].copy_from_slice(&0u32.to_le_bytes());
        match decode_gb(&bytes) {
            Err(DecodeError::Corrupt(msg)) => assert!(msg.contains("split feature"), "{msg}"),
            other => panic!("expected Corrupt(split feature), got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_tree() {
        // Header for one tree with zero nodes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1.0f64.to_le_bytes());
        bytes.extend_from_slice(&0.1f64.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes()); // n_features
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_trees
        bytes.extend_from_slice(&0u32.to_le_bytes()); // n_nodes = 0
        assert!(matches!(decode_gb(&bytes), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn arbitrary_byte_soup_never_panics() {
        // Deterministic pseudo-random buffers of varied length; decode
        // must always return an error, never panic or loop.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in [0usize, 1, 7, 31, 32, 33, 64, 257, 1024] {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                bytes.push((state >> 56) as u8);
            }
            assert!(decode_gb(&bytes).is_err(), "random soup of len {len} accepted");
        }
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert_eq!(DecodeError::BadMagic.to_string(), "not a chemcost GB model (bad magic)");
        assert_eq!(DecodeError::UnsupportedVersion(9).to_string(), "unsupported model version 9");
        assert_eq!(DecodeError::Truncated.to_string(), "model file truncated");
        assert!(DecodeError::Corrupt("x".into()).to_string().contains("x"));
    }

    fn lineage() -> Lineage {
        Lineage {
            parent_version: 3,
            train_rows: 240,
            observed_rows: 57,
            fit_duration_ms: 1234,
            seed: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn lineage_round_trip_preserves_model_and_trailer() {
        let (gb, x) = fitted_gb();
        let bytes = encode_gb_with_lineage(&gb, &lineage());
        let (back, l) = decode_gb_full(&bytes).unwrap();
        assert_eq!(gb.predict(&x), back.predict(&x));
        assert_eq!(l, Some(lineage()));
        // The v2 payload is exactly the v1 payload plus the 32-byte
        // trailer and the version field difference.
        assert_eq!(bytes.len(), encode_gb(&gb).len() + 32);
    }

    #[test]
    fn v1_files_decode_with_no_lineage() {
        let (gb, x) = fitted_gb();
        let (back, l) = decode_gb_full(&encode_gb(&gb)).unwrap();
        assert_eq!(l, None);
        assert_eq!(gb.predict(&x), back.predict(&x));
    }

    #[test]
    fn lineage_file_round_trip() {
        let (gb, x) = fitted_gb();
        let dir = std::env::temp_dir().join("chemcost_persist_lineage_test");
        let path = dir.join("model.ccgb");
        save_gb_with_lineage(&path, &gb, &lineage()).unwrap();
        // load_gb tolerates the trailer; load_gb_full surfaces it.
        assert_eq!(load_gb(&path).unwrap().predict(&x), gb.predict(&x));
        let (_, l) = load_gb_full(&path).unwrap();
        assert_eq!(l, Some(lineage()));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn v2_rejects_truncated_trailer_and_trailing_garbage() {
        let (gb, _) = fitted_gb();
        let bytes = encode_gb_with_lineage(&gb, &lineage());
        for cut in 1..32 {
            assert!(
                decode_gb_full(&bytes[..bytes.len() - cut]).is_err(),
                "trailer cut by {cut} accepted"
            );
        }
        let mut noisy = bytes.to_vec();
        noisy.extend_from_slice(&[0xCD; 5]);
        assert!(matches!(decode_gb_full(&noisy), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn encoded_size_is_compact() {
        let (gb, _) = fitted_gb();
        let bytes = encode_gb(&gb);
        let (_, _, _, trees) = gb.export();
        let nodes: usize = trees.iter().map(|t| t.len()).sum();
        // 28 bytes per node + small framing.
        assert!(bytes.len() < nodes * 28 + trees.len() * 4 + 64);
    }
}
