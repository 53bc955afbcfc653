//! Binary persistence for the deployed gradient-boosting model.
//!
//! Training takes ~1 s (Table 2), but a downstream tool (a job-script
//! generator, a CI gate on allocation requests) should not retrain per
//! invocation. This module gives the deployed GB a compact, versioned
//! binary format: save once after training, load in milliseconds.
//!
//! Format (little-endian):
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
//! versions decode with [`decode_flat`].
//!
//! The in-memory form of a file is the [`FlatGbt`] image. One decoder
//! reads a file tree by tree, through a bounded buffer and up to 256
//! nodes a read, straight into the image's builder: [`load_flat`] reads a regular file through a 64 KiB
//! `BufReader` and never holds it whole (a pipe, which has no length up
//! front, is read whole first). One encoder writes the image back. The
//! image keeps one exact `f64` per leaf and one per distinct split
//! threshold, in its feature's sorted table, where a split finds it by
//! its rank. The decoder builds the tables as the trees stream in,
//! deduplicated by bits, so a NaN or `-0.0` threshold keeps its exact
//! bits. A node's unused fields are written as zeros, as
//! `DecisionTree::export_nodes` writes them, so a file this module wrote
//! decodes and re-encodes to the same bytes. The [`GradientBoosting`]
//! entry points go through the image: [`encode_gb`] compiles the model,
//! and [`decode_gb`] rebuilds it with [`FlatGbt::to_gb`].
//!
//! Decoding validates every structural field (magic, version, counts,
//! split features < n_features, at most [`MAX_RANKS`] distinct split
//! thresholds in all, and child indices that point forward within
//! their tree to a node no other split claims, the left one to the next
//! node and the right one no further ahead than the image's link word
//! holds), so arbitrary or corrupted bytes produce [`DecodeError`], never
//! a panic or a tree that loops — fuzzed in `tests/properties.rs`. Every
//! count is checked against the bytes left (for a file, its length from
//! the metadata) before it sizes an allocation, so a short input that
//! claims a huge model fails as [`DecodeError::Truncated`] without
//! allocating for the claim, and the threshold tables grow with the
//! splits read, never with the feature count a header claims. Trees are
//! written in preorder, so a valid child index is always greater than its
//! parent's and names a node of its own, and a split's left child is the
//! node after it; a backward or self link would make every walk of the
//! tree cycle, and a shared child would make the number of root-to-leaf
//! paths grow exponentially with depth.
//!
//! [`MAX_RANKS`]: crate::flat::MAX_RANKS

use crate::flat::{Builder, FlatGbt};
use crate::gradient_boosting::GradientBoosting;
use crate::tree::FlatNode;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: u32 = 0x4343_4742;
const VERSION: u32 = 1;
/// Format version 2 = the version-1 payload plus a 32-byte [`Lineage`]
/// trailer after the last tree. Version-1 files remain readable forever;
/// [`encode_gb`] keeps writing version 1 so artifacts stay compatible
/// with older builds unless lineage is explicitly requested.
const VERSION_LINEAGE: u32 = 2;
/// Bytes of one encoded node.
const NODE_BYTES: u64 = 28;
/// Bytes of the version-2 lineage trailer.
const TRAILER_BYTES: u64 = 32;
/// Buffer between a model file and the decoder or encoder.
const FILE_BUFFER: usize = 64 << 10;
/// Nodes the decoder reads at a time: one read per run of them instead
/// of one per node, through a 7 KiB stack buffer.
const NODES_PER_READ: usize = 256;

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
///
/// # Panics
/// Panics if the model is unfitted (see [`FlatGbt::compile`]).
pub fn encode_gb(gb: &GradientBoosting) -> Vec<u8> {
    encode_flat(&FlatGbt::compile(gb), None)
}

/// Serialize an image: version 2 with its [`Lineage`] trailer when one is
/// given, else version 1.
pub fn encode_flat(flat: &FlatGbt, lineage: Option<&Lineage>) -> Vec<u8> {
    let trailer = if lineage.is_some() { TRAILER_BYTES as usize } else { 0 };
    let len = 32 + 4 * flat.n_trees() + NODE_BYTES as usize * flat.n_nodes() + trailer;
    let mut buf = Vec::with_capacity(len);
    write_flat(&mut buf, flat, lineage).expect("writing to a Vec cannot fail");
    buf
}

/// The one encoder.
fn write_flat(w: &mut impl Write, flat: &FlatGbt, lineage: Option<&Lineage>) -> io::Result<()> {
    let version = if lineage.is_some() { VERSION_LINEAGE } else { VERSION };
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&flat.init.to_le_bytes())?;
    w.write_all(&flat.learning_rate.to_le_bytes())?;
    w.write_all(&(flat.n_features() as u32).to_le_bytes())?;
    w.write_all(&(flat.n_trees() as u32).to_le_bytes())?;
    for t in 0..flat.n_trees() {
        let tree = flat.tree(t);
        w.write_all(&(tree.len() as u32).to_le_bytes())?;
        for n in tree {
            let mut b = [0u8; NODE_BYTES as usize];
            b[..4].copy_from_slice(&n.feature.to_le_bytes());
            b[4..12].copy_from_slice(&n.threshold.to_le_bytes());
            b[12..16].copy_from_slice(&n.left.to_le_bytes());
            b[16..20].copy_from_slice(&n.right.to_le_bytes());
            b[20..].copy_from_slice(&n.value.to_le_bytes());
            w.write_all(&b)?;
        }
    }
    if let Some(l) = lineage {
        w.write_all(&l.parent_version.to_le_bytes())?;
        w.write_all(&l.train_rows.to_le_bytes())?;
        w.write_all(&l.observed_rows.to_le_bytes())?;
        w.write_all(&l.fit_duration_ms.to_le_bytes())?;
        w.write_all(&l.seed.to_le_bytes())?;
    }
    Ok(())
}

/// Little-endian reads from an input of known length, each checked
/// against the bytes left before it is made.
struct Input<R> {
    r: R,
    left: u64,
}

impl<R: Read> Input<R> {
    /// Fail as truncated unless `n` more bytes remain.
    fn need(&self, n: u64) -> Result<(), DecodeError> {
        if self.left < n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Fill `buf` from the input.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), DecodeError> {
        self.need(buf.len() as u64)?;
        // A reader that falls short of the length it was given lost its
        // tail since (a file cut while it was read): truncated too.
        self.r.read_exact(buf).map_err(|_| DecodeError::Truncated)?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut b = [0; N];
        self.fill(&mut b)?;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        self.take().map(f64::from_le_bytes)
    }
}

/// The one decoder: read a model of `len` bytes from `r`, tree by tree,
/// into a [`FlatGbt`].
fn read_flat(r: impl Read, len: u64) -> Result<(FlatGbt, Option<Lineage>), DecodeError> {
    let mut input = Input { r, left: len };
    if input.u32()? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = input.u32()?;
    if version != VERSION && version != VERSION_LINEAGE {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let init = input.f64()?;
    let lr = input.f64()?;
    let n_features = input.u32()? as usize;
    let n_trees = input.u32()? as u64;
    if n_trees > 1_000_000 {
        return Err(DecodeError::Corrupt(format!("implausible tree count {n_trees}")));
    }
    if n_features == 0 || n_features > 1_000_000 {
        return Err(DecodeError::Corrupt(format!("implausible feature count {n_features}")));
    }
    // The tree counts and the trailer must fit in the bytes left, and
    // what is left after them bounds the node count: the arrays are sized
    // by bytes that exist, not by a count the input claims.
    let trailer = if version == VERSION_LINEAGE { TRAILER_BYTES } else { 0 };
    let framing = 4 * n_trees + trailer;
    input.need(framing)?;
    let nodes = (input.left - framing) / NODE_BYTES;
    let mut builder = Builder::new(n_features, n_trees as usize, nodes as usize);
    let mut tree = Vec::new();
    let mut run = [0u8; NODE_BYTES as usize * NODES_PER_READ];
    for _ in 0..n_trees {
        let n_nodes = input.u32()? as usize;
        input.need(NODE_BYTES * n_nodes as u64)?;
        tree.clear();
        while tree.len() < n_nodes {
            let k = (n_nodes - tree.len()).min(NODES_PER_READ);
            let bytes = &mut run[..k * NODE_BYTES as usize];
            input.fill(bytes)?;
            for b in bytes.chunks_exact(NODE_BYTES as usize) {
                let u32_at = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
                let f64_at =
                    |i: usize| f64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
                tree.push(FlatNode {
                    feature: u32_at(0),
                    threshold: f64_at(4),
                    left: u32_at(12),
                    right: u32_at(16),
                    value: f64_at(20),
                });
            }
        }
        builder.push_tree(&tree)?;
    }
    let lineage = if version == VERSION_LINEAGE {
        Some(Lineage {
            parent_version: input.u64()?,
            train_rows: input.u32()?,
            observed_rows: input.u32()?,
            fit_duration_ms: input.u64()?,
            seed: input.u64()?,
        })
    } else {
        None
    };
    if input.left > 0 {
        return Err(DecodeError::Corrupt(format!("{} trailing bytes after last tree", input.left)));
    }
    Ok((builder.finish(init, lr), lineage))
}

/// Decode a model straight into its image, plus its [`Lineage`]
/// (version-2 files; `None` for version-1 files, which predate lineage).
pub fn decode_flat(buf: &[u8]) -> Result<(FlatGbt, Option<Lineage>), DecodeError> {
    read_flat(buf, buf.len() as u64)
}

/// Deserialize a GB model from bytes, discarding any lineage trailer.
pub fn decode_gb(buf: &[u8]) -> Result<GradientBoosting, DecodeError> {
    decode_flat(buf).map(|(flat, _)| flat.to_gb())
}

/// Save a fitted GB model to a file (version 1).
///
/// # Panics
/// Panics if the model is unfitted (see [`FlatGbt::compile`]).
pub fn save_gb(path: &Path, gb: &GradientBoosting) -> io::Result<()> {
    save_flat(path, &FlatGbt::compile(gb), None)
}

/// Save an image to a file, streamed through a buffer: version 2 with
/// its [`Lineage`] trailer when one is given, else version 1.
pub fn save_flat(path: &Path, flat: &FlatGbt, lineage: Option<&Lineage>) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut w = BufWriter::with_capacity(FILE_BUFFER, File::create(path)?);
    write_flat(&mut w, flat, lineage)?;
    w.flush()
}

/// Load a GB model from a file, discarding any lineage trailer.
pub fn load_gb(path: &Path) -> io::Result<GradientBoosting> {
    load_flat(path).map(|(flat, _)| flat.to_gb())
}

/// Load a model file straight into its image, plus its lineage. A
/// regular file is read through a 64 KiB buffer, tree by tree, with every
/// count checked against the file's length. A pipe (`/dev/stdin`, a
/// shell's `<(...)`) has no length up front, so it is read whole and the
/// bytes read bound the decode.
pub fn load_flat(path: &Path) -> io::Result<(FlatGbt, Option<Lineage>)> {
    let mut file = File::open(path)?;
    let meta = file.metadata()?;
    let decoded = if meta.is_file() {
        read_flat(BufReader::with_capacity(FILE_BUFFER, file), meta.len())
    } else {
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        decode_flat(&buf)
    };
    decoded.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
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

    /// A model whose residuals vanished before its first stage has no
    /// trees; it still round-trips, and its image predicts its `init`.
    #[test]
    fn a_model_of_no_trees_round_trips() {
        let x = Matrix::from_fn(10, 2, |i, j| (i + j) as f64);
        let mut gb = GradientBoosting::new(5, 3, 0.1);
        gb.fit(&x, &[4.0; 10]).unwrap();
        assert_eq!(gb.n_stages(), 0);
        let bytes = encode_gb(&gb);
        let (flat, _) = decode_flat(&bytes).unwrap();
        assert_eq!(flat.predict_batch(&x), vec![4.0; 10]);
        assert_eq!(encode_flat(&flat, None), bytes);
        assert_eq!(decode_gb(&bytes).unwrap().predict(&x), gb.predict(&x));
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

    /// A file cut at every 4 KiB boundary, and at every byte of the
    /// header and of the first tree, fails to load — read from disk,
    /// where the length comes from the file's metadata, and from memory.
    #[test]
    fn a_file_cut_anywhere_fails_to_load() {
        let (gb, _) = fitted_gb();
        let bytes = encode_gb(&gb);
        let first_tree = 32 + 4 + 28 * gb.export().3[0].len();
        let mut cuts: Vec<usize> =
            (0..first_tree).chain((4096..bytes.len()).step_by(4096)).collect();
        cuts.sort_unstable_by(|a, b| b.cmp(a));
        let dir = std::env::temp_dir().join(format!("chemcost_persist_cut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ccgb");
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        // Longest cut first, so each one shortens the same file.
        for cut in cuts {
            file.set_len(cut as u64).unwrap();
            assert!(load_flat(&path).is_err(), "file cut at {cut} loaded");
            assert!(decode_flat(&bytes[..cut]).is_err(), "buffer cut at {cut} decoded");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_directory_is_not_a_model_file() {
        assert!(load_flat(&std::env::temp_dir()).is_err());
    }

    /// A pipe, as a shell's `<(...)` hands one over, loads like a file.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_pipe_loads_like_a_file() {
        use std::os::fd::AsRawFd;
        let (gb, x) = fitted_gb();
        let bytes = encode_gb(&gb);
        let (reader, mut writer) = io::pipe().unwrap();
        let path = std::path::PathBuf::from(format!("/proc/self/fd/{}", reader.as_raw_fd()));
        let feeder = std::thread::spawn(move || writer.write_all(&bytes));
        let (flat, lineage) = load_flat(&path).unwrap();
        feeder.join().unwrap().unwrap();
        assert_eq!(lineage, None);
        assert_eq!(flat.to_gb().predict(&x), gb.predict(&x));
    }

    #[test]
    fn rejects_future_version() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb);
        bytes[4] = 99; // version field
        assert!(matches!(decode_gb(&bytes), Err(DecodeError::UnsupportedVersion(_))));
    }

    #[test]
    fn rejects_corrupt_child_index() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb);
        // First tree's first node: set feature=0 with left pointing far out
        // of range. Node layout starts at offset 32 (header) + 4 (n_nodes).
        let node0 = 32 + 4;
        bytes[node0..node0 + 4].copy_from_slice(&0u32.to_le_bytes());
        bytes[node0 + 12..node0 + 16].copy_from_slice(&u32::MAX.to_le_bytes()); // left
        let r = decode_gb(&bytes);
        assert!(r.is_err(), "corrupt child index must be rejected");
    }

    /// A child link back to an ancestor would send every walk of the
    /// tree round a cycle forever, so decode refuses it.
    #[test]
    fn rejects_backward_child_link() {
        // A 1-tree model whose node 1, a split, links its left child
        // back to the root.
        let x = Matrix::from_fn(40, 2, |i, j| ((i * (j + 3)) % 11) as f64);
        let y: Vec<f64> = (0..40).map(|i| x[(i, 0)] * 3.0 + x[(i, 1)]).collect();
        let mut gb = GradientBoosting::new(1, 3, 0.5);
        gb.fit(&x, &y).unwrap();
        let mut bytes = encode_gb(&gb);
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
    /// root-to-leaf paths, and any walk without a visited set would
    /// never finish. Decode refuses the shared child.
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

    /// The image keeps no left link: a split's left child is the next
    /// node, as in every tree written in preorder. A split whose links
    /// are swapped sends its left branch elsewhere, so decode refuses it.
    #[test]
    fn rejects_swapped_child_links() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb);
        let root = 32 + 4;
        assert_ne!(&bytes[root..root + 4], &u32::MAX.to_le_bytes(), "tree 0's root is a split");
        let (left, right) = (root + 12, root + 16);
        let links: [u8; 8] = bytes[left..right + 4].try_into().unwrap();
        bytes[left..left + 4].copy_from_slice(&links[4..]);
        bytes[right..right + 4].copy_from_slice(&links[..4]);
        match decode_gb(&bytes) {
            Err(DecodeError::Corrupt(msg)) => assert!(msg.contains("not the next node"), "{msg}"),
            other => panic!("expected Corrupt(not the next node), got {other:?}"),
        }
    }

    /// A one-tree model over `n_features` features: a root split on
    /// feature 0 whose right child is node `right`, every other node a
    /// leaf.
    fn one_split_file(n_features: u32, right: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0.0f64.to_le_bytes());
        bytes.extend_from_slice(&0.1f64.to_le_bytes());
        bytes.extend_from_slice(&n_features.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_trees
        bytes.extend_from_slice(&(right + 1).to_le_bytes()); // n_nodes
        for i in 0..=right {
            let (feature, left, right) = if i == 0 { (0, 1u32, right) } else { (u32::MAX, 0, 0) };
            bytes.extend_from_slice(&feature.to_le_bytes());
            bytes.extend_from_slice(&0.5f64.to_le_bytes());
            bytes.extend_from_slice(&left.to_le_bytes());
            bytes.extend_from_slice(&right.to_le_bytes());
            bytes.extend_from_slice(&(i as f64).to_le_bytes());
        }
        bytes
    }

    /// A link word holds a right offset above the feature bits: 20 of
    /// them for 1,000,000 features, leaving 12, so offsets up to 4,095.
    /// A right child 4,096 nodes ahead does not fit, and decode refuses
    /// it instead of wrapping.
    #[test]
    fn rejects_a_right_offset_the_link_word_cannot_hold() {
        let (flat, _) = decode_flat(&one_split_file(1_000_000, 4095)).unwrap();
        let mut row = vec![0.0; 1_000_000];
        assert_eq!(flat.predict_row(&row), 0.1);
        row[0] = 1.0;
        assert_eq!(flat.predict_row(&row), 0.1 * 4095.0f32 as f64);
        for right in [4096, 4097, 70_000] {
            match decode_flat(&one_split_file(1_000_000, right)) {
                Err(DecodeError::Corrupt(msg)) => assert!(msg.contains("past the"), "{msg}"),
                other => panic!("right child {right}: expected Corrupt, got {other:?}"),
            }
        }
        // One feature needs no feature bits: the whole word is offset.
        assert!(decode_flat(&one_split_file(1, 70_000)).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb);
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
        let mut bytes = encode_gb(&gb);
        // n_features at offset 24, n_trees at offset 28.
        bytes[24..28].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_gb(&bytes), Err(DecodeError::Corrupt(_))), "zero features");
        let mut bytes = encode_gb(&gb);
        bytes[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_gb(&bytes), Err(DecodeError::Corrupt(_))), "huge tree count");
    }

    #[test]
    fn rejects_split_feature_out_of_range() {
        let (gb, _) = fitted_gb();
        let mut bytes = encode_gb(&gb);
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

    fn lineage_fixture() -> Lineage {
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
        let bytes = encode_flat(&FlatGbt::compile(&gb), Some(&lineage_fixture()));
        let (back, l) = decode_flat(&bytes).unwrap();
        assert_eq!(gb.predict(&x), back.to_gb().predict(&x));
        assert_eq!(l, Some(lineage_fixture()));
        // The v2 payload is exactly the v1 payload plus the 32-byte
        // trailer and the version field difference.
        assert_eq!(bytes.len(), encode_gb(&gb).len() + 32);
    }

    #[test]
    fn v1_files_decode_with_no_lineage() {
        let (gb, x) = fitted_gb();
        let (back, l) = decode_flat(&encode_gb(&gb)).unwrap();
        assert_eq!(l, None);
        assert_eq!(gb.predict(&x), back.to_gb().predict(&x));
    }

    #[test]
    fn lineage_file_round_trip() {
        let (gb, x) = fitted_gb();
        let dir = std::env::temp_dir().join("chemcost_persist_lineage_test");
        let path = dir.join("model.ccgb");
        save_flat(&path, &FlatGbt::compile(&gb), Some(&lineage_fixture())).unwrap();
        // load_gb tolerates the trailer; load_flat surfaces it.
        assert_eq!(load_gb(&path).unwrap().predict(&x), gb.predict(&x));
        let (_, l) = load_flat(&path).unwrap();
        assert_eq!(l, Some(lineage_fixture()));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn v2_rejects_truncated_trailer_and_trailing_garbage() {
        let (gb, _) = fitted_gb();
        let bytes = encode_flat(&FlatGbt::compile(&gb), Some(&lineage_fixture()));
        for cut in 1..32 {
            assert!(
                decode_flat(&bytes[..bytes.len() - cut]).is_err(),
                "trailer cut by {cut} accepted"
            );
        }
        let mut noisy = bytes.clone();
        noisy.extend_from_slice(&[0xCD; 5]);
        assert!(matches!(decode_flat(&noisy), Err(DecodeError::Corrupt(_))));
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
