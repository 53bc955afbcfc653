//! Machine models for the simulated supercomputers.
//!
//! The constants below are *not* vendor datasheet numbers — they are
//! effective rates calibrated so that simulated single-iteration CCSD
//! times land in the same range the paper reports (roughly 17–900 s over
//! the Table 3–6 problem list) while preserving the architectural
//! contrasts that matter to the ML layer: Aurora-like nodes have more,
//! individually slower GPU tiles and a quieter interconnect; Frontier-like
//! nodes have fewer, faster GCDs and noisier timings (the paper finds
//! Frontier consistently harder to predict).

/// An abstract GPU supercomputer profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Display name ("aurora", "frontier").
    pub name: String,
    /// GPU executors per node (Aurora: 6 PVC × 2 tiles = 12; Frontier:
    /// 4 MI250X × 2 GCDs = 8).
    pub gpus_per_node: usize,
    /// Sustained large-GEMM rate per GPU executor, FLOP/s — an *effective*
    /// application-level rate, far below peak.
    pub flops_per_gpu: f64,
    /// Tile-efficiency half-saturation constant: a task with smallest
    /// matricized GEMM dimension `s` runs at `flops_per_gpu · s/(s + s_half)`.
    pub gemm_half_dim: f64,
    /// Fixed runtime cost per task (launch + bookkeeping), seconds.
    pub task_overhead: f64,
    /// One-sided get latency per task, seconds.
    pub net_latency: f64,
    /// Remote-memory bandwidth available to one GPU executor, bytes/s.
    pub net_bandwidth_per_gpu: f64,
    /// Fraction of communication overlapped with compute, `[0, 1]`.
    pub comm_overlap: f64,
    /// Per-iteration fixed overhead (residual norms, DIIS, etc.), seconds.
    pub base_overhead: f64,
    /// Runtime cost growing linearly with node count (centralized
    /// scheduler / progress-engine pressure), seconds per node.
    pub per_node_overhead: f64,
    /// Collective-latency coefficient: `coll_latency · log2(nodes + 1)`.
    pub coll_latency: f64,
    /// Usable memory per node, bytes.
    pub mem_per_node: f64,
    /// Node power draw at idle, watts.
    pub idle_watts_per_node: f64,
    /// Node power draw with all GPUs busy, watts.
    pub busy_watts_per_node: f64,
    /// Log-normal measurement-noise sigma.
    pub noise_sigma: f64,
}

impl MachineModel {
    /// Total GPU executors for a node count.
    pub fn executors(&self, nodes: usize) -> usize {
        self.gpus_per_node * nodes.max(1)
    }

    /// Effective FLOP/s of one executor on a task whose smallest
    /// matricized GEMM dimension is `s` (saturating in `s`).
    pub fn effective_flops(&self, min_gemm_dim: f64) -> f64 {
        self.flops_per_gpu * min_gemm_dim / (min_gemm_dim + self.gemm_half_dim)
    }
}

/// An Aurora-like machine: many Intel-PVC-style tiles per node, moderate
/// per-tile rate, relatively quiet timing (paper MAPE 0.023).
pub fn aurora() -> MachineModel {
    MachineModel {
        name: "aurora".to_string(),
        gpus_per_node: 12,
        flops_per_gpu: 2.5e11,
        gemm_half_dim: 3000.0,
        task_overhead: 4.0e-4,
        net_latency: 2.0e-5,
        net_bandwidth_per_gpu: 9.0e9,
        comm_overlap: 0.8,
        base_overhead: 4.0,
        per_node_overhead: 0.032,
        coll_latency: 0.15,
        mem_per_node: 1.1e12,
        // PVC-class node: ~6×600 W GPUs + hosts at full tilt.
        idle_watts_per_node: 1800.0,
        busy_watts_per_node: 4800.0,
        noise_sigma: 0.03,
    }
}

/// A Frontier-like machine: fewer but faster MI250X GCDs per node, a
/// slightly better effective rate, but noisier timings (paper MAPE 0.073).
pub fn frontier() -> MachineModel {
    MachineModel {
        name: "frontier".to_string(),
        gpus_per_node: 8,
        flops_per_gpu: 4.5e11,
        gemm_half_dim: 2200.0,
        task_overhead: 5.0e-4,
        net_latency: 2.5e-5,
        net_bandwidth_per_gpu: 1.1e10,
        comm_overlap: 0.7,
        base_overhead: 3.0,
        per_node_overhead: 0.045,
        coll_latency: 0.2,
        mem_per_node: 6.5e11,
        // MI250X node: 4×560 W GPUs + host.
        idle_watts_per_node: 1200.0,
        busy_watts_per_node: 3400.0,
        noise_sigma: 0.08,
    }
}

/// A profile's name and the function that builds it.
type Profile = (&'static str, fn() -> MachineModel);

/// Every profile, by name.
const MACHINES: [Profile; 2] = [("aurora", aurora), ("frontier", frontier)];

fn lookup(name: &str) -> Option<&'static Profile> {
    MACHINES.iter().find(|(known, _)| known.eq_ignore_ascii_case(name))
}

/// Whether a profile goes by `name` (case-insensitive). Allocates
/// nothing, unlike building the profile with [`by_name`].
pub fn is_known(name: &str) -> bool {
    lookup(name).is_some()
}

/// Look up a profile by name (case-insensitive).
pub fn by_name(name: &str) -> Option<MachineModel> {
    lookup(name).map(|(_, make)| make())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_case_insensitively() {
        assert_eq!(by_name("AURORA"), Some(aurora()));
        assert_eq!(by_name("Frontier"), Some(frontier()));
        assert!(is_known("fRoNtIeR") && is_known("aurora"));
        assert!(by_name("summit").is_none() && !is_known("summit") && !is_known(""));
    }

    #[test]
    fn executors_scale_with_nodes() {
        let m = aurora();
        assert_eq!(m.executors(10), 120);
        assert_eq!(frontier().executors(10), 80);
    }

    #[test]
    fn efficiency_saturates() {
        let m = aurora();
        let small = m.effective_flops(100.0);
        let mid = m.effective_flops(3000.0);
        let large = m.effective_flops(1e6);
        assert!(small < mid && mid < large);
        assert!((mid / m.flops_per_gpu - 0.5).abs() < 1e-12, "half-saturation point");
        assert!(large < m.flops_per_gpu);
        assert!(large / m.flops_per_gpu > 0.99);
    }

    #[test]
    fn by_name_round_trip() {
        assert_eq!(by_name("Aurora").unwrap().name, "aurora");
        assert_eq!(by_name("FRONTIER").unwrap().name, "frontier");
        assert!(by_name("summit").is_none());
    }

    #[test]
    fn frontier_noisier_than_aurora() {
        assert!(frontier().noise_sigma > aurora().noise_sigma);
    }

    #[test]
    fn profiles_have_sane_ranges() {
        for m in [aurora(), frontier()] {
            assert!(m.gpus_per_node >= 1);
            assert!(m.flops_per_gpu > 0.0);
            assert!((0.0..=1.0).contains(&m.comm_overlap));
            assert!(m.mem_per_node > 1e11);
            assert!(m.busy_watts_per_node > m.idle_watts_per_node);
            assert!(m.idle_watts_per_node > 0.0);
            assert!(m.noise_sigma >= 0.0);
        }
    }
}
