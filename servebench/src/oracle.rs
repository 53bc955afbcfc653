//! The answer oracle: every wire answer is compared to an in-process
//! reference computed from the same model file, and failures are counted
//! by kind.

use crate::workload::Question;
use chemcost_core::advisor::{Advisor, Goal, Recommendation};
use chemcost_ml::flat::FlatGbt;
use chemcost_ml::persist::decode_gb;
use chemcost_serve::json::Json;
use chemcost_sim::ccsd::Problem;
use chemcost_sim::machine::{aurora, MachineModel};
use chemcost_sim::simulate::{simulate_iteration_clean, Config};

/// Why a request did not count as a correct answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Non-2xx responses other than a shed.
    pub status: u64,
    /// `503` load sheds.
    pub shed: u64,
    /// Connection errors, timeouts and unparseable responses.
    pub io: u64,
    /// 2xx answers that differ from the in-process reference.
    pub mismatch: u64,
}

impl Failures {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.status + self.shed + self.io + self.mismatch
    }

    /// Count a non-2xx status (a shed when `503`).
    pub fn count_status(&mut self, status: u16) {
        if status == 503 {
            self.shed += 1;
        } else {
            self.status += 1;
        }
    }

    /// Add another tally.
    pub fn add(&mut self, other: Failures) {
        self.status += other.status;
        self.shed += other.shed;
        self.io += other.io;
        self.mismatch += other.mismatch;
    }
}

/// The reference: the flat model compiled from the daemon's model file,
/// swept with the offline advisor.
pub struct Oracle {
    /// The compiled model.
    pub flat: FlatGbt,
    machine: MachineModel,
}

impl Oracle {
    /// Decode and compile a `.ccgb` model file's bytes.
    pub fn from_model_bytes(bytes: &[u8]) -> Result<Oracle, String> {
        let gb = decode_gb(bytes).map_err(|e| format!("decoding model: {e:?}"))?;
        Ok(Oracle { flat: FlatGbt::compile(&gb), machine: aurora() })
    }

    /// Check one `/v1/advise` answer body against the reference sweep.
    /// Returns the primary recommendation (the goal's answer, or the
    /// frontier's fastest point for `pareto`) on a match.
    pub fn check_advise(
        &self,
        q: &Question,
        body: &[u8],
    ) -> Result<Option<Recommendation>, String> {
        let sweep = Advisor::new(&self.flat, self.machine.clone()).sweep(q.o, q.v);
        let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
        let json = Json::parse(text).map_err(|e| format!("unparseable body: {e:?}"))?;
        let echo = (json.get("o").and_then(Json::as_usize), json.get("v").and_then(Json::as_usize));
        if echo != (Some(q.o), Some(q.v)) {
            return Err(format!("answer is for {echo:?}, asked ({}, {})", q.o, q.v));
        }
        match q.goal {
            "pareto" => {
                let want = sweep.pareto_frontier();
                let got = json.get("frontier").and_then(Json::as_array).ok_or("no frontier")?;
                if got.len() != want.len() {
                    return Err(format!("frontier has {} points, want {}", got.len(), want.len()));
                }
                for (g, w) in got.iter().zip(&want) {
                    check_rec(g, w)?;
                }
                Ok(want.first().copied())
            }
            goal => {
                let want =
                    sweep.best(if goal == "stq" { Goal::ShortestTime } else { Goal::Budget });
                let got = json.get("recommendation").ok_or("no recommendation")?;
                match (got, &want) {
                    (Json::Null, None) => Ok(None),
                    (g, Some(w)) => check_rec(g, w).map(|()| want),
                    (g, None) => Err(format!("got {g}, want null")),
                }
            }
        }
    }
}

/// Nodes and tile must match exactly; seconds and node-hours bit for bit
/// after parsing (the daemon prints the shortest round-trip form).
fn check_rec(got: &Json, want: &Recommendation) -> Result<(), String> {
    let nodes = got.get("nodes").and_then(Json::as_usize);
    let tile = got.get("tile").and_then(Json::as_usize);
    let seconds = got.get("predicted_seconds").and_then(Json::as_f64);
    let node_hours = got.get("predicted_node_hours").and_then(Json::as_f64);
    let same = nodes == Some(want.nodes)
        && tile == Some(want.tile)
        && seconds.map(f64::to_bits) == Some(want.predicted_seconds.to_bits())
        && node_hours.map(f64::to_bits) == Some(want.predicted_node_hours.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("got {got}, want {want:?}"))
    }
}

/// Check one `/v1/predict` answer body: one prediction per row, seconds
/// bit-identical to the reference and node-hours computed from them the
/// way the daemon does. `want` is `(reference seconds, nodes)` per row.
pub fn check_predict(want: &[(f64, f64)], body: &[u8]) -> Result<Vec<f64>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("unparseable body: {e:?}"))?;
    let preds = json.get("predictions").and_then(Json::as_array).ok_or("no predictions")?;
    if preds.len() != want.len() {
        return Err(format!("{} predictions for {} rows", preds.len(), want.len()));
    }
    let mut seconds = Vec::with_capacity(want.len());
    for (i, (p, &(s, nodes))) in preds.iter().zip(want).enumerate() {
        let got_s = p.get("seconds").and_then(Json::as_f64);
        let got_nh = p.get("node_hours").and_then(Json::as_f64);
        if got_s.map(f64::to_bits) != Some(s.to_bits())
            || got_nh.map(f64::to_bits) != Some((s * nodes / 3600.0).to_bits())
        {
            return Err(format!("row {i}: got {p}, want seconds {s}"));
        }
        seconds.push(s);
    }
    Ok(seconds)
}

/// The simulator's noise-free wall seconds for a configuration: the
/// ground truth an advise answer's `predicted_seconds` is scored against.
pub fn simulated_seconds(o: usize, v: usize, rec: &Recommendation) -> f64 {
    simulate_iteration_clean(&Problem::new(o, v), &Config::new(rec.nodes, rec.tile), &aurora())
        .seconds
}

/// Mean absolute percentage error of `(predicted, true)` pairs, %
/// (`0` for no pairs). The errors are summed in sorted order, so the
/// result does not depend on the order the answers arrived in.
pub fn mape_pct(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let mut errors: Vec<f64> =
        pairs.iter().map(|&(pred, truth)| ((pred - truth) / truth).abs()).collect();
    errors.sort_by(f64::total_cmp);
    100.0 * errors.iter().sum::<f64>() / pairs.len() as f64
}
