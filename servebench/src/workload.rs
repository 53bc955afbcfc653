//! The three workloads and the inputs each one sends, all derived from
//! the run's `--seed` (the daemon only ever sees the generated requests).

use chemcost_sim::datagen::{aurora_problems, Sample};
use std::collections::HashSet;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct `/v1/advise` questions: every request misses the cache
    /// and runs a full sweep.
    AdviseCold,
    /// The paper's 66 Aurora questions, answered once before timing and
    /// then replayed as cache hits, 4 requests pipelined.
    AdviseHot,
    /// 64-row `/v1/predict` bodies from the held-out split, from two
    /// concurrent connections.
    PredictRows,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::AdviseCold, Workload::AdviseHot, Workload::PredictRows];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdviseCold => "advise_cold",
            Workload::AdviseHot => "advise_hot",
            Workload::PredictRows => "predict_rows",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and every future build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The question asked of `/v1/advise`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Question {
    /// Occupied orbitals.
    pub o: usize,
    /// Virtual orbitals.
    pub v: usize,
    /// `"stq"`, `"bq"` or `"pareto"`.
    pub goal: &'static str,
}

/// The three goals `/v1/advise` answers.
pub const GOALS: [&str; 3] = ["stq", "bq", "pareto"];

impl Question {
    /// The request body the daemon's fast scanner accepts.
    pub fn body(&self) -> String {
        format!("{{\"o\":{},\"v\":{},\"goal\":\"{}\"}}", self.o, self.v, self.goal)
    }
}

/// Distinct cold questions: `o` ∈ [40, 350], `v` ∈ [250, 1600] (the span
/// of the paper's Aurora problems), goal uniform. No `(o, v)` pair
/// repeats, so no two requests share a sweep, let alone a cache entry.
#[derive(Debug, Clone)]
pub struct ColdQuestions {
    rng: Rng,
    seen: HashSet<(usize, usize)>,
}

impl ColdQuestions {
    /// The question stream for `seed`.
    pub fn new(seed: u64) -> ColdQuestions {
        ColdQuestions { rng: Rng::new(seed, 1), seen: HashSet::new() }
    }

    /// Never yield a question about these questions' `(o, v)` pairs.
    pub fn excluding(mut self, questions: &[Question]) -> ColdQuestions {
        self.seen.extend(questions.iter().map(|q| (q.o, q.v)));
        self
    }
}

impl Iterator for ColdQuestions {
    type Item = Question;

    fn next(&mut self) -> Option<Question> {
        loop {
            let o = self.rng.range(40, 350);
            let v = self.rng.range(250, 1600);
            let goal = GOALS[self.rng.range(0, 2)];
            if self.seen.insert((o, v)) {
                return Some(Question { o, v, goal });
            }
        }
    }
}

/// The paper's 22 Aurora `(O, V)` sizes × 3 goals, in a seeded order.
pub fn hot_questions(seed: u64) -> Vec<Question> {
    let mut qs: Vec<Question> = aurora_problems()
        .iter()
        .flat_map(|p| GOALS.map(|goal| Question { o: p.o, v: p.v, goal }))
        .collect();
    let mut rng = Rng::new(seed, 2);
    for i in (1..qs.len()).rev() {
        qs.swap(i, rng.range(0, i));
    }
    qs
}

/// Rows per `/v1/predict` body.
pub const PREDICT_ROWS: usize = 64;

/// The held-out rows in the order `seed` sends them.
pub fn predict_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed, 3);
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i));
    }
    order
}

/// The held-out rows of body `k`: positions `64k .. 64k + 63` of `order`,
/// wrapping around, so the first [`predict_cover`] bodies send every row
/// and the cycle has [`predict_cycle`] distinct bodies.
pub fn predict_rows_of(k: usize, order: &[usize]) -> impl Iterator<Item = usize> + '_ {
    (0..PREDICT_ROWS).map(move |j| order[(k * PREDICT_ROWS + j) % order.len()])
}

/// Bodies needed to send every held-out row at least once.
pub fn predict_cover(n: usize) -> usize {
    n.div_ceil(PREDICT_ROWS)
}

/// Distinct bodies in the cycle.
pub fn predict_cycle(n: usize) -> usize {
    n / gcd(n, PREDICT_ROWS)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A `/v1/predict` body for the given held-out rows.
pub fn predict_body(test: &[Sample], rows: impl Iterator<Item = usize>) -> String {
    let mut out = String::from("{\"rows\":[");
    for (i, r) in rows.enumerate() {
        let s = &test[r];
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"o\":{},\"v\":{},\"nodes\":{},\"tile\":{}}}",
            s.o, s.v, s.nodes, s.tile
        ));
    }
    out.push_str("]}");
    out
}

/// A complete keep-alive HTTP/1.1 POST. `request_id` is sent as
/// `X-Request-Id` (the traced phase tags requests so the daemon's trace
/// ids match the benchmark's spans).
pub fn http_post(path: &str, body: &str, request_id: Option<u64>) -> Vec<u8> {
    let id = request_id.map(|id| format!("X-Request-Id: sb-{id}\r\n")).unwrap_or_default();
    format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         {id}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A keep-alive HTTP/1.1 GET.
pub fn http_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
}
