//! The traced run's in-process half: the workload's generated inputs are
//! replayed through each layer's public functions, with a span around
//! every call, and the one-off costs (model decode, compile, registry
//! load, an empty parallel split, metrics render, health sample) are
//! timed on their own.

use crate::workload::{http_post, Question};
use chemcost_core::advisor::{Advisor, Goal, Recommendation, Sweep};
use chemcost_linalg::{parallel, Matrix};
use chemcost_ml::flat::FlatGbt;
use chemcost_ml::persist::decode_gb;
use chemcost_serve::cache::{AdviseCache, AdviseKey, AdviseKeyRef};
use chemcost_serve::http::{encode_response, parse_request};
use chemcost_serve::json::Json;
use chemcost_serve::metrics::Route;
use chemcost_serve::{Metrics, MetricsSampler, ModelRegistry, QualityHub, Router};
use chemcost_sim::machine::aurora;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entries in the daemon's advise cache (its default capacity); the
/// replay's cache is filled to this before inserts are timed, so every
/// timed insert evicts.
const CACHE_CAPACITY: usize = 512;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `ml.flat.predict`.
    pub name: &'static str,
    /// ns since the tracer started.
    pub start_ns: u64,
    /// ns since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (input) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    t0: Instant,
    /// Every span, in open order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }

    /// ns since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record an already-timed span (the wire phase's requests).
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    /// Mean duration of the spans named `name`, µs (`0` if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, ns) = self.count_ns(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    }

    /// Count and total duration (ns) of the spans named `name`.
    pub fn count_ns(&self, name: &str) -> (u64, u64) {
        self.spans.iter().filter(|s| s.name == name).fold((0, 0), |(n, t), s| (n + 1, t + s.ns()))
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// What one workload replays in-process.
pub enum ReplayInput<'a> {
    /// `/v1/advise` questions (advise_cold, advise_hot).
    Advise(&'a [Question]),
    /// `/v1/predict` bodies with their row matrices (predict_rows). The
    /// advise-path layers replay one question per body, built from its
    /// first row's `(O, V)`.
    Predict(&'a [(String, Matrix)]),
}

/// The in-process serving stack the replay drives: a router over the
/// same model file as the daemon (no batcher, so it scores directly),
/// plus stand-alone cache, quality journal and metrics.
pub struct Stack {
    router: Router,
    flat: Arc<FlatGbt>,
    cache: AdviseCache,
    quality: QualityHub,
    metrics: Arc<Metrics>,
}

/// Per-layer numbers measured in-process, by metric name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

impl Stack {
    /// Load `model` the way the daemon does.
    pub fn load(model: &Path) -> Result<Stack, String> {
        let registry = Arc::new(ModelRegistry::new());
        registry.load_file("model", "aurora", model)?;
        registry.set_default("aurora", "model")?;
        let flat = registry.resolve(None, Some("aurora"))?.flat;
        let metrics = Arc::new(Metrics::new());
        let cache = AdviseCache::new(CACHE_CAPACITY);
        for i in 0..CACHE_CAPACITY * 2 {
            cache.insert(filler_key(i), "{}", None);
        }
        Ok(Stack {
            router: Router::new(registry),
            flat,
            cache,
            quality: QualityHub::new(Arc::clone(&metrics)),
            metrics,
        })
    }

    /// Ask the router every question once, untimed, so a replay of them
    /// answers from its cache — as the daemon does after advise_hot's
    /// priming pass.
    pub fn prime(&self, questions: &[Question]) {
        for q in questions {
            self.router.handle(&request(&http_post("/v1/advise", &q.body(), None)));
        }
    }

    /// Replay the inputs with spans around every layer call, then time
    /// the one-off layer costs. `model` is the daemon's model file.
    pub fn replay(&self, input: &ReplayInput<'_>, model: &Path, tr: &mut Tracer) -> LayerMetrics {
        let advisor = Advisor::new(self.flat.as_ref(), aurora());
        let mut matrices: Vec<Matrix> = Vec::new();
        let mut candidates = Vec::new();
        let requests: Vec<(&str, Route, String, Question, Option<&Matrix>)> = match input {
            ReplayInput::Advise(qs) => {
                qs.iter().map(|q| ("/v1/advise", Route::Advise, q.body(), *q, None)).collect()
            }
            ReplayInput::Predict(bodies) => bodies
                .iter()
                .enumerate()
                .map(|(k, (body, x))| {
                    let q = Question {
                        o: x.row(0)[0] as usize,
                        v: x.row(0)[1] as usize,
                        goal: crate::workload::GOALS[k % 3],
                    };
                    ("/v1/predict", Route::Predict, body.clone(), q, Some(x))
                })
                .collect(),
        };
        for (i, &(path, route, ref body, q, rows)) in requests.iter().enumerate() {
            let id = i as u64;
            let wire = http_post(path, body, None);
            let root = tr.open("replay.request", None, id);
            let req = tr.time("serve.http.parse", Some(root), id, || {
                parse_request(&wire).expect("well-formed request").expect("complete request").0
            });
            let resp = tr.time("serve.routes.handle", Some(root), id, || self.router.handle(&req));
            assert_eq!(resp.status, 200, "in-process {path} answered {}", resp.status);
            tr.time("serve.http.encode", Some(root), id, || encode_response(&resp, true));
            let tree = Json::parse(std::str::from_utf8(resp.body.as_bytes()).expect("UTF-8 body"))
                .expect("JSON body");
            tr.time("serve.json.encode", Some(root), id, || tree.encode());
            tr.time("serve.metrics.record", Some(root), id, || {
                self.metrics.record(route, false, Duration::from_micros(100))
            });
            if let Some(x) = rows {
                tr.time("ml.flat.predict", Some(root), id, || self.flat.predict_batch(x));
                matrices.push(x.clone());
            }
            let cands =
                tr.time("core.advisor.candidates", Some(root), id, || advisor.candidates(q.o, q.v));
            candidates.push(cands.len() as f64);
            // On predict_rows only the bodies' own predictions are the
            // workload's inference; the question's sweep is not traced.
            let sweep = advisor.sweep_with(q.o, q.v, |x| {
                if rows.is_some() {
                    return self.flat.predict_batch(&x);
                }
                let seconds =
                    tr.time("ml.flat.predict", Some(root), id, || self.flat.predict_batch(&x));
                matrices.push(x);
                seconds
            });
            let rec = tr.time("core.advisor.reduce", Some(root), id, || reduce(&sweep, q.goal));
            let key = AdviseKey {
                model: "model".into(),
                version: 1_000 + id,
                machine: "aurora".into(),
                o: q.o,
                v: q.v,
                goal: q.goal.into(),
                budget_bits: None,
                deadline_bits: None,
            };
            let cached = rec.map(|r| (r.nodes, r.tile, r.predicted_seconds));
            let body: Arc<str> =
                Arc::from(std::str::from_utf8(resp.body.as_bytes()).expect("UTF-8"));
            tr.time("serve.cache.insert", Some(root), id, || {
                self.cache.insert(key.clone(), Arc::clone(&body), cached)
            });
            let probe = AdviseKeyRef {
                model: &key.model,
                version: key.version,
                machine: &key.machine,
                o: key.o,
                v: key.v,
                goal: &key.goal,
                budget_bits: None,
                deadline_bits: None,
            };
            let hit = tr.time("serve.cache.get", Some(root), id, || self.cache.get(&probe));
            assert!(hit.is_some(), "a just-inserted key must hit");
            if let Some(r) = rec {
                tr.time("serve.quality.record", Some(root), id, || {
                    self.quality.record_prediction(
                        "model",
                        1,
                        "aurora",
                        (q.o, q.v, r.nodes, r.tile),
                        r.predicted_seconds,
                    )
                });
            }
            tr.close(root);
        }

        let mut m = LayerMetrics::new();
        let (n_predict, predict_ns) = tr.count_ns("ml.flat.predict");
        let rows: usize = matrices.iter().map(Matrix::nrows).sum();
        m.insert("ml.flat.predict_us", predict_ns as f64 / n_predict.max(1) as f64 / 1e3);
        m.insert(
            "ml.flat.ns_per_row_tree",
            predict_ns as f64 / (rows.max(1) * self.flat.n_trees()) as f64,
        );
        m.insert("ml.flat.cpu_per_wall", cpu_per_wall(&self.flat, &matrices));
        m.insert("core.advisor.candidates_per_question", crate::stats::mean(&candidates));
        for (metric, span) in [
            ("core.advisor.candidates_us", "core.advisor.candidates"),
            ("core.advisor.reduce_us", "core.advisor.reduce"),
            ("serve.cache.insert_us", "serve.cache.insert"),
            ("serve.quality.record_us", "serve.quality.record"),
            ("serve.http.parse_us", "serve.http.parse"),
            ("serve.http.encode_us", "serve.http.encode"),
            ("serve.json.encode_us", "serve.json.encode"),
            ("serve.routes.handle_us", "serve.routes.handle"),
        ] {
            m.insert(metric, tr.mean_us(span));
        }
        m.insert("serve.cache.get_ns", tr.mean_us("serve.cache.get") * 1e3);
        m.insert("serve.metrics.record_ns", tr.mean_us("serve.metrics.record") * 1e3);

        // One-off costs, each the median of a few repetitions.
        let bytes = std::fs::read(model).expect("model file readable");
        m.insert("ml.persist.decode_ms", median_ms(3, || decode_gb(&bytes).expect("decodes")));
        let gb = decode_gb(&bytes).expect("decodes");
        m.insert("ml.flat.compile_ms", median_ms(3, || FlatGbt::compile(&gb)));
        m.insert(
            "serve.registry.load_ms",
            median_ms(3, || ModelRegistry::new().load_file("model", "aurora", model)),
        );
        let mut scratch = [0u8; 64];
        m.insert(
            "linalg.parallel.split_us",
            median_ms(201, || parallel::par_chunks_mut(&mut scratch, 1, |_, _| {})) * 1e3,
        );
        let router_metrics = self.router.metrics();
        m.insert("serve.metrics.render_us", median_ms(51, || router_metrics.render()) * 1e3);
        let sampler = MetricsSampler::new(router_metrics);
        m.insert(
            "health.sample_us",
            median_ms(51, || sampler.sample(router_metrics, 1_700_000_000_000_000)) * 1e3,
        );
        m
    }
}

fn request(wire: &[u8]) -> chemcost_serve::http::Request {
    parse_request(wire).expect("well-formed request").expect("complete request").0
}

/// A cache key no replayed question uses (version 0), to pre-fill the
/// replay cache.
fn filler_key(i: usize) -> AdviseKey {
    AdviseKey {
        model: "model".into(),
        version: 0,
        machine: "aurora".into(),
        o: i + 1,
        v: 1,
        goal: "stq".into(),
        budget_bits: None,
        deadline_bits: None,
    }
}

/// The reduction a question asks of its sweep: the goal's answer, or
/// the frontier's fastest point for `pareto`.
pub fn reduce(sweep: &Sweep, goal: &str) -> Option<Recommendation> {
    match goal {
        "stq" => sweep.best(Goal::ShortestTime),
        "bq" => sweep.best(Goal::Budget),
        _ => sweep.pareto_frontier().first().copied(),
    }
}

/// Median wall time of `reps` calls to `f`, ms.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times)
}

/// Process CPU per wall second while predicting the replay's matrices
/// back to back for at least a second (the per-sweep thread split shows
/// here as a ratio above 1).
fn cpu_per_wall(flat: &FlatGbt, matrices: &[Matrix]) -> f64 {
    if matrices.is_empty() {
        return 0.0;
    }
    let cpu0 = crate::daemon::proc_cpu_ms("/proc/self/stat");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(1) {
        for x in matrices {
            std::hint::black_box(flat.predict_batch(x));
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (crate::daemon::proc_cpu_ms("/proc/self/stat") - cpu0) / wall_ms
}
