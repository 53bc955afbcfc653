//! Self-tests of the benchmark harness: percentile math, the `/metrics`
//! diff on captured expositions, the answer oracle on a tiny model (over
//! the router and over a live in-process server), the workload
//! generators, and agreement between `BENCHMARK.json` and the metric
//! tables the harness prints.

use chemcost_linalg::Matrix;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::persist::encode_gb;
use chemcost_ml::Regressor;
use chemcost_serve::http::Request;
use chemcost_serve::json::Json;
use chemcost_serve::{ModelRegistry, Router, Server};
use chemcost_servebench::drive::{run_loop, Source, Verdict};
use chemcost_servebench::oracle::{check_predict, mape_pct, Failures, Oracle};
use chemcost_servebench::prom::{parse, Diff};
use chemcost_servebench::run::{END_TO_END, PER_LAYER};
use chemcost_servebench::stats::{median, percentile, windows, Completion};
use chemcost_servebench::workload::{
    hot_questions, http_post, predict_cover, predict_cycle, predict_order, predict_rows_of,
    ColdQuestions, Question, Workload,
};
use chemcost_sim::datagen::generate_dataset_sized;
use chemcost_sim::machine::aurora;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(percentile(&v, 91.0), 10.0);
    assert_eq!(percentile(&v, 99.9), 10.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    assert!(percentile(&[], 50.0).is_nan());
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&thousand, 99.0), 990.0);
    assert_eq!(percentile(&thousand, 99.9), 999.0);
}

#[test]
fn median_handles_odd_even_and_unsorted() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn windows_bucket_by_completion_time() {
    let c = |end_ms: u64, lat_ms: u64| Completion {
        end_ns: end_ms * 1_000_000,
        latency_ns: lat_ms * 1_000_000,
    };
    let w = windows(&[c(10, 3), c(999, 1), c(1000, 2), c(2500, 9)], 1_000_000_000, 2);
    assert_eq!(w, vec![vec![1.0, 3.0], vec![2.0]], "the 2.5 s completion is past both windows");
}

const BEFORE: &str = include_str!("fixtures/metrics_before.prom");
const AFTER: &str = include_str!("fixtures/metrics_after.prom");

#[test]
fn exposition_parser_reads_labelled_series_and_skips_comments() {
    let m = parse(BEFORE);
    assert!(m.keys().all(|k| !k.starts_with('#')));
    assert!(m.contains_key("chemcost_request_stage_duration_seconds_sum{stage=\"read\"}"));
    assert!(m.contains_key("chemcost_batch_flush_total{reason=\"window\"}"));
    assert!(m.contains_key("chemcost_advise_cache_hits_total"));
}

/// Two scrapes of one freshly started daemon (the benchmark's model),
/// bracketing 12 distinct `/v1/advise` questions (cache misses) and 50
/// repeats of them (hits) on one keep-alive connection.
#[test]
fn histogram_diff_of_captured_scrapes() {
    let d = Diff::of_texts(BEFORE, AFTER);
    assert_eq!(d.get("chemcost_advise_cache_misses_total"), 12.0);
    assert_eq!(d.get("chemcost_advise_cache_hits_total"), 50.0);
    assert_eq!(d.get("chemcost_requests_total{route=\"advise\"}"), 62.0);
    // The first scrape's own timeline completes after it rendered, so
    // the stage histograms count it in the window too.
    assert_eq!(d.get("chemcost_request_stage_duration_seconds_count{stage=\"read\"}"), 63.0);
    // Every batched sweep flushes once: misses = flushes, all by window.
    assert_eq!(d.family_total("chemcost_batch_flush_total"), 12.0);
    assert_eq!(d.get("chemcost_batch_flush_total{reason=\"window\"}"), 12.0);
    // Means are Δsum / Δcount, checked against the raw lines.
    let p = |text: &str, k: &str| parse(text)[k];
    let sum = "chemcost_request_stage_duration_seconds_sum{stage=\"batch_wait\"}";
    let count = "chemcost_request_stage_duration_seconds_count{stage=\"batch_wait\"}";
    let want = (p(AFTER, sum) - p(BEFORE, sum)) / (p(AFTER, count) - p(BEFORE, count));
    let got = d.hist_mean("chemcost_request_stage_duration_seconds", "stage=\"batch_wait\"");
    assert_eq!(got, want);
    assert!(got > 0.0);
    let rows = d.get("chemcost_batch_size_sum") / d.get("chemcost_batch_size_count");
    assert!(rows > 100.0, "a sweep batches hundreds of candidates, got {rows}");
    // A histogram with no observations in the window has mean 0.
    assert_eq!(d.hist_mean("chemcost_lifecycle_fit_duration_seconds", ""), 0.0);
}

/// A 25-tree model on 120 simulated configurations: the daemon's code
/// (the router) answers, the oracle checks.
fn tiny() -> (Oracle, Router, GradientBoosting) {
    let samples = generate_dataset_sized(&aurora(), 120, 7);
    let mut x = Matrix::zeros(0, 4);
    let mut y = Vec::new();
    for s in &samples {
        x.push_row(&s.features());
        y.push(s.seconds);
    }
    let mut gb = GradientBoosting::new(25, 4, 0.2);
    gb.fit(&x, &y).expect("fits");
    let oracle = Oracle::from_model_bytes(&encode_gb(&gb)).expect("decodes");
    let registry = ModelRegistry::new();
    registry.insert("tiny", "aurora", gb.clone());
    registry.set_default("aurora", "tiny").expect("registered");
    (oracle, Router::new(Arc::new(registry)), gb)
}

fn advise(router: &Router, q: &Question) -> String {
    let resp = router.handle(&Request::new("POST", "/v1/advise", q.body().as_bytes()));
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body.as_bytes().to_vec()).expect("UTF-8")
}

/// Change the last digit of the first `predicted_seconds` value.
fn alter(body: &str) -> String {
    let key = "\"predicted_seconds\":";
    let start = body.find(key).expect("has a recommendation") + key.len();
    let end = start + body[start..].find([',', '}']).expect("number ends");
    let mut digits: Vec<char> = body[start..end].chars().collect();
    let last = digits.iter().rposition(char::is_ascii_digit).expect("a digit");
    digits[last] = if digits[last] == '1' { '2' } else { '1' };
    format!("{}{}{}", &body[..start], digits.iter().collect::<String>(), &body[end..])
}

#[test]
fn oracle_accepts_the_daemons_answers_and_fails_altered_ones() {
    let (oracle, router, _) = tiny();
    let mut failures = Failures::default();
    for goal in ["stq", "bq", "pareto"] {
        let q = Question { o: 116, v: 840, goal };
        let body = advise(&router, &q);
        let rec = oracle.check_advise(&q, body.as_bytes()).expect("matches the reference");
        assert!(rec.is_some());
        let altered = alter(&body);
        assert_ne!(altered, body);
        if oracle.check_advise(&q, altered.as_bytes()).is_err() {
            failures.mismatch += 1;
        }
        // An answer to another question is a mismatch too.
        let other = Question { o: 117, ..q };
        assert!(oracle.check_advise(&other, body.as_bytes()).is_err());
    }
    assert_eq!(failures.total(), 3, "every altered answer counts as failed");

    let rows = [[116.0, 840.0, 64.0, 24.0], [44.0, 260.0, 5.0, 40.0]];
    let body = format!(
        "{{\"rows\":[{}]}}",
        rows.iter()
            .map(|r| format!(
                "{{\"o\":{},\"v\":{},\"nodes\":{},\"tile\":{}}}",
                r[0], r[1], r[2], r[3]
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let resp = router.handle(&Request::new("POST", "/v1/predict", body.as_bytes()));
    let answer = String::from_utf8(resp.body.as_bytes().to_vec()).expect("UTF-8");
    let x = Matrix::from_fn(2, 4, |i, j| rows[i][j]);
    let want: Vec<(f64, f64)> =
        oracle.flat.predict_batch(&x).into_iter().zip(rows.iter().map(|r| r[2])).collect();
    check_predict(&want, answer.as_bytes()).expect("matches predict_batch");
    let altered = answer.replacen("\"seconds\":", "\"seconds\":1", 1);
    assert!(check_predict(&want, altered.as_bytes()).is_err());
}

/// Judges advise answers with the oracle, except that the reference for
/// key 0 is deliberately the answer to a different question.
struct Rigged {
    oracle: Oracle,
    questions: Vec<Question>,
    encoded: Vec<Vec<u8>>,
    bodies: Vec<String>,
    sent: usize,
}

impl Source for Rigged {
    fn path(&self) -> &'static str {
        "/v1/advise"
    }
    fn next_key(&mut self) -> usize {
        self.sent += 1;
        (self.sent - 1) % self.questions.len()
    }
    fn encoded(&self, key: usize) -> &[u8] {
        &self.encoded[key]
    }
    fn body(&self, key: usize) -> &str {
        &self.bodies[key]
    }
    fn judge(&mut self, key: usize, body: &[u8]) -> Verdict {
        let mut q = self.questions[key];
        if key == 0 {
            q.goal = "bq";
        }
        match self.oracle.check_advise(&q, body) {
            Ok(_) => Verdict::Correct,
            Err(_) => Verdict::Mismatch,
        }
    }
}

#[test]
fn altered_reference_counts_as_failed_over_a_live_server() {
    let (oracle, router, _) = tiny();
    let server = Server::bind("127.0.0.1:0", router, 2).expect("binds").without_health();
    let addr = server.local_addr().expect("bound");
    let serving = std::thread::spawn(move || server.run());
    let questions: Vec<Question> = ["stq", "pareto", "bq"]
        .into_iter()
        .enumerate()
        .map(|(i, goal)| Question { o: 99 + i, v: 718, goal })
        .collect();
    let bodies: Vec<String> = questions.iter().map(Question::body).collect();
    let encoded = bodies.iter().map(|b| http_post("/v1/advise", b, None)).collect();
    let mut src = Rigged { oracle, questions, encoded, bodies, sent: 0 };
    let t0 = Instant::now();
    let out = run_loop(addr, &mut src, 2, t0, t0 + Duration::from_millis(300), Some(7));
    let mut shutdown = chemcost_servebench::wire::Conn::connect(addr).expect("connects");
    shutdown.call(&http_post("/v1/shutdown", "", None)).expect("shutdown answered");
    serving.join().expect("server thread").expect("server ran cleanly");

    let rigged = out.records.iter().filter(|r| r.key == 0).count() as u64;
    assert!(rigged > 0 && out.records.len() as u64 > rigged);
    assert_eq!(
        out.failures.mismatch, rigged,
        "each answer judged against the altered reference fails"
    );
    assert_eq!(out.failures.total(), rigged);
    assert_eq!(out.attempted, out.records.len() as u64);
    assert!(out.records.iter().all(|r| r.ok == (r.key != 0)));
    let ids: Vec<u64> = out.records.iter().map(|r| r.id).collect();
    assert_eq!(ids, (7..7 + ids.len() as u64).collect::<Vec<_>>(), "traced ids are sequential");
}

#[test]
fn mape_ignores_answer_order() {
    let pairs = [(110.0, 100.0), (45.0, 50.0), (3.0, 3.0)];
    let reversed: Vec<(f64, f64)> = pairs.iter().rev().copied().collect();
    assert_eq!(mape_pct(&pairs), mape_pct(&reversed));
    assert!((mape_pct(&pairs) - 20.0 / 3.0).abs() < 1e-12);
}

#[test]
fn cold_questions_are_distinct_in_range_and_seeded() {
    let subset: Vec<Question> = ColdQuestions::new(42).take(64).collect();
    let qs: Vec<Question> = ColdQuestions::new(1).excluding(&subset).take(5000).collect();
    let mut pairs: HashSet<(usize, usize)> = subset.iter().map(|q| (q.o, q.v)).collect();
    for q in &qs {
        assert!((40..=350).contains(&q.o) && (250..=1600).contains(&q.v), "{q:?}");
        assert!(pairs.insert((q.o, q.v)), "{q:?} repeats an (o, v) pair");
    }
    assert_eq!(qs[..10], ColdQuestions::new(1).excluding(&subset).take(10).collect::<Vec<_>>()[..]);
    assert_ne!(qs[0], ColdQuestions::new(2).next().expect("endless"));
}

#[test]
fn hot_questions_are_the_66_paper_questions_in_seeded_order() {
    let a = hot_questions(1);
    assert_eq!(a.len(), 66);
    assert_eq!(a.iter().collect::<HashSet<_>>().len(), 66);
    let b = hot_questions(2);
    assert_ne!(a, b);
    assert_eq!(a.iter().collect::<HashSet<_>>(), b.iter().collect::<HashSet<_>>());
}

#[test]
fn predict_cover_sends_every_held_out_row() {
    let n = 583;
    let order = predict_order(5, n);
    let covered: HashSet<usize> =
        (0..predict_cover(n)).flat_map(|k| predict_rows_of(k, &order)).collect();
    assert_eq!(covered.len(), n);
    assert_eq!(predict_cycle(n), n);
    assert_eq!(predict_cycle(640), 10);
    assert_ne!(order, predict_order(6, n));
}

/// `BENCHMARK.json` must name exactly the workloads and metrics the
/// harness prints, with the same units.
#[test]
fn benchmark_json_matches_the_harness() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}
