//! End-to-end soak of the model-quality loop (docs/QUALITY.md).
//!
//! Drives the full advise → measure → observe round trip against the
//! in-process router with the simulator as ground-truth oracle:
//!
//! 1. 300 round trips against a healthy model — the windowed MAPE on
//!    `/metrics` must converge near the simulator's noise floor;
//! 2. the model is poisoned via the PR-4 fault plane (reloads fail, the
//!    stale generation keeps serving) while the "world" shifts 70%
//!    slower — the Page–Hinkley detector must trip, flag the group
//!    degraded, and `next_experiments` must return a non-empty,
//!    deduplicated, in-grid measurement plan;
//! 3. every round trip is correlated end to end by one request id: the
//!    `quality.residual` event fires under the observe request's trace
//!    and carries the originating advise request's trace.
//!
//! Plus a proptest battery over `POST /v1/observe` wire parsing:
//! arbitrary garbage must produce structured 4xx — never a panic, and
//! never a skewed rolling statistic.

use chemcost_linalg::Matrix;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_obs::{self as obs, Level, RingSink, Value};
use chemcost_serve::http::{Request, Response};
use chemcost_serve::json::Json;
use chemcost_serve::metrics::{
    lint_exposition_with_required, Intake, OBSERVATIONS, REQUIRED_SERIES,
};
use chemcost_serve::{FaultKind, FaultPlaneBuilder, ModelRegistry, Router};
use chemcost_sim::datagen::{generate_dataset_sized, node_candidates, tile_candidates};
use chemcost_sim::machine::by_name;
use chemcost_sim::simulate::{simulate_iteration, Config};
use chemcost_sim::Problem;
use std::collections::HashSet;
use std::sync::Arc;

/// A file-backed router (so reloads have something to re-read) over a
/// model trained on simulated aurora data, and the problems it saw.
fn soak_router(tag: &str) -> (Router, std::path::PathBuf, Vec<(usize, usize)>) {
    let machine = by_name("aurora").unwrap();
    let samples = generate_dataset_sized(&machine, 240, 7);
    let x = Matrix::from_fn(samples.len(), 4, |i, j| match j {
        0 => samples[i].o as f64,
        1 => samples[i].v as f64,
        2 => samples[i].nodes as f64,
        _ => samples[i].tile as f64,
    });
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let mut gb = GradientBoosting::new(120, 4, 0.1);
    gb.seed = 3;
    gb.fit(&x, &y).unwrap();

    let dir = std::env::temp_dir().join(format!("chemcost-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.ccgb");
    chemcost_ml::persist::save_gb(&path, &gb).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.load_file("gb", "aurora", &path).unwrap();

    // Keep the larger problems: BQ answers for them sit inside the
    // training distribution, so the healthy-phase APE stream reflects
    // honest model error (~10%), not extrapolation pathologies. (The
    // tiny problems' STQ/BQ optima land where this small GB model even
    // predicts negative seconds — real drift-detector fodder, which the
    // healthy phase must not feed.)
    let mut problems: Vec<(usize, usize)> =
        samples.iter().map(|s| (s.o, s.v)).filter(|&(o, _)| o >= 60).collect();
    problems.sort_unstable();
    problems.dedup();
    assert!(problems.len() >= 3, "need several distinct problems, got {problems:?}");
    (Router::new(registry), path, problems)
}

fn request(method: &str, path: &str, body: &str, request_id: &str) -> Request {
    let mut req = Request::new(method, path, body.as_bytes());
    req.headers.insert("x-request-id".to_string(), request_id.to_string());
    req
}

fn header<'r>(resp: &'r Response, name: &str) -> Option<&'r str> {
    resp.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
}

fn body_json(resp: &Response) -> Json {
    Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

/// Scrape one float-valued series (with its full label set) off /metrics.
fn gauge(router: &Router, series: &str) -> f64 {
    let resp = router.handle(&Request::new("GET", "/metrics", b""));
    let text = String::from_utf8(resp.body.into_bytes()).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{series} ")))
        .unwrap_or_else(|| panic!("series {series} missing from:\n{text}"))
        .parse()
        .unwrap()
}

/// One advise → oracle → observe round trip. Returns the observe
/// response. `shift` scales the oracle's measured seconds (1.0 = the
/// world the model was trained on).
fn round_trip(
    router: &Router,
    o: usize,
    v: usize,
    goal: &str,
    id: &str,
    seed: u64,
    shift: f64,
) -> Response {
    let machine = by_name("aurora").unwrap();
    let advise = router.handle(&request(
        "POST",
        "/v1/advise",
        &format!(r#"{{"o": {o}, "v": {v}, "goal": "{goal}"}}"#),
        id,
    ));
    assert_eq!(advise.status, 200, "{}", String::from_utf8_lossy(&advise.body));
    let prediction_id = header(&advise, "X-Prediction-Id")
        .expect("every answered advise carries X-Prediction-Id")
        .to_string();
    let rec = body_json(&advise);
    let rec = rec.get("recommendation").expect("stq/bq answer has a recommendation");
    let nodes = rec.get("nodes").and_then(Json::as_usize).unwrap();
    let tile = rec.get("tile").and_then(Json::as_usize).unwrap();

    let measured =
        simulate_iteration(&Problem::new(o, v), &Config::new(nodes, tile), &machine, seed).seconds
            * shift;
    router.handle(&request(
        "POST",
        "/v1/observe",
        &format!(r#"{{"prediction_id": {prediction_id}, "measured_seconds": {measured}}}"#),
        id,
    ))
}

#[test]
fn quality_loop_soak_converges_then_catches_drift() {
    obs::set_level(Some(Level::Debug));
    let ring = Arc::new(RingSink::new(4096));
    let ring_handle = obs::add_sink(ring.clone());

    let (router, path, problems) = soak_router("quality-soak");
    let group = r#"{model="gb",version="1",machine="aurora"}"#;

    // This soak measures the quality loop in isolation: 300 healthy
    // observations would fill the retained pool and let the lifecycle
    // subsystem retrain and auto-promote mid-test, moving the group to
    // version 2 under our feet (docs/LIFECYCLE.md). Freeze pins the
    // serving generation for the duration — exactly the operator
    // control built for "do not touch this model right now".
    let freeze = router.handle(&request(
        "POST",
        "/v1/lifecycle/freeze",
        r#"{"model": "gb", "machine": "aurora"}"#,
        "soak-freeze",
    ));
    assert_eq!(freeze.status, 200, "{}", String::from_utf8_lossy(&freeze.body));

    // The quality series are pre-registered: present (if NaN) before any
    // traffic, and the whole exposition is lint-clean.
    {
        let resp = router.handle(&Request::new("GET", "/metrics", b""));
        let text = String::from_utf8(resp.body.into_bytes()).unwrap();
        lint_exposition_with_required(&text, REQUIRED_SERIES)
            .unwrap_or_else(|p| panic!("pre-traffic lint: {p:?}"));
        assert!(text.contains(&format!("chemcost_model_mape{group} NaN")), "{text}");
    }

    // -- phase 1: 300 healthy round trips ------------------------------
    for i in 0..300u64 {
        let (o, v) = problems[(i as usize) % problems.len().min(4)];
        let resp = round_trip(&router, o, v, "bq", &format!("soak-round-{i}"), 1000 + i, 1.0);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let parsed = body_json(&resp);
        assert_eq!(parsed.get("drift_tripped").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("degraded").and_then(Json::as_bool), Some(false));
    }
    let mape = gauge(&router, &format!("chemcost_model_mape{group}"));
    assert!(
        mape < 0.25,
        "after 300 healthy observations the windowed MAPE must sit near the \
         simulator noise floor, got {mape}"
    );
    assert_eq!(gauge(&router, &format!("chemcost_drift_trips_total{group}")), 0.0);
    assert_eq!(gauge(&router, &format!("chemcost_model_degraded{group}")), 0.0);
    assert_eq!(gauge(&router, "chemcost_quality_observations_total{outcome=\"accepted\"}"), 300.0);

    // Residuals carry the GP's σ by now: calibration is defined.
    assert!(gauge(&router, &format!("chemcost_calibration_ratio{group}")).is_finite());

    // -- trace correlation: one id spans advise → observe → residual ---
    let residuals = ring.events_named("quality.residual");
    assert!(residuals.len() >= 300, "got {} residual events", residuals.len());
    let probe = residuals
        .iter()
        .find(|e| e.trace.as_deref() == Some("soak-round-7"))
        .expect("residual event under the round's trace id");
    match probe.field("advise_trace") {
        Some(Value::Str(t)) => assert_eq!(
            t, "soak-round-7",
            "the residual must point back at the advise request that made the prediction"
        ),
        other => panic!("advise_trace missing or mistyped: {other:?}"),
    }

    // -- phase 2: poison the model, shift the world --------------------
    // The fault plane makes every reload fail (PR 4): the stale
    // generation keeps serving while real runtimes move 70% above its
    // training distribution.
    let plane = Arc::new(FaultPlaneBuilder::default().rate(FaultKind::PoisonReload, 1.0).build());
    router.registry().set_fault_plane(Arc::clone(&plane));
    let reload = router.handle(&request("POST", "/v1/models/gb/reload", "", "soak-reload"));
    assert_eq!(reload.status, 500, "poisoned reload must fail");

    let mut tripped_at = None;
    for i in 0..80u64 {
        let (o, v) = problems[(i as usize) % problems.len().min(4)];
        let resp = round_trip(&router, o, v, "bq", &format!("soak-drift-{i}"), 5000 + i, 1.7);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        if body_json(&resp).get("drift_tripped").and_then(Json::as_bool) == Some(true) {
            tripped_at = Some(i);
            break;
        }
    }
    let tripped_at = tripped_at.expect("a 70% runtime shift must trip Page–Hinkley within 80 obs");
    assert!(tripped_at < 60, "drift took {tripped_at} observations to trip");
    assert!(gauge(&router, &format!("chemcost_drift_trips_total{group}")) >= 1.0);
    assert_eq!(gauge(&router, &format!("chemcost_model_degraded{group}")), 1.0);
    assert!(!ring.events_named("quality.drift").is_empty(), "drift must emit quality.drift");

    // /v1/quality reports the degraded group and the build triple.
    let quality = body_json(&router.handle(&Request::new("GET", "/v1/quality", b"")));
    let build = quality.get("build").expect("build triple");
    assert!(build.get("version").and_then(Json::as_str).is_some());
    assert!(build.get("git_sha").and_then(Json::as_str).is_some());
    assert!(build.get("dirty").and_then(Json::as_str).is_some());
    let groups = quality.get("groups").and_then(Json::as_array).unwrap();
    let gb = groups
        .iter()
        .find(|g| g.get("model").and_then(Json::as_str) == Some("gb"))
        .expect("gb group");
    assert_eq!(gb.get("degraded").and_then(Json::as_bool), Some(true));
    assert!(gb.get("drift_trips").and_then(Json::as_usize).unwrap() >= 1);

    // -- next experiments: a real, in-grid, deduplicated plan ----------
    let plan = body_json(&router.handle(&Request::new("GET", "/v1/quality/next_experiments", b"")));
    assert_eq!(plan.get("strategy").and_then(Json::as_str), Some("US"));
    assert_eq!(plan.get("model").and_then(Json::as_str), Some("gb"));
    let configs = plan.get("configs").and_then(Json::as_array).unwrap();
    assert!(!configs.is_empty(), "a degraded model must get a measurement plan: {plan:?}");
    let nodes_grid = node_candidates();
    let tile_grid = tile_candidates();
    let observed: HashSet<(usize, usize)> = problems.iter().copied().collect();
    let mut seen = HashSet::new();
    for c in configs {
        let tuple = (
            c.get("o").and_then(Json::as_usize).unwrap(),
            c.get("v").and_then(Json::as_usize).unwrap(),
            c.get("nodes").and_then(Json::as_usize).unwrap(),
            c.get("tile").and_then(Json::as_usize).unwrap(),
        );
        assert!(observed.contains(&(tuple.0, tuple.1)), "{tuple:?} problem never observed");
        assert!(nodes_grid.contains(&tuple.2), "{tuple:?} nodes off-grid");
        assert!(tile_grid.contains(&tuple.3), "{tuple:?} tile off-grid");
        assert!(seen.insert(tuple), "duplicate experiment {tuple:?}");
        assert!(c.get("score").and_then(Json::as_f64).unwrap().is_finite());
    }

    // The full exposition is still lint-clean after both phases.
    let resp = router.handle(&Request::new("GET", "/metrics", b""));
    let text = String::from_utf8(resp.body.into_bytes()).unwrap();
    lint_exposition_with_required(&text, REQUIRED_SERIES)
        .unwrap_or_else(|p| panic!("post-soak lint: {p:?}"));

    obs::remove_sink(ring_handle);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn observe_rejections_are_structured_and_stat_neutral() {
    let (router, path, problems) = soak_router("quality-reject");
    let (o, v) = problems[0];

    // One accepted observation establishes a baseline...
    let ok = round_trip(&router, o, v, "stq", "reject-baseline", 42, 1.0);
    assert_eq!(ok.status, 200);
    // ...whose id is now consumed: a replay is 409.
    let id = body_json(&ok).get("prediction_id").and_then(Json::as_usize).unwrap();
    let replay = router.handle(&request(
        "POST",
        "/v1/observe",
        &format!(r#"{{"prediction_id": {id}, "measured_seconds": 5.0}}"#),
        "reject-replay",
    ));
    assert_eq!(replay.status, 409, "{}", String::from_utf8_lossy(&replay.body));

    // The hand-picked corpus the issue calls out.
    let cases: &[(&str, u16)] = &[
        // unknown id
        (r#"{"prediction_id": 999999, "measured_seconds": 5.0}"#, 404),
        // NaN / negative / zero / overflow-to-infinity measurements
        (r#"{"prediction_id": 1, "measured_seconds": NaN}"#, 400),
        (r#"{"prediction_id": 999999, "measured_seconds": -3.0}"#, 400),
        (r#"{"prediction_id": 999999, "measured_seconds": 0}"#, 400),
        (r#"{"prediction_id": 999999, "measured_seconds": 1e999}"#, 400),
        // malformed ids: fractional, zero, negative, above 2^53
        (r#"{"prediction_id": 1.5, "measured_seconds": 5.0}"#, 400),
        (r#"{"prediction_id": 0, "measured_seconds": 5.0}"#, 400),
        (r#"{"prediction_id": -1, "measured_seconds": 5.0}"#, 400),
        (r#"{"prediction_id": 9007199254740994, "measured_seconds": 5.0}"#, 400),
        // duplicate and unknown keys
        (r#"{"prediction_id": 1, "prediction_id": 2, "measured_seconds": 5.0}"#, 400),
        (r#"{"prediction_id": 1, "measured_seconds": 5.0, "measured_seconds": 6.0}"#, 400),
        (r#"{"prediction_id": 1, "measured_seconds": 5.0, "extra": true}"#, 400),
        // wrong shapes
        (r#"[1, 2]"#, 400),
        (r#"{"measured_seconds": 5.0}"#, 400),
        (r#"{"prediction_id": 1}"#, 400),
        ("{not json", 400),
    ];
    for (body, want) in cases {
        let resp = router.handle(&request("POST", "/v1/observe", body, "reject-case"));
        assert_eq!(resp.status, *want, "body {body:?} → {}", String::from_utf8_lossy(&resp.body));
        assert!(
            body_json(&resp).get("error").and_then(Json::as_str).is_some(),
            "body {body:?}: rejection must carry a structured error"
        );
    }

    // None of the rejections moved the rolling statistics: still exactly
    // the one accepted observation.
    let snap = router.quality().snapshot();
    let gb = snap.iter().find(|g| g.model == "gb" && g.stats.observations > 0).unwrap();
    assert_eq!(gb.stats.observations, 1);
    assert_eq!(router.metrics().count(OBSERVATIONS[Intake::Accepted as usize]), 1);
    assert_eq!(
        router.metrics().count(OBSERVATIONS[Intake::Rejected as usize]),
        1 + cases.len() as u64
    );

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes: /v1/observe never panics, never answers 2xx
        /// (no prediction was ever issued), and never skews the stats.
        #[test]
        fn arbitrary_bytes_never_panic_or_skew(body in proptest::collection::vec(any::<u8>(), 0..256)) {
            let registry = Arc::new(ModelRegistry::new());
            let router = Router::new(registry);
            let resp = router.handle(&Request::new("POST", "/v1/observe", &body));
            prop_assert!(resp.status >= 400 && resp.status < 500, "status {}", resp.status);
            prop_assert_eq!(router.metrics().count(OBSERVATIONS[Intake::Accepted as usize]), 0);
            prop_assert!(router.quality().snapshot().iter().all(|g| g.stats.observations == 0));
        }

        /// JSON-shaped fuzz: random key names and numeric payloads.
        #[test]
        fn json_shaped_fuzz_never_panics(
            key_bytes in proptest::collection::vec(b'a'..b'{', 1..20),
            id in any::<f64>(),
            measured in any::<f64>(),
        ) {
            let registry = Arc::new(ModelRegistry::new());
            let router = Router::new(registry);
            let key = String::from_utf8(key_bytes).unwrap();
            let body = format!(r#"{{"{key}": {id}, "measured_seconds": {measured}}}"#);
            let resp = router.handle(&Request::new("POST", "/v1/observe", body.as_bytes()));
            prop_assert!(resp.status >= 400 && resp.status < 500, "status {} for {body}", resp.status);
            prop_assert_eq!(router.metrics().count(OBSERVATIONS[Intake::Accepted as usize]), 0);
        }
    }
}
