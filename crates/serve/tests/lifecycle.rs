//! End-to-end soak of the in-service model lifecycle (docs/LIFECYCLE.md).
//!
//! Closes the full loop against the in-process router with the simulator
//! as ground-truth oracle: a 70% world shift trips the drift detector,
//! which enqueues a background retrain; the candidate shadow-scores live
//! traffic, wins the guardband, auto-promotes — and the post-promotion
//! rolling MAPE recovers below 0.25 without a restart, while every
//! transition is visible on `GET /v1/lifecycle` and `/metrics`.
//!
//! Plus the promotion-safety battery: concurrent reload-vs-promote never
//! produces a 5xx, rollback restores the displaced generation
//! byte-identically, shadow scoring stays under 5% of the advise
//! pipeline, and a poison (NaN) candidate is auto-rejected before it can
//! accumulate a window.

use chemcost_lifecycle::{LifecycleConfig, LifecycleState};
use chemcost_linalg::Matrix;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::persist::{encode_gb, Lineage};
use chemcost_ml::Regressor;
use chemcost_serve::http::{Request, Response};
use chemcost_serve::json::Json;
use chemcost_serve::metrics::{
    lint_exposition_with_required, AdviseStage, ADVISE_STAGES, REQUIRED_SERIES,
};
use chemcost_serve::{ModelRegistry, Router};
use chemcost_sim::datagen::generate_dataset_sized;
use chemcost_sim::machine::by_name;
use chemcost_sim::simulate::{simulate_iteration, Config};
use chemcost_sim::Problem;
use std::sync::Arc;

/// Lifecycle tuning that lets the retrain → shadow → promote loop close
/// in a few hundred in-process round trips instead of production hours.
fn soak_config() -> LifecycleConfig {
    LifecycleConfig {
        min_shadow: 16,
        max_shadow: 96,
        guardband: 0.04,
        pool_trigger: 32,
        extra_stages: 60,
        max_depth: 4,
        min_retrain_rows: 8,
        queue_cap: 4,
        shadow_window: 96,
    }
}

/// A file-backed router (so reloads have something to re-read) over a
/// model trained on simulated aurora data, plus the training set and the
/// problems it saw.
fn soak_router(
    tag: &str,
    config: LifecycleConfig,
) -> (Router, std::path::PathBuf, Matrix, Vec<f64>, Vec<(usize, usize)>) {
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

    // Larger problems keep BQ answers inside the training distribution,
    // so drift signals reflect the world shift, not extrapolation.
    let mut problems: Vec<(usize, usize)> =
        samples.iter().map(|s| (s.o, s.v)).filter(|&(o, _)| o >= 60).collect();
    problems.sort_unstable();
    problems.dedup();
    assert!(problems.len() >= 3, "need several distinct problems, got {problems:?}");
    (Router::with_lifecycle_config(registry, 512, config), path, x, y, problems)
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

/// One advise → oracle → observe round trip at world-shift `shift`.
/// Returns the advise model_version and the observe response; panics on
/// any malformed answer (non-200, missing recommendation, missing id).
fn round_trip(
    router: &Router,
    o: usize,
    v: usize,
    id: &str,
    seed: u64,
    shift: f64,
) -> (u64, Response) {
    let machine = by_name("aurora").unwrap();
    let advise = router.handle(&request(
        "POST",
        "/v1/advise",
        &format!(r#"{{"o": {o}, "v": {v}, "goal": "bq"}}"#),
        id,
    ));
    assert_eq!(advise.status, 200, "{}", String::from_utf8_lossy(&advise.body));
    let prediction_id = header(&advise, "X-Prediction-Id")
        .expect("every answered advise carries X-Prediction-Id")
        .to_string();
    let parsed = body_json(&advise);
    let version = parsed.get("model_version").and_then(Json::as_usize).unwrap() as u64;
    let rec = parsed.get("recommendation").expect("bq answer has a recommendation");
    let nodes = rec.get("nodes").and_then(Json::as_usize).unwrap();
    let tile = rec.get("tile").and_then(Json::as_usize).unwrap();
    let predicted = rec.get("predicted_seconds").and_then(Json::as_f64).unwrap();
    assert!(predicted.is_finite() && predicted > 0.0, "malformed prediction {predicted}");

    let measured =
        simulate_iteration(&Problem::new(o, v), &Config::new(nodes, tile), &machine, seed).seconds
            * shift;
    let observe = router.handle(&request(
        "POST",
        "/v1/observe",
        &format!(r#"{{"prediction_id": {prediction_id}, "measured_seconds": {measured}}}"#),
        id,
    ));
    assert_eq!(observe.status, 200, "{}", String::from_utf8_lossy(&observe.body));
    (version, observe)
}

/// Pull the `gb`/`aurora` group out of `GET /v1/lifecycle`.
fn lifecycle_group(router: &Router) -> Json {
    let report = body_json(&router.handle(&Request::new("GET", "/v1/lifecycle", b"")));
    report
        .get("groups")
        .and_then(Json::as_array)
        .and_then(|groups| {
            groups.iter().find(|g| g.get("model").and_then(Json::as_str) == Some("gb")).cloned()
        })
        .expect("gb group on /v1/lifecycle")
}

#[test]
fn lifecycle_soak_drift_retrain_shadow_promote_recover() {
    let (router, path, _x, _y, problems) = soak_router("lifecycle-soak", soak_config());

    // Lifecycle series are pre-registered: the exposition lints clean
    // before any traffic, with the group idle.
    {
        let resp = router.handle(&Request::new("GET", "/metrics", b""));
        let text = String::from_utf8(resp.body.into_bytes()).unwrap();
        lint_exposition_with_required(&text, REQUIRED_SERIES)
            .unwrap_or_else(|p| panic!("pre-traffic lint: {p:?}"));
        assert!(
            text.contains(r#"chemcost_lifecycle_state{model="gb",machine="aurora"} 0"#),
            "{text}"
        );
    }
    let group = lifecycle_group(&router);
    assert_eq!(group.get("state").and_then(Json::as_str), Some("idle"));

    // -- phase 1: a short healthy baseline -----------------------------
    for i in 0..24u64 {
        let (o, v) = problems[(i as usize) % problems.len().min(4)];
        let (version, resp) = round_trip(&router, o, v, &format!("lc-healthy-{i}"), 1000 + i, 1.0);
        assert_eq!(version, 1);
        let parsed = body_json(&resp);
        assert_eq!(parsed.get("drift_tripped").and_then(Json::as_bool), Some(false));
    }

    // -- phase 2: 70% world shift; drive until the loop closes ---------
    // Drift trips → retrain queued → background fit → shadow → (promote
    // or reject, possibly over more than one candidate generation) →
    // post-promotion window recovers. The loop, not the test, decides
    // how many rounds that takes; the budget bounds it.
    let mut serving_version = 1u64;
    let mut rounds_since_promotion = 0u64;
    let mut drift_seen = false;
    let mut recovered = false;
    for i in 0..700u64 {
        let (o, v) = problems[(i as usize) % problems.len().min(4)];
        let (version, resp) = round_trip(&router, o, v, &format!("lc-shift-{i}"), 5000 + i, 1.7);
        if body_json(&resp).get("drift_tripped").and_then(Json::as_bool) == Some(true) {
            drift_seen = true;
        }
        if version != serving_version {
            assert!(version > serving_version, "versions must be monotonic");
            serving_version = version;
            rounds_since_promotion = 0;
        } else {
            rounds_since_promotion += 1;
        }
        let promotions = gauge(&router, r#"chemcost_lifecycle_promotions_total{outcome="auto"}"#);
        if promotions >= 1.0 && rounds_since_promotion >= 20 {
            let mape = gauge(
                &router,
                &format!(
                    r#"chemcost_model_mape{{model="gb",version="{serving_version}",machine="aurora"}}"#
                ),
            );
            if mape.is_finite() && mape < 0.25 {
                recovered = true;
                break;
            }
        }
    }
    assert!(drift_seen, "a 70% shift must trip the drift detector");
    let report = router.handle(&Request::new("GET", "/v1/lifecycle", b""));
    assert!(
        recovered,
        "lifecycle loop failed to recover MAPE < 0.25 within budget; /v1/lifecycle: {}",
        String::from_utf8_lossy(&report.body)
    );
    assert!(serving_version > 1, "auto-promotion must bump the served version");

    // Every transition of the closed loop is on /metrics...
    for (from, to) in
        [("idle", "queued"), ("queued", "training"), ("training", "shadow"), ("shadow", "promoted")]
    {
        assert!(
            gauge(
                &router,
                &format!(r#"chemcost_lifecycle_transitions_total{{from="{from}",to="{to}"}}"#)
            ) >= 1.0,
            "transition {from} -> {to} never counted"
        );
    }
    assert!(gauge(&router, "chemcost_lifecycle_fit_duration_seconds_count") >= 1.0);
    // The loop keeps running after recovery: at most one follow-up job
    // may already sit in the bounded queue when we stop driving.
    assert!(gauge(&router, "chemcost_lifecycle_queue_depth") <= 1.0);

    // ...and /v1/lifecycle reflects the closed loop with lineage. The
    // group may already be working on the *next* candidate (queued /
    // training / shadow) — what matters is that a promotion landed.
    let group = lifecycle_group(&router);
    let state = group.get("state").and_then(Json::as_str).unwrap();
    assert!(
        ["promoted", "queued", "training", "shadow"].contains(&state),
        "unexpected post-recovery state {state:?}"
    );
    assert!(group.get("retrains").and_then(Json::as_usize).unwrap() >= 1);
    let lineage = group.get("lineage").expect("promoted group has lineage");
    assert!(lineage.get("parent_version").and_then(Json::as_usize).unwrap() >= 1);
    assert!(lineage.get("observed_rows").and_then(Json::as_usize).unwrap() >= 8);

    // The exposition still lints clean after the whole loop.
    let resp = router.handle(&Request::new("GET", "/metrics", b""));
    let text = String::from_utf8(resp.body.into_bytes()).unwrap();
    lint_exposition_with_required(&text, REQUIRED_SERIES)
        .unwrap_or_else(|p| panic!("post-soak lint: {p:?}"));

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Train a second-generation model on the same data with another seed —
/// a well-formed shadow candidate for the operator-path tests.
fn candidate_like(x: &Matrix, y: &[f64], seed: u64) -> GradientBoosting {
    let mut gb = GradientBoosting::new(60, 4, 0.1);
    gb.seed = seed;
    gb.fit(x, y).unwrap();
    gb
}

fn test_lineage() -> Lineage {
    Lineage { parent_version: 1, train_rows: 240, observed_rows: 32, fit_duration_ms: 5, seed: 7 }
}

#[test]
fn operator_promote_then_rollback_is_byte_identical() {
    let (router, path, x, y, _) = soak_router("lifecycle-rollback", soak_config());
    let bytes_v1 = {
        let resolved = router.registry().resolve(Some("gb"), None).unwrap();
        encode_gb(&resolved.model)
    };

    router.lifecycle().install_candidate(
        "gb",
        "aurora",
        candidate_like(&x, &y, 11),
        test_lineage(),
    );
    let promote = router.handle(&request("POST", "/v1/lifecycle/promote", "{}", "op-promote"));
    assert_eq!(promote.status, 200, "{}", String::from_utf8_lossy(&promote.body));
    let parsed = body_json(&promote);
    assert_eq!(parsed.get("version").and_then(Json::as_usize), Some(2));
    assert_eq!(parsed.get("outcome").and_then(Json::as_str), Some("operator"));
    let bytes_v2 = {
        let resolved = router.registry().resolve(Some("gb"), None).unwrap();
        assert_eq!(resolved.version, 2);
        encode_gb(&resolved.model)
    };
    assert_ne!(bytes_v1, bytes_v2, "promotion must swap the serving model");
    // The operator promotion shows up on the metrics and the report.
    assert!(gauge(&router, r#"chemcost_lifecycle_promotions_total{outcome="operator"}"#) >= 1.0);
    assert_eq!(lifecycle_group(&router).get("state").and_then(Json::as_str), Some("promoted"));

    // Rollback restores the displaced generation byte-for-byte, under a
    // fresh monotonic version so caches can never confuse generations.
    let rollback = router.handle(&request("POST", "/v1/lifecycle/rollback", "{}", "op-rollback"));
    assert_eq!(rollback.status, 200, "{}", String::from_utf8_lossy(&rollback.body));
    assert_eq!(body_json(&rollback).get("version").and_then(Json::as_usize), Some(3));
    let resolved = router.registry().resolve(Some("gb"), None).unwrap();
    assert_eq!(resolved.version, 3);
    assert_eq!(encode_gb(&resolved.model), bytes_v1, "rollback must be byte-identical");
    assert_eq!(lifecycle_group(&router).get("state").and_then(Json::as_str), Some("rolled-back"));

    // The snapshot is consumed: a second rollback is a structured 409.
    let again = router.handle(&request("POST", "/v1/lifecycle/rollback", "{}", "op-rollback-2"));
    assert_eq!(again.status, 409, "{}", String::from_utf8_lossy(&again.body));

    // The service keeps answering across the whole swap dance.
    let advise = router.handle(&request(
        "POST",
        "/v1/advise",
        r#"{"o": 120, "v": 900, "goal": "bq"}"#,
        "op-post",
    ));
    assert_eq!(advise.status, 200);
    assert_eq!(body_json(&advise).get("model_version").and_then(Json::as_usize), Some(3));

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn concurrent_reload_and_promote_never_break_serving() {
    let (router, path, x, y, _) = soak_router("lifecycle-race", soak_config());
    const LAPS: usize = 6;

    let reloader = {
        let router = router.clone();
        std::thread::spawn(move || {
            for i in 0..LAPS {
                let resp =
                    router.handle(&request("POST", "/v1/models/gb/reload", "", &format!("rl-{i}")));
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            }
        })
    };
    let promoter = {
        let router = router.clone();
        let x = x.clone();
        let y = y.clone();
        std::thread::spawn(move || {
            let mut promoted = 0usize;
            for i in 0..LAPS {
                router.lifecycle().install_candidate(
                    "gb",
                    "aurora",
                    candidate_like(&x, &y, 20 + i as u64),
                    test_lineage(),
                );
                let resp = router.handle(&request(
                    "POST",
                    "/v1/lifecycle/promote",
                    "{}",
                    &format!("pr-{i}"),
                ));
                // Losing a race to the reloader is a structured conflict,
                // never a 5xx.
                assert!(
                    resp.status == 200 || resp.status == 409,
                    "promote answered {}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body)
                );
                if resp.status == 200 {
                    promoted += 1;
                }
            }
            promoted
        })
    };
    let prober = {
        let router = router.clone();
        std::thread::spawn(move || {
            for i in 0..LAPS * 8 {
                let resp = router.handle(&request(
                    "POST",
                    "/v1/predict",
                    r#"{"rows": [{"o": 120, "v": 900, "nodes": 64, "tile": 24}]}"#,
                    &format!("probe-{i}"),
                ));
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                let seconds = body_json(&resp)
                    .get("predictions")
                    .and_then(Json::as_array)
                    .and_then(|p| p[0].get("seconds").and_then(Json::as_f64))
                    .unwrap();
                assert!(seconds.is_finite(), "prediction went non-finite mid-swap");
            }
        })
    };
    reloader.join().unwrap();
    let promoted = promoter.join().unwrap();
    prober.join().unwrap();

    // Last writer won: exactly one serving generation, version equal to
    // the full swap count, still answering.
    let resolved = router.registry().resolve(Some("gb"), None).unwrap();
    assert_eq!(resolved.version as usize, 1 + LAPS + promoted);
    let advise = router.handle(&request(
        "POST",
        "/v1/advise",
        r#"{"o": 120, "v": 900, "goal": "stq"}"#,
        "race-post",
    ));
    assert_eq!(advise.status, 200);

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn shadow_scoring_adds_under_five_percent_to_advise() {
    let (router, path, x, y, problems) = soak_router("lifecycle-latency", soak_config());
    router.lifecycle().install_candidate(
        "gb",
        "aurora",
        candidate_like(&x, &y, 13),
        test_lineage(),
    );

    // Distinct questions so every advise runs the full pipeline (cache
    // misses), with the shadow stage scoring each primary answer.
    for (i, &(o, v)) in problems.iter().enumerate().take(24) {
        let resp = router.handle(&request(
            "POST",
            "/v1/advise",
            &format!(r#"{{"o": {o}, "v": {v}, "goal": "bq"}}"#),
            &format!("lat-{i}"),
        ));
        assert_eq!(resp.status, 200);
    }
    let m = router.metrics();
    let (_, _, shadows) = m.snapshot(ADVISE_STAGES[AdviseStage::Shadow as usize]);
    assert!(shadows >= problems.len().min(24) as u64);
    // Mean recorded duration of one advise stage, in seconds.
    let mean = |stage| {
        let (_, sum_micros, count) = m.snapshot(ADVISE_STAGES[stage as usize]);
        sum_micros as f64 / 1e6 / count as f64
    };
    let shadow = mean(AdviseStage::Shadow);
    let pipeline =
        mean(AdviseStage::Cache) + mean(AdviseStage::Sweep) + mean(AdviseStage::Encode) + shadow;
    assert!(shadow.is_finite() && pipeline.is_finite());
    // One flat predict_row against a whole candidate sweep: give the 5%
    // bound 0.5 ms of absolute slack to absorb scheduler jitter on slow
    // CI machines.
    assert!(
        shadow < 0.05 * pipeline + 5e-4,
        "shadow stage mean {shadow}s vs pipeline mean {pipeline}s"
    );

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn poison_candidate_is_rejected_and_never_promoted() {
    let (router, path, _x, _y, _) = soak_router("lifecycle-poison", soak_config());
    let poison = {
        use chemcost_ml::tree::FlatNode;
        let leaf =
            FlatNode { feature: u32::MAX, threshold: 0.0, left: 0, right: 0, value: f64::NAN };
        GradientBoosting::from_export(0.0, 0.1, 4, &[vec![leaf]])
    };
    router.lifecycle().install_candidate("gb", "aurora", poison, test_lineage());
    assert_eq!(router.lifecycle().group_state("gb", "aurora"), Some(LifecycleState::Shadow));

    // The first shadow-scored request catches the NaN: candidate gone,
    // group rejected, the client answer untouched.
    let resp = router.handle(&request(
        "POST",
        "/v1/predict",
        r#"{"rows": [{"o": 120, "v": 900, "nodes": 64, "tile": 24}]}"#,
        "poison-probe",
    ));
    assert_eq!(resp.status, 200);
    let seconds = body_json(&resp)
        .get("predictions")
        .and_then(Json::as_array)
        .and_then(|p| p[0].get("seconds").and_then(Json::as_f64))
        .unwrap();
    assert!(seconds.is_finite());
    assert_eq!(router.lifecycle().group_state("gb", "aurora"), Some(LifecycleState::Rejected));
    assert!(gauge(&router, r#"chemcost_lifecycle_promotions_total{outcome="rejected"}"#) >= 1.0);
    assert_eq!(gauge(&router, r#"chemcost_lifecycle_promotions_total{outcome="auto"}"#), 0.0);
    assert_eq!(gauge(&router, r#"chemcost_lifecycle_promotions_total{outcome="operator"}"#), 0.0);
    let group = lifecycle_group(&router);
    assert_eq!(group.get("state").and_then(Json::as_str), Some("rejected"));
    // The registry never saw the poison.
    assert_eq!(router.registry().resolve(Some("gb"), None).unwrap().version, 1);
    // A promote attempt against the rejected group is a structured 409.
    let promote = router.handle(&request("POST", "/v1/lifecycle/promote", "{}", "poison-promote"));
    assert_eq!(promote.status, 409);

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn freeze_pins_a_group_and_unfreeze_releases_it() {
    let (router, path, _x, _y, _) = soak_router("lifecycle-freeze", soak_config());
    let freeze = router.handle(&request("POST", "/v1/lifecycle/freeze", "{}", "fz-1"));
    assert_eq!(freeze.status, 200, "{}", String::from_utf8_lossy(&freeze.body));
    let parsed = body_json(&freeze);
    assert_eq!(parsed.get("frozen").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("was_frozen").and_then(Json::as_bool), Some(false));
    assert_eq!(lifecycle_group(&router).get("frozen").and_then(Json::as_bool), Some(true));

    let unfreeze =
        router.handle(&request("POST", "/v1/lifecycle/freeze", r#"{"frozen": false}"#, "fz-2"));
    assert_eq!(unfreeze.status, 200);
    assert_eq!(lifecycle_group(&router).get("frozen").and_then(Json::as_bool), Some(false));

    // Bad inputs stay structured: non-boolean flag and unknown models.
    let bad = router.handle(&request("POST", "/v1/lifecycle/freeze", r#"{"frozen": 3}"#, "fz-3"));
    assert_eq!(bad.status, 400);
    let ghost =
        router.handle(&request("POST", "/v1/lifecycle/freeze", r#"{"model": "ghost"}"#, "fz-4"));
    assert_eq!(ghost.status, 404);

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Satellite: `GET /v1/quality/next_experiments` must return a structured
/// empty plan — never an error — when there is nothing to rank.
#[test]
fn next_experiments_is_structured_empty_without_observations() {
    let (router, path, _x, _y, problems) = soak_router("lifecycle-next", soak_config());

    // Zero observations anywhere: 200 with an empty plan and a reason.
    let resp = router.handle(&Request::new("GET", "/v1/quality/next_experiments", b""));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let plan = body_json(&resp);
    assert_eq!(plan.get("configs").and_then(Json::as_array).map(<[Json]>::len), Some(0));
    assert!(plan.get("reason").and_then(Json::as_str).is_some(), "{plan:?}");

    // Too few observations for the GP to fit: still 200, still reasoned.
    let (o, v) = problems[0];
    round_trip(&router, o, v, "ne-1", 42, 1.0);
    let resp = router.handle(&Request::new("GET", "/v1/quality/next_experiments", b""));
    assert_eq!(resp.status, 200);
    let plan = body_json(&resp);
    assert_eq!(plan.get("configs").and_then(Json::as_array).map(<[Json]>::len), Some(0));
    assert!(plan.get("reason").and_then(Json::as_str).is_some(), "{plan:?}");

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
