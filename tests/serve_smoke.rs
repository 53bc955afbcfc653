//! Smoke test for the deployed service, run as its own CI job: start the
//! real `chemcost serve` binary with structured logging on, drive
//! predict + advise over the wire, scrape `/metrics`, validate the
//! exposition with the in-repo linter, check that a repeated advise (a
//! cache hit the event loop answers itself) shows no queue stage in
//! `/debug/requests`, and check that each request's JSONL records
//! correlate under its own trace id: the advise from accept through its
//! inline sweep, the hit from accept through its replay, the predict
//! from its access-log line to its `request.timeline`. A second test
//! holds the daemon's peak memory to the model image it serves.

use chemcost::ml::gradient_boosting::GradientBoosting;
use chemcost::ml::persist::save_gb;
use chemcost::ml::tree::FlatNode;
use chemcost::serve::json::Json;
use chemcost::serve::metrics::lint_exposition;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chemcost"))
}

#[test]
fn serve_smoke_predict_advise_metrics_and_logs() {
    let dir = std::env::temp_dir().join("chemcost_serve_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.csv");
    let model = dir.join("tiny.ccgb");
    let log: PathBuf = dir.join("serve.jsonl");
    std::fs::remove_file(&log).ok();

    let out = bin()
        .args(["generate", "--machine", "aurora", "--out"])
        .arg(&data)
        .args(["--size", "80", "--seed", "3"])
        .output()
        .expect("spawn generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["train", "--fast", "--data"])
        .arg(&data)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("spawn train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Serve with debug-level structured logs going to a JSONL file, and
    // a non-default queue capacity.
    let mut child = bin()
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--machine", "aurora", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(["--queue-cap", "4"])
        .env("CHEMCOST_LOG", "debug")
        .env("CHEMCOST_LOG_JSON", &log)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut line = String::new();
    BufReader::new(stderr).read_line(&mut line).expect("startup line");
    assert!(line.contains("queue capacity 4"), "startup line: {line:?}");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in startup line {line:?}"))
        .to_string();

    let exchange = |method: &str, path: &str, extra: &str, body: &str| -> (u16, String, String) {
        let mut s = TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let status = resp.split_whitespace().nth(1).unwrap().parse().unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        (status, head.to_string(), body.to_string())
    };

    let predict_trace = "smoke-predict-1";
    let (status, _, body) = exchange(
        "POST",
        "/v1/predict",
        &format!("X-Request-Id: {predict_trace}\r\n"),
        r#"{"rows": [{"o": 100, "v": 800, "nodes": 32, "tile": 24}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"predictions\""), "{body}");

    let trace_id = "smoke-advise-1";
    let (status, head, body) = exchange(
        "POST",
        "/v1/advise",
        &format!("X-Request-Id: {trace_id}\r\n"),
        r#"{"o": 120, "v": 900, "goal": "stq"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"recommendation\""), "{body}");
    assert!(head.contains(&format!("X-Request-Id: {trace_id}")), "{head}");

    // /metrics: saturation series present, exposition lint-clean.
    let (status, _, metrics) = exchange("GET", "/metrics", "", "");
    assert_eq!(status, 200);
    for series in [
        "chemcost_requests_in_flight",
        "chemcost_pool_queue_depth",
        "chemcost_requests_shed_total",
        "chemcost_build_info{version=\"",
        "chemcost_advise_stage_duration_seconds_count{stage=\"sweep\"} 1",
        "chemcost_requests_total{route=\"predict\"} 1",
        "chemcost_requests_total{route=\"advise\"} 1",
    ] {
        assert!(metrics.contains(series), "{series} missing:\n{metrics}");
    }
    for gone in ["chemcost_batch_", "stage=\"batch_wait\""] {
        assert!(!metrics.contains(gone), "{gone} in /metrics:\n{metrics}");
    }
    if let Err(problems) = lint_exposition(&metrics) {
        panic!("exposition fails the linter: {problems:?}\n{metrics}");
    }

    // The same question again is a cache hit, answered on the event
    // loop without a worker hand-off.
    let hit_trace = "smoke-advise-2";
    let (status, head, hit_body) = exchange(
        "POST",
        "/v1/advise",
        &format!("X-Request-Id: {hit_trace}\r\n"),
        r#"{"o": 120, "v": 900, "goal": "stq"}"#,
    );
    assert_eq!(status, 200, "{hit_body}");
    assert_eq!(hit_body, body, "a cache hit replays the cold answer");
    assert!(head.contains("X-Prediction-Id: "), "{head}");

    // /debug/requests: the flight recorder saw the predict and advise
    // requests, its JSON parses, and every timeline's stage durations
    // reconcile with its end-to-end total (±5%).
    let (status, _, debug) = exchange("GET", "/debug/requests", "", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&debug).unwrap_or_else(|e| panic!("bad /debug/requests JSON: {e}"));
    assert!(doc.get("completed").and_then(Json::as_usize).unwrap_or(0) >= 2, "{debug}");
    let recent = doc.get("recent").and_then(Json::as_array).expect("recent array");
    assert!(!recent.is_empty(), "{debug}");
    assert!(
        recent.iter().any(|e| e.get("trace").and_then(Json::as_str) == Some(trace_id)),
        "advise request missing from flight recorder: {debug}"
    );
    let hit = recent
        .iter()
        .find(|e| e.get("trace").and_then(Json::as_str) == Some(hit_trace))
        .unwrap_or_else(|| panic!("repeated advise missing from flight recorder: {debug}"));
    let queue_us = hit.get("stages").and_then(|s| s.get("queue_us")).and_then(Json::as_f64);
    assert_eq!(queue_us, Some(0.0), "the repeated advise was queued: {hit:?}");
    for entry in recent {
        let total = entry.get("total_us").and_then(Json::as_f64).expect("total_us");
        let stages = entry.get("stages").expect("stages object");
        let sum: f64 = ["read_us", "queue_us", "handler_us", "reorder_us", "write_us"]
            .iter()
            .map(|k| stages.get(k).and_then(Json::as_f64).expect("stage value"))
            .sum();
        let tolerance = (total * 0.05).max(10.0);
        assert!(
            (sum - total).abs() <= tolerance,
            "stage sum {sum} vs total {total} µs out of tolerance: {entry:?}"
        );
    }

    let (status, _, _) = exchange("POST", "/v1/shutdown", "", "");
    assert_eq!(status, 200);
    let code = child.wait().expect("wait for serve");
    assert!(code.success(), "serve exited with {code:?}");

    // Each request's records correlate in the JSONL log under its own
    // trace id: the advise from accept through sweep to the access-log
    // line and its timeline, the predict from its access-log line to its
    // timeline.
    let text = std::fs::read_to_string(&log).expect("read JSONL log");
    let names_under = |trace: &str| -> Vec<String> {
        text.lines()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
            .filter(|v| v.get("trace").and_then(Json::as_str) == Some(trace))
            .map(|v| v.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let names = names_under(trace_id);
    for name in ["http.accept", "advise.cache", "advise.sweep", "http.request", "request.timeline"]
    {
        assert!(names.iter().any(|n| n == name), "{name} missing from trace: {names:?}");
    }
    let names = names_under(hit_trace);
    for name in ["http.accept", "advise.cache", "http.request", "request.timeline"] {
        assert!(names.iter().any(|n| n == name), "{name} missing from hit trace: {names:?}");
    }
    assert!(!names.iter().any(|n| n == "advise.sweep"), "a hit must not sweep: {names:?}");
    let names = names_under(predict_trace);
    for name in ["http.accept", "http.request", "request.timeline"] {
        assert!(names.iter().any(|n| n == name), "{name} missing from predict trace: {names:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A complete tree of `depth` split levels, pushed in preorder, over the
/// four serving features.
fn complete_tree(depth: u32, salt: f64, nodes: &mut Vec<FlatNode>) -> u32 {
    let at = nodes.len() as u32;
    if depth == 0 {
        let value = salt + at as f64 * 1e-3;
        nodes.push(FlatNode { feature: u32::MAX, threshold: 0.0, left: 0, right: 0, value });
        return at;
    }
    let feature = depth % 4;
    let threshold = 10.0 * depth as f64 + salt;
    nodes.push(FlatNode { feature, threshold, left: 0, right: 0, value: 0.0 });
    let left = complete_tree(depth - 1, salt, nodes);
    let right = complete_tree(depth - 1, salt, nodes);
    nodes[at as usize].left = left;
    nodes[at as usize].right = right;
    at
}

/// A valid model of `trees` complete trees of `depth` split levels.
fn synthetic_model(trees: usize, depth: u32) -> GradientBoosting {
    let trees: Vec<Vec<FlatNode>> = (0..trees)
        .map(|t| {
            let mut nodes = Vec::new();
            complete_tree(depth, t as f64 * 0.5, &mut nodes);
            nodes
        })
        .collect();
    GradientBoosting::from_export(100.0, 0.1, 4, &trees)
}

/// Peak resident memory (`VmHWM`, KiB) of `chemcost serve` once it
/// listens on `model`: loading is done by then.
fn serve_peak_kib(model: &Path) -> u64 {
    let mut child = bin()
        .args(["serve", "--model"])
        .arg(model)
        .args(["--machine", "aurora", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(child.stderr.take().expect("piped stderr"))
        .read_line(&mut line)
        .expect("startup line");
    assert!(line.contains("listening"), "startup line: {line:?}");
    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id()));
    child.kill().ok();
    child.wait().ok();
    let status = status.expect("read /proc/<pid>/status");
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:")).expect("VmHWM line");
    hwm.trim().trim_end_matches("kB").trim().parse().expect("VmHWM in kB")
}

/// The daemon keeps one resident image of its model: an 8-byte quantized
/// node per node, the exact `f64` of each leaf, and one table entry per
/// distinct threshold. The synthetic trees are complete, so just over
/// half their nodes are leaves: about 12 bytes a node. Serving a
/// ~600k-node model may raise the peak over a tiny model's by at most
/// 1.25× that — no recursive copy, no second layout, no exact threshold
/// per split, and no whole-file read buffer beside it.
#[test]
fn serve_peak_memory_is_one_model_image() {
    let dir = std::env::temp_dir().join(format!("chemcost_serve_memory_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (big, tiny) = (dir.join("big.ccgb"), dir.join("tiny.ccgb"));
    let (trees, depth) = (300, 10);
    save_gb(&big, &synthetic_model(trees, depth)).unwrap();
    save_gb(&tiny, &synthetic_model(1, 1)).unwrap();
    let nodes = trees * ((1 << (depth + 1)) - 1);

    let grew = serve_peak_kib(&big).saturating_sub(serve_peak_kib(&tiny)) * 1024;
    let bound = 1.25 * 12.0 * nodes as f64;
    std::fs::remove_dir_all(&dir).ok();
    eprintln!(
        "peak grew {grew} bytes for {nodes} nodes ({:.1} B/node)",
        grew as f64 / nodes as f64
    );
    assert!(
        grew as f64 <= bound,
        "serving {nodes} nodes raised peak RSS by {grew} bytes, over 1.25 × 12 B/node ({bound:.0})"
    );
}
