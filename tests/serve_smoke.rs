//! Smoke test for the deployed service, run as its own CI job: start the
//! real `chemcost serve` binary with structured logging on, drive
//! predict + advise over the wire, scrape `/metrics`, validate the
//! exposition with the in-repo linter, and check that each request's
//! JSONL records correlate under its trace id: the advise from accept
//! through its inline sweep, the predict through the micro-batcher's
//! `batch.flush`.

use chemcost::serve::json::Json;
use chemcost::serve::metrics::lint_exposition;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
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
    if let Err(problems) = lint_exposition(&metrics) {
        panic!("exposition fails the linter: {problems:?}\n{metrics}");
    }

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
    for entry in recent {
        let total = entry.get("total_us").and_then(Json::as_f64).expect("total_us");
        let stages = entry.get("stages").expect("stages object");
        let sum: f64 =
            ["read_us", "queue_us", "batch_wait_us", "handler_us", "reorder_us", "write_us"]
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

    // The advise request's records correlate in the JSONL log: the same
    // trace id from accept through sweep to the access-log line. The
    // sweep scores inline, so the batcher's flush names the predict.
    let text = std::fs::read_to_string(&log).expect("read JSONL log");
    let mut names = Vec::new();
    let mut batch_flush_correlated = false;
    for l in text.lines() {
        let v = Json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}"));
        if v.get("trace").and_then(Json::as_str) == Some(trace_id) {
            names.push(v.get("name").and_then(Json::as_str).unwrap().to_string());
        }
        // `batch.flush` is emitted by the collector thread (no trace
        // scope); it correlates through its `traces` field instead.
        if v.get("name").and_then(Json::as_str) == Some("batch.flush")
            && v.get("fields")
                .and_then(|f| f.get("traces"))
                .and_then(Json::as_str)
                .is_some_and(|t| t.split(',').any(|t| t == predict_trace))
        {
            batch_flush_correlated = true;
        }
    }
    for name in ["http.accept", "advise.cache", "advise.sweep", "http.request", "request.timeline"]
    {
        assert!(names.iter().any(|n| n == name), "{name} missing from trace: {names:?}");
    }
    assert!(batch_flush_correlated, "no batch.flush event names the predict trace id");

    std::fs::remove_dir_all(&dir).ok();
}
