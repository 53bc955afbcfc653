//! End-to-end test: a real `Server` on an ephemeral port, driven by a
//! plain `TcpStream` client, serving a tiny model trained on simulated
//! data. Asserts the wire answers match the offline `Advisor` within the
//! quantized-inference tolerance (the server runs the quantized flat
//! path; see `chemcost_ml::flat::QUANT_REL_TOL`), that `/metrics`
//! reflects the traffic, and that `POST /v1/shutdown` drains and stops
//! the server.

use chemcost_core::advisor::Advisor;
use chemcost_linalg::Matrix;
use chemcost_ml::flat::QUANT_REL_TOL;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_serve::json::Json;
use chemcost_serve::{ModelRegistry, Router, Server};
use chemcost_sim::datagen::generate_dataset_sized;
use chemcost_sim::machine::by_name;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Train a small-but-real GB model on simulated aurora data.
fn tiny_model() -> GradientBoosting {
    let machine = by_name("aurora").unwrap();
    let samples = generate_dataset_sized(&machine, 100, 11);
    let x = Matrix::from_fn(samples.len(), 4, |i, j| match j {
        0 => samples[i].o as f64,
        1 => samples[i].v as f64,
        2 => samples[i].nodes as f64,
        _ => samples[i].tile as f64,
    });
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let mut gb = GradientBoosting::new(25, 3, 0.2);
    gb.seed = 5;
    gb.fit(&x, &y).unwrap();
    gb
}

/// One HTTP exchange on a fresh connection; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {response:?}"));
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn rec_fields(v: &Json) -> (usize, usize, f64, f64) {
    (
        v.get("nodes").and_then(Json::as_usize).unwrap(),
        v.get("tile").and_then(Json::as_usize).unwrap(),
        v.get("predicted_seconds").and_then(Json::as_f64).unwrap(),
        v.get("predicted_node_hours").and_then(Json::as_f64).unwrap(),
    )
}

#[test]
fn server_answers_like_the_offline_advisor_then_drains() {
    let gb = tiny_model();
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("gb-aurora", "aurora", gb.clone());
    registry.set_default("aurora", "gb-aurora").unwrap();
    let router = Router::new(registry);
    // Offline reference: the exact same model through the library API.
    let reference = gb;

    let server = Server::bind("127.0.0.1:0", router, 2).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // -- /healthz --
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(Json::parse(&body).unwrap().get("status").and_then(Json::as_str), Some("ok"));

    // -- /v1/models --
    let (status, body) = request(addr, "GET", "/v1/models", "");
    assert_eq!(status, 200);
    let models = Json::parse(&body).unwrap().get("models").unwrap().as_array().unwrap().to_vec();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].get("name").and_then(Json::as_str), Some("gb-aurora"));
    assert_eq!(models[0].get("version").and_then(Json::as_usize), Some(1));

    // -- /v1/predict batch matches model.predict --
    let (status, body) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"rows": [{"o": 100, "v": 800, "nodes": 32, "tile": 24},
                     {"o": 50, "v": 400, "nodes": 8, "tile": 16}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let preds =
        Json::parse(&body).unwrap().get("predictions").unwrap().as_array().unwrap().to_vec();
    assert_eq!(preds.len(), 2);
    let x =
        Matrix::from_fn(2, 4, |i, j| [[100.0, 800.0, 32.0, 24.0], [50.0, 400.0, 8.0, 16.0]][i][j]);
    let expect = reference.predict(&x);
    // The served path runs the quantized flat traversal, so compare
    // against the recursive reference within QUANT_REL_TOL.
    for (pred, (want_s, nodes)) in preds.iter().zip(expect.iter().zip([32.0, 8.0])) {
        let got_s = pred.get("seconds").and_then(Json::as_f64).unwrap();
        let got_nh = pred.get("node_hours").and_then(Json::as_f64).unwrap();
        assert!((got_s - want_s).abs() <= QUANT_REL_TOL * (1.0 + want_s.abs()));
        assert!((got_nh - want_s * nodes / 3600.0).abs() <= QUANT_REL_TOL * (1.0 + want_s.abs()));
    }

    // -- /v1/advise (stq and bq) matches the offline Advisor (seconds
    // within the quantized tolerance, same recommended point) --
    let advisor = Advisor::new(&reference, by_name("aurora").unwrap());
    for goal in ["stq", "bq"] {
        let (status, body) = request(
            addr,
            "POST",
            "/v1/advise",
            &format!(r#"{{"o": 120, "v": 900, "goal": "{goal}"}}"#),
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        let offline =
            if goal == "stq" { advisor.answer_stq(120, 900) } else { advisor.answer_bq(120, 900) }
                .expect("offline advisor has an answer");
        let (nodes, tile, secs, nh) = rec_fields(v.get("recommendation").unwrap());
        assert_eq!(nodes, offline.nodes, "{goal} nodes");
        assert_eq!(tile, offline.tile, "{goal} tile");
        let tol = QUANT_REL_TOL * (1.0 + offline.predicted_seconds.abs());
        assert!((secs - offline.predicted_seconds).abs() <= tol, "{goal} seconds");
        assert!((nh - offline.predicted_node_hours).abs() <= tol, "{goal} node-hours");
    }

    // -- malformed JSON gets a 400 with an error message --
    let (status, body) = request(addr, "POST", "/v1/advise", "{this is not json");
    assert_eq!(status, 400);
    assert!(Json::parse(&body).unwrap().get("error").is_some(), "{body}");

    // -- /metrics reflects exactly the traffic sent so far --
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("chemcost_requests_total{route=\"healthz\"} 1"), "{body}");
    assert!(body.contains("chemcost_requests_total{route=\"predict\"} 1"), "{body}");
    assert!(body.contains("chemcost_requests_total{route=\"advise\"} 3"), "{body}");
    assert!(body.contains("chemcost_request_errors_total{route=\"advise\"} 1"), "{body}");
    // 1 healthz + 1 models + 1 predict + 3 advise = 6 before this scrape.
    assert!(body.contains("chemcost_request_duration_seconds_count 6"), "{body}");

    // -- graceful shutdown: the run() thread exits cleanly --
    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server_thread.join().expect("server thread").expect("server run");
    // And the port stops answering.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener should be closed after shutdown"
    );
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("gb", "aurora", tiny_model());
    let server = Server::bind("127.0.0.1:0", Router::new(registry), 1).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for _ in 0..3 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = [0u8; 512];
        let mut seen = String::new();
        while !seen.contains(r#"{"status":"ok"}"#) {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed early");
            seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
        assert!(seen.starts_with("HTTP/1.1 200"));
    }
    drop(stream);

    let (status, _) = {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /v1/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n").unwrap();
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.read_to_string(&mut out).unwrap();
        (out.split_whitespace().nth(1).unwrap().parse::<u16>().unwrap(), out)
    };
    assert_eq!(status, 200);
    server_thread.join().unwrap().unwrap();
}
