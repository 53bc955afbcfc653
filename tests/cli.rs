//! End-to-end tests of the `chemcost` CLI binary: the full
//! generate → train → advise → evaluate → importance workflow through a
//! real subprocess, exactly as a user drives it.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chemcost"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chemcost_cli_test_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_round_trips() {
    let dir = workdir("workflow");
    let data = dir.join("data.csv");
    let model = dir.join("model.ccgb");

    // generate
    let out = bin()
        .args(["generate", "--machine", "aurora", "--out"])
        .arg(&data)
        .args(["--size", "300", "--seed", "5"])
        .output()
        .expect("spawn generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(data.exists());

    // train
    let out = bin()
        .args(["train", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&model)
        .args(["--fast"])
        .output()
        .expect("spawn train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    // advise by orbital counts
    let out = bin()
        .args(["advise", "--model"])
        .arg(&model)
        .args(["--machine", "aurora", "--o", "120", "--v", "900", "--goal", "stq"])
        .output()
        .expect("spawn advise");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("STQ"), "unexpected advise output: {stdout}");
    assert!(stdout.contains("nodes"), "unexpected advise output: {stdout}");

    // advise by molecule name
    let out = bin()
        .args(["advise", "--model"])
        .arg(&model)
        .args([
            "--machine",
            "aurora",
            "--molecule",
            "benzene",
            "--basis",
            "cc-pvtz",
            "--goal",
            "bq",
        ])
        .output()
        .expect("spawn advise molecule");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("BQ"));

    // evaluate
    let out = bin()
        .args(["evaluate", "--model"])
        .arg(&model)
        .args(["--data"])
        .arg(&data)
        .output()
        .expect("spawn evaluate");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("R²"));

    // importance
    let out = bin()
        .args(["importance", "--model"])
        .arg(&model)
        .args(["--data"])
        .arg(&data)
        .output()
        .expect("spawn importance");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains('V') && stdout.contains("nodes"), "importance output: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn molecules_catalog_prints() {
    let out = bin().arg("molecules").output().expect("spawn molecules");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("benzene"));
    assert!(stdout.contains("cc-pVTZ"));
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("commands:"));
    // Continuation lines keep their indentation under their command.
    assert!(
        usage.lines().any(|l| l.starts_with(' ') && l.trim_start().starts_with("[--max-conns N]")),
        "{usage}"
    );
}

#[test]
fn missing_arguments_reported() {
    let out = bin().args(["train"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));
}

#[test]
fn equals_syntax_accepted_end_to_end() {
    let dir = workdir("equals");
    let data = dir.join("data.csv");
    let out = bin()
        .arg("generate")
        .arg(format!("--out={}", data.display()))
        .args(["--machine=aurora", "--size=50", "--seed=9"])
        .output()
        .expect("spawn generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(data.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_option_rejected_with_usage_exit_code() {
    let out = bin().args(["advise", "--budge", "3"]).output().expect("spawn");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2), "parse errors exit with 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--budge"), "{stderr}");
    assert!(stderr.contains("'advise'"), "{stderr}");
}

#[test]
fn serve_requires_model_and_machine() {
    let out = bin().args(["serve", "--addr", "127.0.0.1:0"]).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--machine") || stderr.contains("--model"), "{stderr}");
}

#[test]
fn serve_starts_answers_and_shuts_down() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = workdir("serve");
    let data = dir.join("data.csv");
    let model = dir.join("tiny.ccgb");
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

    // Start the daemon on an ephemeral port and scrape the bound address
    // from its startup line on stderr.
    let mut child = bin()
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--machine", "aurora", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut line = String::new();
    BufReader::new(stderr).read_line(&mut line).expect("startup line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in startup line {line:?}"))
        .to_string();

    let exchange = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let status = resp.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    };

    let (status, body) = exchange("GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let (status, body) = exchange("POST", "/v1/advise", r#"{"o": 120, "v": 900, "goal": "stq"}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"recommendation\""), "{body}");
    let (status, _) = exchange("POST", "/v1/shutdown", "");
    assert_eq!(status, 200);

    let code = child.wait().expect("wait for serve");
    assert!(code.success(), "serve exited with {code:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_dumps_per_task_jsonl_and_summary() {
    let dir = workdir("trace");
    let out_file = dir.join("trace.jsonl");

    // To stdout: one JSON object per task, summary on stderr.
    let out = bin()
        .args(["trace", "--machine", "aurora", "--o", "40", "--v", "200"])
        .args(["--nodes", "4", "--tile", "60"])
        .output()
        .expect("spawn trace");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().expect("at least one task record");
    assert!(first.starts_with("{\"task\":0,"), "{first}");
    assert!(first.contains("\"executor\":") && first.contains("\"duration\":"), "{first}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tasks") && stderr.contains("utilization"), "{stderr}");

    // To a file, deterministic under an explicit seed with noise.
    for _ in 0..2 {
        let out = bin()
            .args(["trace", "--machine", "aurora", "--o", "40", "--v", "200"])
            .args(["--nodes", "4", "--tile", "60", "--noise", "0.05", "--seed", "7", "--out"])
            .arg(&out_file)
            .output()
            .expect("spawn trace");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let written = std::fs::read_to_string(&out_file).unwrap();
    assert!(written.lines().count() > 10, "expected many task records");

    // An untraceable configuration fails cleanly.
    let out = bin()
        .args(["trace", "--machine", "aurora", "--o", "300", "--v", "1500"])
        .args(["--nodes", "100", "--tile", "10"])
        .output()
        .expect("spawn trace");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("tracing cap"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_model_file_rejected_cleanly() {
    let dir = workdir("corrupt");
    let model = dir.join("bad.ccgb");
    std::fs::write(&model, b"this is not a model").unwrap();
    let out = bin()
        .args(["advise", "--model"])
        .arg(&model)
        .args(["--machine", "aurora", "--o", "100", "--v", "700"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("model"));
    std::fs::remove_dir_all(&dir).ok();
}
