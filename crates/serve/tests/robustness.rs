//! Property tests for the robustness layer: `X-Deadline-Ms` parsing
//! (through both the direct parser and the full HTTP request reader) and
//! registry reloads against truncated, garbage or cyclic model files.
//!
//! The invariants under test are the ones `docs/ROBUSTNESS.md` promises:
//! a malformed deadline header is always a structured 400-class error,
//! never a silently guessed budget, and a failed reload never unseats
//! the last-good model.

use chemcost_linalg::Matrix;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_serve::http::{read_request, Request};
use chemcost_serve::parse_deadline_ms;
use chemcost_serve::{ModelRegistry, Router};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::BufReader;
use std::sync::Arc;

/// A request carrying the given `X-Deadline-Ms` raw value (pre-lowered
/// header key, as `read_request` produces).
fn req_with_deadline(value: Option<&str>) -> Request {
    let mut headers = HashMap::new();
    if let Some(v) = value {
        headers.insert("x-deadline-ms".to_string(), v.to_string());
    }
    Request {
        method: "POST".to_string(),
        path: "/v1/advise".to_string(),
        query: String::new(),
        headers,
        body: Vec::new(),
    }
}

/// Drive the real wire parser: serialize a request with the given header
/// lines and read it back.
fn parse_wire(header_lines: &[String]) -> Request {
    let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
    for line in header_lines {
        raw.push_str(line);
        raw.push_str("\r\n");
    }
    raw.push_str("\r\n");
    let mut reader = BufReader::new(raw.as_bytes());
    read_request(&mut reader).expect("well-formed request").expect("one request")
}

/// Random upper/lower casing of `X-Deadline-Ms`, driven by `bits`.
fn cased_header_name(bits: u32) -> String {
    "x-deadline-ms"
        .chars()
        .enumerate()
        .map(|(i, c)| if bits >> (i % 32) & 1 == 1 { c.to_ascii_uppercase() } else { c })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn positive_budgets_parse_exactly(ms in 1u64..u64::MAX, pad in 0usize..4) {
        // Whitespace padding is trimmed; the value itself round-trips.
        let raw = format!("{}{ms}{}", " ".repeat(pad), " ".repeat(pad));
        let req = req_with_deadline(Some(&raw));
        prop_assert_eq!(parse_deadline_ms(&req), Ok(Some(ms)));
    }

    #[test]
    fn zero_is_rejected_with_guidance(pad in 0usize..4) {
        let raw = format!("{}0", " ".repeat(pad));
        let err = parse_deadline_ms(&req_with_deadline(Some(&raw))).unwrap_err();
        prop_assert!(err.contains("omit the header"), "unhelpful error: {err}");
    }

    #[test]
    fn overflowing_budgets_are_rejected(excess in 0u64..1_000_000) {
        // Every value strictly above u64::MAX fails the numeric parse.
        let too_big = u64::MAX as u128 + 1 + excess as u128;
        let err = parse_deadline_ms(&req_with_deadline(Some(&too_big.to_string())))
            .unwrap_err();
        prop_assert!(err.contains("positive integer"), "wrong error: {err}");
    }

    #[test]
    fn non_numeric_values_are_rejected(bytes in proptest::collection::vec(any::<u8>(), 1..24)) {
        // Printable-ASCII garbage with at least one non-digit character.
        let value: String = bytes.iter().map(|b| (b % 94 + 33) as char).collect();
        prop_assume!(!value.chars().all(|c| c.is_ascii_digit()));
        prop_assume!(!value.contains(','));
        let result = parse_deadline_ms(&req_with_deadline(Some(&value)));
        prop_assert!(result.is_err(), "garbage {value:?} parsed as {result:?}");
    }

    #[test]
    fn duplicate_headers_never_pick_a_winner(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        // Two X-Deadline-Ms lines on the wire fold to "a, b" (RFC 9110)
        // and must be rejected, not resolved by first- or last-wins.
        let req = parse_wire(&[
            format!("X-Deadline-Ms: {a}"),
            format!("X-Deadline-Ms: {b}"),
        ]);
        let err = parse_deadline_ms(&req).unwrap_err();
        prop_assert!(err.contains("conflicting"), "wrong error: {err}");
    }

    #[test]
    fn header_name_case_is_insensitive(ms in 1u64..1_000_000, bits in any::<u32>()) {
        let req = parse_wire(&[format!("{}: {ms}", cased_header_name(bits))]);
        prop_assert_eq!(parse_deadline_ms(&req), Ok(Some(ms)));
    }

    #[test]
    fn absent_header_means_no_deadline(with_other_headers in any::<bool>()) {
        let req = if with_other_headers {
            parse_wire(&["X-Request-Id: abc".to_string(), "Accept: */*".to_string()])
        } else {
            req_with_deadline(None)
        };
        prop_assert_eq!(parse_deadline_ms(&req), Ok(None));
    }
}

/// Tiny deterministic model for the reload properties.
fn tiny_model(seed: u64) -> GradientBoosting {
    let mut gb = GradientBoosting::new(4, 2, 0.5);
    gb.seed = seed;
    let x = Matrix::from_fn(8, 4, |i, j| (i * 4 + j) as f64);
    let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
    gb.fit(&x, &y).unwrap();
    gb
}

/// A registry serving one file-backed model, plus the file's valid bytes.
fn file_backed_registry(dir: &std::path::Path) -> (ModelRegistry, std::path::PathBuf, Vec<u8>) {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("m.ccgb");
    chemcost_ml::persist::save_gb(&path, &tiny_model(7)).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let reg = ModelRegistry::new();
    reg.load_file("m", "aurora", &path).unwrap();
    (reg, path, valid)
}

/// The last-good invariant: whatever a reload attempt did, the model
/// resolves and predicts finite numbers; if the reload failed, the
/// version is still the pre-reload one.
fn assert_last_good_live(
    reg: &ModelRegistry,
    reload: &Result<u64, String>,
) -> Result<(), TestCaseError> {
    let resolved = match reg.resolve(Some("m"), None) {
        Ok(r) => r,
        Err(e) => return Err(TestCaseError::Fail(format!("model vanished after reload: {e}"))),
    };
    if reload.is_err() {
        prop_assert!(resolved.version == 1, "failed reload must not bump the version");
    }
    let probe = Matrix::from_fn(1, 4, |_, j| j as f64);
    prop_assert!(resolved.flat.predict(&probe)[0].is_finite());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncated_model_files_keep_last_good_live(frac in 0.0f64..1.0) {
        let dir = std::env::temp_dir()
            .join(format!("chemcost-prop-trunc-{}", std::process::id()));
        let (reg, path, valid) = file_backed_registry(&dir);

        // Cut the file anywhere strictly short of its full length: the
        // decoder must report Truncated, and serving must not degrade.
        let cut = ((valid.len() - 1) as f64 * frac) as usize;
        std::fs::write(&path, &valid[..cut]).unwrap();
        let reload = reg.reload("m");
        prop_assert!(reload.is_err(), "truncated file at {cut}/{} bytes reloaded", valid.len());
        assert_last_good_live(&reg, &reload)?;

        // Restoring the valid bytes recovers on the next reload.
        std::fs::write(&path, &valid).unwrap();
        prop_assert_eq!(reg.reload("m"), Ok(2));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_model_files_keep_last_good_live(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let dir = std::env::temp_dir()
            .join(format!("chemcost-prop-garbage-{}", std::process::id()));
        let (reg, path, valid) = file_backed_registry(&dir);

        std::fs::write(&path, &garbage).unwrap();
        let reload = reg.reload("m");
        prop_assert!(reload.is_err(), "garbage bytes reloaded as a model");
        assert_last_good_live(&reg, &reload)?;

        std::fs::write(&path, &valid).unwrap();
        prop_assert_eq!(reg.reload("m"), Ok(2));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_model_files_never_panic_the_registry(
        byte_idx in any::<u64>(),
        bit in 0u8..8,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("chemcost-prop-flip-{}", std::process::id()));
        let (reg, path, valid) = file_backed_registry(&dir);

        // Flip one bit anywhere in the file. The decoder may reject it
        // or (for a value byte) accept it — either way the registry must
        // keep serving and never panic.
        let mut flipped = valid.clone();
        let idx = (byte_idx % flipped.len() as u64) as usize;
        flipped[idx] ^= 1 << bit;
        std::fs::write(&path, &flipped).unwrap();
        let reload = reg.reload("m");
        assert_last_good_live(&reg, &reload)?;

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `valid` (an encoded model) with the first split node after the
/// root in tree 0 linked back to the root: a cycle that would hang any
/// walk of the tree, so decode must refuse it.
fn with_backward_link(valid: &[u8]) -> Vec<u8> {
    const HEADER: usize = 32;
    const NODE: usize = 28;
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let n_nodes = u32_at(valid, HEADER) as usize;
    let split = (1..n_nodes)
        .map(|i| HEADER + 4 + i * NODE)
        .find(|&at| u32_at(valid, at) != u32::MAX)
        .expect("tree 0 has a split below its root");
    let mut bytes = valid.to_vec();
    bytes[split + 12..split + 16].copy_from_slice(&0u32.to_le_bytes()); // left → root
    bytes
}

/// `valid` with tree 0's root split sending both branches to its left
/// child: a node with two parents, whose paths double at every shared
/// level, so decode must refuse it.
fn with_shared_child(valid: &[u8]) -> Vec<u8> {
    const ROOT: usize = 32 + 4;
    let mut bytes = valid.to_vec();
    assert_ne!(&bytes[ROOT..ROOT + 4], &u32::MAX.to_le_bytes(), "tree 0's root is a split");
    let left: [u8; 4] = bytes[ROOT + 12..ROOT + 16].try_into().unwrap();
    bytes[ROOT + 16..ROOT + 20].copy_from_slice(&left); // right → left child
    bytes
}

/// `valid` with tree 0's root split's left and right links swapped:
/// still a tree, but not in preorder, so its left child is not the next
/// node, where the served image keeps it, and decode must refuse it.
fn with_swapped_links(valid: &[u8]) -> Vec<u8> {
    const ROOT: usize = 32 + 4;
    let mut bytes = valid.to_vec();
    assert_ne!(&bytes[ROOT..ROOT + 4], &u32::MAX.to_le_bytes(), "tree 0's root is a split");
    let links: [u8; 8] = bytes[ROOT + 12..ROOT + 20].try_into().unwrap();
    bytes[ROOT + 12..ROOT + 16].copy_from_slice(&links[4..]);
    bytes[ROOT + 16..ROOT + 20].copy_from_slice(&links[..4]);
    bytes
}

/// A reload of a model file whose child links do not form a tree (a
/// link back at the root, a child shared by both branches) or do not
/// follow preorder (swapped links) answers 500, and the last-good model
/// keeps answering unchanged.
#[test]
fn backward_child_link_reload_answers_500_and_keeps_last_good() {
    let dir = std::env::temp_dir().join(format!("chemcost-backlink-{}", std::process::id()));
    let (reg, path, valid) = file_backed_registry(&dir);
    let router = Router::new(Arc::new(reg));
    let predict = Request::new(
        "POST",
        "/v1/predict",
        br#"{"model":"m","rows":[{"o":100,"v":800,"nodes":32,"tile":24}]}"#,
    );
    let before = router.handle(&predict);
    assert_eq!(before.status, 200);

    for (bad, why) in [
        (with_backward_link(&valid), "links back"),
        (with_shared_child(&valid), "two splits"),
        (with_swapped_links(&valid), "not the next node"),
    ] {
        std::fs::write(&path, bad).unwrap();
        let reload = router.handle(&Request::new("POST", "/v1/models/m/reload", b""));
        let body = String::from_utf8_lossy(reload.body.as_bytes()).into_owned();
        assert_eq!(reload.status, 500, "{body}");
        assert!(body.contains(why) && body.contains("\"serving_version\":1"), "{body}");

        let after = router.handle(&predict);
        assert_eq!(after.status, 200);
        assert_eq!(after.body.as_bytes(), before.body.as_bytes(), "last-good model must serve");
    }

    std::fs::remove_dir_all(&dir).ok();
}
