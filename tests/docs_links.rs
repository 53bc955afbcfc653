//! Link checker for the operator docs: every relative markdown link in
//! README.md, the top-level markdown files, and docs/*.md must point at
//! a file (or directory) that exists in the repository. Anchors
//! (`#section`) and absolute URLs are out of scope — this is about
//! cross-references between committed files rotting when one is renamed.

use std::path::{Path, PathBuf};

/// Repository root (this test compiles in the root package).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The markdown files whose links we police.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files: Vec<PathBuf> = ["README.md", "ROADMAP.md", "EXPERIMENTS.md", "CHANGES.md"]
        .iter()
        .map(|f| root.join(f))
        .filter(|p| p.exists())
        .collect();
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    files.append(&mut docs);
    assert!(files.len() >= 6, "expected README + docs/*.md, found {files:?}");
    files
}

/// Extract `(link_target, line_number)` pairs from inline markdown
/// links `[text](target)`. Skips fenced code blocks and inline code
/// spans, where brackets and parens are code, not links.
fn extract_links(text: &str) -> Vec<(String, usize)> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut in_code = false;
        let mut cleaned = String::new();
        for c in line.chars() {
            if c == '`' {
                in_code = !in_code;
            } else if !in_code {
                cleaned.push(c);
            }
        }
        let mut i = 0;
        while let Some(open) = cleaned[i..].find("](") {
            let close_bracket = i + open;
            let start = close_bracket + 2;
            let Some(close) = cleaned[start..].find(')') else { break };
            let target = &cleaned[start..start + close];
            // Only count it if the preceding text actually contains a
            // matching '[' — crude, but errs toward false negatives.
            if cleaned[..close_bracket].contains('[') {
                links.push((target.to_string(), lineno + 1));
            }
            i = start + close + 1;
        }
    }
    links
}

/// A link is checkable when it is a relative path into the repository.
fn relative_target(target: &str) -> Option<&str> {
    let target = target.split_once(' ').map_or(target, |(path, _title)| path);
    if target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
        || target.is_empty()
    {
        return None;
    }
    // Strip a trailing anchor: FILE.md#section checks FILE.md.
    Some(target.split('#').next().unwrap_or(target))
}

#[test]
fn relative_links_in_docs_resolve() {
    let root = repo_root();
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        let base = file.parent().unwrap_or(Path::new("."));
        for (target, line) in extract_links(&text) {
            let Some(path) = relative_target(&target) else { continue };
            checked += 1;
            let resolved = if let Some(stripped) = path.strip_prefix('/') {
                root.join(stripped)
            } else {
                base.join(path)
            };
            if !resolved.exists() {
                broken.push(format!(
                    "{}:{line}: link `{target}` → missing {}",
                    file.display(),
                    resolved.display()
                ));
            }
        }
    }
    assert!(checked >= 10, "only {checked} relative links found — the extractor is likely broken");
    assert!(broken.is_empty(), "broken doc links:\n{}", broken.join("\n"));
}

#[test]
fn the_serving_doc_is_cross_linked() {
    // The serving data plane's operator doc must be reachable from the
    // entry points an operator actually reads.
    let root = repo_root();
    for from in ["README.md", "docs/ARCHITECTURE.md", "docs/ROBUSTNESS.md", "docs/OBSERVABILITY.md"]
    {
        let text = std::fs::read_to_string(root.join(from)).expect(from);
        assert!(
            text.contains("SERVING.md"),
            "{from} does not link to the serving data-plane doc (SERVING.md)"
        );
    }
}

#[test]
fn extractor_finds_links_and_skips_code() {
    let md = "\
see [the doc](docs/SERVING.md) and [site](https://example.com)\n\
```\n[not a link](nope.md)\n```\n\
inline `[also not](nope.md)` code\n\
[anchored](docs/SERVING.md#tuning)\n";
    let links = extract_links(md);
    let targets: Vec<&str> = links.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(
        targets,
        ["docs/SERVING.md", "https://example.com", "docs/SERVING.md#tuning"],
        "{links:?}"
    );
    assert_eq!(relative_target("docs/SERVING.md#tuning"), Some("docs/SERVING.md"));
    assert_eq!(relative_target("https://example.com"), None);
    assert_eq!(relative_target("#local"), None);
}

/// docs/OBSERVABILITY.md's metric catalog mirrors the family table in
/// `chemcost_serve::metrics::FAMILIES`: exactly one row per family, whose
/// first cell is the backticked name and whose type and label-key cells
/// match the table, and no `chemcost_*` row for a family the table lacks.
#[test]
fn metric_catalog_matches_the_family_table() {
    use chemcost::serve::metrics::FAMILIES;
    let text = std::fs::read_to_string(repo_root().join("docs/OBSERVABILITY.md"))
        .expect("docs/OBSERVABILITY.md");
    // Cells 1–3 (name, type, label keys) never hold a `|`.
    let rows: Vec<Vec<&str>> = text
        .lines()
        .filter(|l| l.starts_with("| `chemcost_"))
        .map(|l| l.split('|').map(str::trim).collect())
        .collect();
    let mut problems = Vec::new();
    for family in &FAMILIES {
        let name = format!("`{}`", family.name);
        let keys: Vec<String> = family.keys.iter().map(|k| format!("`{k}`")).collect();
        match rows.iter().filter(|r| r[1] == name).collect::<Vec<_>>().as_slice() {
            [row] if row[2] != family.kind() => {
                problems.push(format!("{name}: type {:?}, table says {:?}", row[2], family.kind()))
            }
            [row] if row[3] != keys.join(", ") => {
                problems.push(format!("{name}: labels {:?}, table says {:?}", row[3], keys))
            }
            [_] => {}
            found => problems.push(format!("{name}: {} catalog rows, expected 1", found.len())),
        }
    }
    for row in &rows {
        if !FAMILIES.iter().any(|f| row[1] == format!("`{}`", f.name)) {
            problems.push(format!("catalog row {} names no family in the table", row[1]));
        }
    }
    assert!(problems.is_empty(), "docs/OBSERVABILITY.md catalog:\n{}", problems.join("\n"));
}
