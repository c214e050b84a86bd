//! Golden-corpus gate for the static analyzer, in-process: render the
//! report for every query in `tests/corpus/queries.cq` (and every Datalog
//! program in `tests/corpus/programs.dl`) exactly as `examples/analyze.rs`
//! does and diff against `tests/corpus/golden.txt` /
//! `tests/corpus/golden_programs.txt`.
//!
//! A second gate pins the service's wire bytes: every corpus row through
//! `EXPLAIN` and `ANALYZE`, and every program through `ANALYZE`, against one
//! loaded database, diffed against `tests/corpus/golden_wire.txt`.
//!
//! CI runs the analyzer checks through the example binary; this test
//! catches drift locally in a plain `cargo test`. To regenerate after an
//! intentional analyzer change:
//!
//! ```text
//! cargo run --release --example analyze -- tests/corpus/queries.cq \
//!     > tests/corpus/golden.txt
//! cargo run --release --example analyze -- tests/corpus/programs.dl \
//!     > tests/corpus/golden_programs.txt
//! ```

use pq_analyze::{analyze, analyze_program, AnalyzeOptions};
use pq_query::{parse_cq, parse_datalog};

fn report(src: &str) -> String {
    let mut out = format!("## {src}\n");
    // `@count ` rows run the counting-tractability pass (PQA7xx) and
    // `@view <view-cq> | <query>` rows run the containment pass (PQA8xx)
    // against a view registered as `v` — same handling as
    // `examples/analyze.rs`.
    let mut opts = AnalyzeOptions::default();
    let mut src = src;
    if let Some(rest) = src.strip_prefix("@view ") {
        let Some((view_src, q_src)) = rest.split_once('|') else {
            out.push_str("parse error: `@view` rows need `<view-cq> | <query>`\n");
            return out;
        };
        match parse_cq(view_src.trim()) {
            Ok(v) => {
                opts.views = vec![("v".to_string(), v)];
                src = q_src.trim();
            }
            Err(e) => {
                out.push_str(&format!("parse error: {e}\n"));
                return out;
            }
        }
    } else if let Some(rest) = src.strip_prefix("@count ") {
        opts.counting = true;
        src = rest.trim();
    }
    match parse_cq(src) {
        Err(e) => out.push_str(&format!("parse error: {e}\n")),
        Ok(q) => {
            for line in analyze(&q, &opts).lines() {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

fn render_corpus(corpus: &str) -> String {
    let mut out = String::new();
    for line in corpus.lines() {
        let src = line.trim();
        if src.is_empty() || src.starts_with('#') {
            continue;
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&report(src));
    }
    out
}

fn report_program(src: &str) -> String {
    let mut out = format!("## {src}\n");
    match parse_datalog(src) {
        Err(e) => out.push_str(&format!("parse error: {e}\n")),
        Ok(p) => {
            for line in analyze_program(&p, &AnalyzeOptions::default()).lines() {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

/// Blank-line-separated blocks, `#` lines dropped, block lines joined with
/// single spaces — the same splitting `examples/analyze.rs` applies to a
/// `.dl` corpus.
fn program_blocks(corpus: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Vec<&str> = Vec::new();
    for line in corpus.lines().chain(std::iter::once("")) {
        let line = line.trim();
        if line.is_empty() {
            if !current.is_empty() {
                blocks.push(current.join(" "));
                current.clear();
            }
        } else if !line.starts_with('#') {
            current.push(line);
        }
    }
    blocks
}

fn render_program_corpus(corpus: &str) -> String {
    let mut out = String::new();
    for src in program_blocks(corpus) {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&report_program(&src));
    }
    out
}

fn assert_matches_golden(actual: &str, golden: &str, name: &str) {
    if actual != golden {
        // A line-by-line diff beats one giant assert_eq dump.
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(a, g, "first divergence at {name} line {}", i + 1);
        }
        assert_eq!(
            actual.lines().count(),
            golden.lines().count(),
            "line counts differ — regenerate tests/corpus/{name}"
        );
        unreachable!("content differs only in line endings");
    }
}

#[test]
fn corpus_diagnostics_match_the_golden_file() {
    let root = env!("CARGO_MANIFEST_DIR");
    let corpus = std::fs::read_to_string(format!("{root}/tests/corpus/queries.cq")).unwrap();
    let golden = std::fs::read_to_string(format!("{root}/tests/corpus/golden.txt")).unwrap();
    assert_matches_golden(&render_corpus(&corpus), &golden, "golden.txt");
}

#[test]
fn program_corpus_diagnostics_match_the_golden_file() {
    let root = env!("CARGO_MANIFEST_DIR");
    let corpus = std::fs::read_to_string(format!("{root}/tests/corpus/programs.dl")).unwrap();
    let golden =
        std::fs::read_to_string(format!("{root}/tests/corpus/golden_programs.txt")).unwrap();
    assert_matches_golden(
        &render_program_corpus(&corpus),
        &golden,
        "golden_programs.txt",
    );
}

#[test]
fn program_corpus_exercises_every_program_lint_code() {
    // Every PQA5xx code plus the re-anchored minimization codes must appear
    // in the program corpus output, so the golden gate guards each pass.
    let root = env!("CARGO_MANIFEST_DIR");
    let corpus = std::fs::read_to_string(format!("{root}/tests/corpus/programs.dl")).unwrap();
    let rendered = render_program_corpus(&corpus);
    for code in [
        "PQA301", "PQA302", "PQA501", "PQA502", "PQA503", "PQA504", "PQA505", "PQA506", "PQA510",
    ] {
        assert!(
            rendered.contains(code),
            "program corpus never triggers {code}"
        );
    }
    assert!(
        rendered.contains("verdict: provably-empty (goal-underivable)"),
        "program corpus never reaches the provably-empty verdict"
    );
    assert!(
        rendered.contains("unfoldable"),
        "program corpus never flags a nonrecursive program as unfoldable"
    );
}

#[test]
fn corpus_exercises_every_database_free_lint_code() {
    // The schema codes (PQA201/PQA202) need a live database and are covered
    // by service tests; everything else must appear in the corpus output so
    // the golden gate actually guards each pass.
    let root = env!("CARGO_MANIFEST_DIR");
    let corpus = std::fs::read_to_string(format!("{root}/tests/corpus/queries.cq")).unwrap();
    let rendered = render_corpus(&corpus);
    for code in [
        "PQA002", "PQA003", "PQA004", "PQA101", "PQA102", "PQA103", "PQA104", "PQA105", "PQA301",
        "PQA302", "PQA401", "PQA402", "PQA601", "PQA602", "PQA701", "PQA702", "PQA703", "PQA801",
        "PQA802", "PQA803", "PQA804",
    ] {
        assert!(rendered.contains(code), "corpus never triggers {code}");
    }
}

// ------------------------------------------------------- wire golden --

/// The database every wire-golden row runs against: the relations the
/// corpus names, binary, so the schema pass flags only the corpus's own
/// arity clash.
const WIRE_DB: &str = "E(a, b):\n  1, 2\n  2, 3\n  3, 1\n  1, 1\nF(a, b):\n  2, 5\n  3, 6\n\
                       H(a, b):\n  1, 2\nV(a, b):\n  1, 3\n";

/// `Ok` renders through `render`, an error as one `error: …` line.
fn wire_lines<T>(
    out: &mut String,
    r: pq_service::Result<T>,
    render: impl FnOnce(&T) -> Vec<String>,
) {
    let lines = match r {
        Ok(v) => render(&v),
        Err(e) => vec![format!("error: {e}")],
    };
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
}

/// Every corpus row through `EXPLAIN` then `ANALYZE`, and every program
/// through `ANALYZE`, rendered exactly as the server writes them, on one
/// service so the plan-cache lines follow the row order. `@count ` rows
/// are explained and analyzed as the plain query; `@view` rows run
/// against a copy of the database that has the view registered as a
/// subscription.
fn render_wire_corpus(queries: &str, programs: &str) -> String {
    use pq_service::protocol::{
        render_analyze_program_response, render_analyze_response, render_explain_response,
    };
    let svc = pq_service::QueryService::with_defaults();
    svc.load_str("d", WIRE_DB).unwrap();
    let mut subscriptions = Vec::new();
    let mut out = String::new();
    for (i, line) in queries.lines().enumerate() {
        let row = line.trim();
        if row.is_empty() || row.starts_with('#') {
            continue;
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!("## {row}\n"));
        let (db, src) = if let Some(rest) = row.strip_prefix("@view ") {
            let (view_src, q_src) = rest.split_once('|').expect("`@view` rows have a `|`");
            let db = format!("view{i}");
            svc.load_str(&db, WIRE_DB).unwrap();
            match svc.subscribe(&db, view_src.trim()) {
                Ok(sub) => subscriptions.push(sub),
                Err(e) => out.push_str(&format!("error: {e}\n")),
            }
            (db, q_src.trim())
        } else {
            (
                "d".to_string(),
                row.strip_prefix("@count ").unwrap_or(row).trim(),
            )
        };
        wire_lines(&mut out, svc.explain(&db, src), render_explain_response);
        wire_lines(&mut out, svc.analyze(&db, src), render_analyze_response);
    }
    for src in program_blocks(programs) {
        out.push_str(&format!("\n## {src}\n"));
        wire_lines(
            &mut out,
            svc.analyze_datalog("d", &src),
            render_analyze_program_response,
        );
    }
    drop(subscriptions);
    out
}

/// The `EXPLAIN`/`ANALYZE` wire bytes of the whole corpus, pinned. To
/// regenerate after an intentional wire change, write the output of
/// `render_wire_corpus` to `tests/corpus/golden_wire.txt`.
#[test]
fn corpus_wire_responses_match_the_golden_file() {
    let root = env!("CARGO_MANIFEST_DIR");
    let queries = std::fs::read_to_string(format!("{root}/tests/corpus/queries.cq")).unwrap();
    let programs = std::fs::read_to_string(format!("{root}/tests/corpus/programs.dl")).unwrap();
    let rendered = render_wire_corpus(&queries, &programs);
    let golden = std::fs::read_to_string(format!("{root}/tests/corpus/golden_wire.txt")).unwrap();
    assert_matches_golden(&rendered, &golden, "golden_wire.txt");
}
