//! Schema round-trip for the flight recorder's chrome-trace export
//! (PR 9 acceptance): drive an instrumented encode through the same path
//! `boscli encode --trace-out` uses, then verify the exported JSON is a
//! valid Chrome `trace_event` array — every element carries the
//! `ph`/`ts`/`pid`/`tid`/`name` fields about:tracing requires.
//!
//! One `#[test]`: the recorder's rings are process-global, and a second
//! test draining concurrently would steal this one's events.
//! Integration-test files are separate processes, so other binaries
//! can't interfere.

use bitpack::codec::encode_blocks_parallel;
use bos::{BosCodec, SolverKind};

/// Splits the top-level elements of a JSON array by brace balancing
/// (string-aware, so quoted braces don't count). Panics on anything
/// that is not a single well-formed array — that *is* the schema check.
fn array_elements(json: &str) -> Vec<String> {
    let body = json.trim();
    assert!(
        body.starts_with('[') && body.ends_with(']'),
        "chrome trace must be one JSON array, got {:?}...",
        &body[..body.len().min(40)]
    );
    let mut elements = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut current = String::new();
    for c in body[1..body.len() - 1].chars() {
        if in_string {
            current.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                current.push(c);
            }
            '{' => {
                depth += 1;
                current.push(c);
            }
            '}' => {
                depth = depth.checked_sub(1).expect("unbalanced braces");
                current.push(c);
            }
            ',' if depth == 0 => elements.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    assert_eq!(depth, 0, "unbalanced braces in chrome trace");
    assert!(!in_string, "unterminated string in chrome trace");
    if !current.trim().is_empty() {
        elements.push(current);
    }
    elements
}

#[test]
fn chrome_trace_export_matches_the_trace_event_schema() {
    obs::trail::set_recording(true);
    obs::trail::drain(); // isolate: events from other tests in this process

    // Same path as `boscli encode --trace-out`: parallel driver + BOS-B,
    // then drain and export. Two threads so driver provenance is present.
    let values: Vec<i64> = (0..4096)
        .map(|i| if i % 50 == 0 { 1 << 40 } else { i % 200 })
        .collect();
    let codec = BosCodec::new(SolverKind::BitWidth);
    let mut buf = Vec::new();
    encode_blocks_parallel(&codec, &values, 512, 2, &mut buf).expect("encode");
    let trail = obs::trail::drain();
    assert!(!trail.is_empty(), "instrumented encode must leave events");

    let json = obs::trail::to_chrome_trace(&trail);
    let elements = array_elements(&json);
    assert_eq!(
        elements.len(),
        trail.len(),
        "one trace_event element per trail event"
    );
    for (i, el) in elements.iter().enumerate() {
        let el = el.trim();
        assert!(
            el.starts_with('{') && el.ends_with('}'),
            "element {i} is not an object: {el:?}"
        );
        for key in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":", "\"name\":"] {
            assert!(el.contains(key), "element {i} lacks {key}: {el:?}");
        }
        // `ph` is one of the two phases the exporter emits: complete
        // spans ("X", which also carry "dur") or instant events ("i").
        let complete = el.contains("\"ph\": \"X\"");
        let instant = el.contains("\"ph\": \"i\"");
        assert!(complete || instant, "element {i} has unknown ph: {el:?}");
        assert_eq!(
            complete,
            el.contains("\"dur\":"),
            "element {i}: dur iff complete-span: {el:?}"
        );
    }

    // Spot-check provenance coverage: block-level solver decisions and
    // the span mirror must both be present in the export.
    assert!(json.contains("\"trail.block_solved\""));
    assert!(json.contains("solver_search.BOS-B"));

    // The export is a pure function of the drained snapshot.
    assert_eq!(json, obs::trail::to_chrome_trace(&trail));
}
