//! Metric names and units, and the JSON lines the benchmark prints.

use crate::workloads::Outcome;
use std::fmt::Write as _;

/// End-to-end metrics of the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_mvps", "MV/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("reopen_p50_ms", "ms"),
    ("bits_per_value", "bits"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("bos.solve.ms", "ms"),
    ("bos.solve.share", "ratio"),
    ("bos.solver.prune_ratio", "ratio"),
    ("bos.pack.ms", "ms"),
    ("bos.decode_block.ms", "ms"),
    ("bos.decode_block.mvps", "MV/s"),
    ("bos.decode.kernel_frac", "ratio"),
    ("encodings.ts2diff_encode.self_ms", "ms"),
    ("encodings.ts2diff_decode.self_ms", "ms"),
    ("tsfile.write.self_ms", "ms"),
    ("tsfile.read_ints.self_ms", "ms"),
    ("tsfile.open.ms", "ms"),
    ("tsfile.crc.ms", "ms"),
    ("store.fs_read.ms", "ms"),
    ("store.read_amplification", "ratio"),
    ("store.self_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The metrics a run reports: per-layer when traced, else end-to-end.
pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// JSON number with every digit `Display` gives. Only a failed run can
/// produce a non-finite value; it prints as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line and whether the run was correct: no operation failed
/// and every metric of the table was measured.
pub fn result_line(outcome: &Outcome, trace: bool) -> (String, bool) {
    let table = table(trace);
    let complete = table.iter().all(|(n, _)| outcome.metrics.contains_key(n));
    let attempted = outcome.attempted.max(1);
    let failed = if outcome.attempted == 0 {
        1
    } else {
        outcome.failed
    };
    let correct = failed == 0 && complete;
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|&(name, unit)| {
            let v = outcome.metrics.get(name)?;
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(*v),
                string(unit)
            ))
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    (line, correct)
}

/// One JSON line of run facts, printed before the result line.
pub fn provenance_line(outcome: &Outcome) -> String {
    let mut fields: Vec<String> = outcome
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    if let Some(f) = &outcome.first_failure {
        fields.push(format!("\"first_failure\": {}", string(f)));
    }
    format!("{{\"bosbench\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{run, Config, Scale, Workload};
    use std::collections::BTreeSet;

    /// Small enough for a unit test; still replays every kind of call.
    const TINY: Scale = Scale {
        rows: 3000,
        setups: 1,
        min_ops: 26,
    };

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Names listed under `section` of the repository's BENCHMARK.json.
    fn listed(section: &str) -> BTreeSet<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_registered() {
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: BTreeSet<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names.len(), table.len(), "{section}: duplicate names");
            for (name, unit) in table {
                assert!(valid_name(name), "bad name {name}");
                assert!(
                    unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "bad unit {unit}"
                );
            }
            assert_eq!(
                names,
                listed(section),
                "{section} differs from BENCHMARK.json"
            );
        }
        let workloads: BTreeSet<String> =
            Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, listed("workloads"));
    }

    #[test]
    fn json_lines_escape_and_format() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.25), "1.25");
    }

    #[test]
    fn every_workload_runs_clean_at_tiny_scale() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = Config {
                    workload,
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    scale: TINY,
                };
                let outcome = run(&cfg);
                let label = format!("{} trace={trace}", workload.name());
                assert_eq!(outcome.failed, 0, "{label}: {:?}", outcome.first_failure);
                assert!(outcome.attempted > 0, "{label}");
                let emitted: BTreeSet<&str> = outcome.metrics.keys().copied().collect();
                let expected: BTreeSet<&str> = table(trace).iter().map(|(n, _)| *n).collect();
                assert_eq!(emitted, expected, "{label}");
                let (line, correct) = result_line(&outcome, trace);
                assert!(correct, "{label}: {line}");
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                if trace {
                    let coverage = outcome.metrics["trace.coverage"];
                    assert!(coverage > 0.0, "{label}: coverage {coverage}");
                    assert!(outcome
                        .chrome
                        .as_deref()
                        .is_some_and(|c| c.contains("\"ph\":\"X\"")));
                } else {
                    assert!(outcome.metrics["bits_per_value"] > 0.0, "{label}");
                    assert!(outcome.metrics["op_p50_ms"] > 0.0, "{label}");
                }
            }
        }
    }
}
