//! Plain-data snapshot types shared by the real and no-op builds, plus
//! the JSON and table renderers. Keeping these outside the `#[cfg]`
//! switch means consumers can hold and serialize a [`Snapshot`] without
//! caring which build produced it.

/// Point-in-time copy of one histogram's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Smallest recorded value (0 when `count == 0`).
    pub min: u64,
    /// Largest recorded value (0 when `count == 0`).
    pub max: u64,
    /// `(bucket_index, count)` for non-empty buckets only. Bucket `b`
    /// holds values whose bit-width is `b`: bucket 0 is exactly zero,
    /// bucket `b >= 1` covers `2^(b-1) ..= 2^b - 1`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value at quantile `q` (clamped into `[0, 1]`), or 0.0
    /// when empty. The target rank is located in the power-of-two
    /// bucket sequence and interpolated linearly across that bucket's
    /// value range; the estimate is then clamped to the observed
    /// `min..=max`, which makes single-value distributions exact and
    /// pins `q = 0` / `q = 1` to the true extremes.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for &(b, c) in &self.buckets {
            let next = seen + c;
            if next as f64 >= target {
                let (lo, hi) = bucket_bounds(b);
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - seen as f64) / c as f64
                };
                let v = lo as f64 + frac * (hi - lo) as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            seen = next;
        }
        self.max as f64
    }

    /// Median estimate; see [`Self::percentile`].
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 90th-percentile estimate; see [`Self::percentile`].
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// 99th-percentile estimate; see [`Self::percentile`].
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// Inclusive value range of histogram bucket `b`: bucket 0 holds
/// exactly zero, bucket `b >= 1` covers `2^(b-1) ..= 2^b - 1` (bucket
/// 64's upper bound saturates at `u64::MAX`).
fn bucket_bounds(b: u32) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (b - 1);
        (lo, lo.wrapping_mul(2).wrapping_sub(1))
    }
}

/// Point-in-time copy of one span's aggregate timings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Number of completed span instances.
    pub count: u64,
    /// Total wall time, children included, in nanoseconds.
    pub total_ns: u64,
    /// Total wall time *excluding* enclosed child spans, in nanoseconds.
    pub self_ns: u64,
    /// Shortest single instance (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest single instance (0 when `count == 0`).
    pub max_ns: u64,
}

/// A full registry snapshot: every metric name paired with its value at
/// the moment [`crate::snapshot`] was called. Names are sorted, so the
/// JSON and table renderings are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `true` when produced by an instrumented (`enabled`-feature) build.
    pub enabled: bool,
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → state.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span name → aggregate timings.
    pub spans: Vec<(String, SpanSnapshot)>,
}

impl Snapshot {
    /// Value of a counter, or 0 if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// State of a histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Aggregate timings of a span, if any instance completed.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// True when no metric of any kind is present (always true for the
    /// no-op build).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// Renders the snapshot as a single JSON object (hand-built — this
    /// crate has no dependencies). Keys are sorted; output is stable for
    /// a given registry state.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\n  \"enabled\": ");
        s.push_str(if self.enabled { "true" } else { "false" });
        s.push_str(",\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            push_json_str(&mut s, name);
            s.push_str(&format!(": {v}"));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            push_json_str(&mut s, name);
            s.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": {{",
                h.count, h.sum, h.min, h.max
            ));
            for (j, (b, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{b}\": {c}"));
            }
            s.push_str("}}");
        }
        s.push_str("\n  },\n  \"spans\": {");
        for (i, (name, sp)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            push_json_str(&mut s, name);
            s.push_str(&format!(
                ": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                sp.count, sp.total_ns, sp.self_ns, sp.min_ns, sp.max_ns
            ));
        }
        s.push_str("\n  }\n}");
        s
    }

    /// Renders the snapshot as a human-readable table (the body of
    /// [`crate::report`]).
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "obs: registry empty (nothing recorded, or no-op build)\n".to_string();
        }
        let mut s = String::new();
        if !self.counters.is_empty() {
            s.push_str("counters\n");
            let w = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, v) in &self.counters {
                s.push_str(&format!("  {name:<w$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str(
                "histograms (count / mean / p50 p90 p99 / min..max, buckets by bit-width)\n",
            );
            let w = self
                .histograms
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, h) in &self.histograms {
                s.push_str(&format!(
                    "  {name:<w$}  n={} mean={:.1} p50={:.1} p90={:.1} p99={:.1} range={}..{}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.min,
                    h.max
                ));
                let buckets: Vec<String> =
                    h.buckets.iter().map(|(b, c)| format!("{b}:{c}")).collect();
                s.push_str(&format!("  [{}]\n", buckets.join(" ")));
            }
        }
        if !self.spans.is_empty() {
            s.push_str("spans (count / total / self / per-call min..max)\n");
            let w = self.spans.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, sp) in &self.spans {
                s.push_str(&format!(
                    "  {name:<w$}  n={} total={} self={} call={}..{}\n",
                    sp.count,
                    fmt_ns(sp.total_ns),
                    fmt_ns(sp.self_ns),
                    fmt_ns(sp.min_ns),
                    fmt_ns(sp.max_ns)
                ));
            }
        }
        s
    }
}

/// Formats nanoseconds with a readable unit (ns/µs/ms/s).
fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Appends `name` as a JSON string literal (quotes + minimal escaping;
/// metric names are ASCII identifiers-with-dots in practice). Shared
/// with the trail exporters and the bench artifacts.
pub fn push_json_str(out: &mut String, name: &str) {
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_helpers_default_to_zero_or_none() {
        let s = Snapshot::default();
        assert_eq!(s.counter("missing"), 0);
        assert!(s.histogram("missing").is_none());
        assert!(s.span("missing").is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn json_is_valid_shape_and_escaped() {
        let s = Snapshot {
            enabled: true,
            counters: vec![("a.b".to_string(), 3), ("weird\"name".to_string(), 1)],
            histograms: vec![(
                "h".to_string(),
                HistogramSnapshot {
                    count: 2,
                    sum: 5,
                    min: 1,
                    max: 4,
                    buckets: vec![(1, 1), (3, 1)],
                },
            )],
            spans: vec![(
                "sp".to_string(),
                SpanSnapshot {
                    count: 1,
                    total_ns: 10,
                    self_ns: 10,
                    min_ns: 10,
                    max_ns: 10,
                },
            )],
        };
        let j = s.to_json();
        assert!(j.contains("\"a.b\": 3"));
        assert!(j.contains("\\\"name"));
        assert!(j.contains("\"total_ns\": 10"));
        assert!(j.contains("\"buckets\": {\"1\": 1, \"3\": 1}"));
        // Balanced braces — cheap structural sanity without a parser.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
    }

    #[test]
    fn render_mentions_every_section() {
        let s = Snapshot {
            enabled: true,
            counters: vec![("c".to_string(), 1)],
            histograms: vec![("h".to_string(), HistogramSnapshot::default())],
            spans: vec![("sp".to_string(), SpanSnapshot::default())],
        };
        let r = s.render();
        for section in ["counters", "histograms", "spans"] {
            assert!(r.contains(section), "missing {section} in:\n{r}");
        }
    }

    #[test]
    fn percentiles_exact_on_single_value_distribution() {
        // Twenty 8s: every quantile must be exactly 8 (bucket 4 spans
        // 8..=15, but the min/max clamp pins the estimate).
        let h = HistogramSnapshot {
            count: 20,
            sum: 160,
            min: 8,
            max: 8,
            buckets: vec![(4, 20)],
        };
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 8.0, "q={q}");
        }
    }

    #[test]
    fn percentiles_interpolate_and_stay_monotonic() {
        // 90 values in bucket 3 (4..=7), 10 in bucket 11 (1024..=2047).
        let h = HistogramSnapshot {
            count: 100,
            sum: 90 * 5 + 10 * 1500,
            min: 4,
            max: 2000,
            buckets: vec![(3, 90), (11, 10)],
        };
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!((4.0..=7.0).contains(&p50), "p50={p50}");
        assert!((4.0..=7.0).contains(&p90), "p90={p90}");
        assert!((1024.0..=2000.0).contains(&p99), "p99={p99}");
        assert!(p50 <= p90 && p90 <= p99);
        // The extremes pin to the observed min and max.
        assert_eq!(h.percentile(0.0), 4.0);
        assert_eq!(h.percentile(1.0), 2000.0);
        // Out-of-range quantiles clamp instead of misbehaving.
        assert_eq!(h.percentile(-1.0), 4.0);
        assert_eq!(h.percentile(2.0), 2000.0);
    }

    #[test]
    fn percentiles_on_empty_and_zero_heavy_distributions() {
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0.0);
        // 99 zeros and one large value: p50 is 0, p99+ reaches up.
        let h = HistogramSnapshot {
            count: 100,
            sum: 4096,
            min: 0,
            max: 4096,
            buckets: vec![(0, 99), (13, 1)],
        };
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p90(), 0.0);
        assert!(h.percentile(0.999) >= 2048.0);
    }

    #[test]
    fn render_shows_percentiles() {
        let s = Snapshot {
            enabled: true,
            counters: Vec::new(),
            histograms: vec![(
                "h".to_string(),
                HistogramSnapshot {
                    count: 4,
                    sum: 32,
                    min: 8,
                    max: 8,
                    buckets: vec![(4, 4)],
                },
            )],
            spans: Vec::new(),
        };
        let r = s.render();
        assert!(r.contains("p50=8.0"), "{r}");
        assert!(r.contains("p90=8.0") && r.contains("p99=8.0"), "{r}");
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(25_000), "25.0µs");
        assert_eq!(fmt_ns(25_000_000), "25.0ms");
        assert_eq!(fmt_ns(25_000_000_000), "25.00s");
    }
}
