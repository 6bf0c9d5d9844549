//! Minimal wall-clock timing harness and JSON report writer.
//!
//! No external benchmark framework is vendored in this environment, so the
//! micro-benchmarks and the `BENCH_*.json` emitters use this from-scratch
//! substitute: warm up once, run a closure `reps` times, and report
//! min/median/mean seconds. The subjects a gate compares are timed together
//! by [`bench_interleaved`], so slow drift on the host (load, clock
//! frequency) lands on every side of the comparison alike. The JSON writer
//! covers exactly the subset the reports need (objects, arrays, strings,
//! finite numbers, null).

use std::time::Instant;

/// Timing statistics of one benchmarked closure, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Fastest repetition.
    pub min: f64,
    /// Median repetition — the headline number (robust against one-off
    /// scheduling noise).
    pub median: f64,
    /// Mean over repetitions.
    pub mean: f64,
    /// Number of timed repetitions.
    pub reps: usize,
}

/// Times `f` over `reps` repetitions (after one untimed warm-up run): the
/// one-subject case of [`bench_interleaved`].
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn bench<F: FnMut()>(reps: usize, mut f: F) -> Sample {
    bench_interleaved(reps, &mut [()], |_| f())[0]
}

/// Times `run` on each of `subjects` round-robin over `reps` rounds, after
/// one untimed warm-up run of each, and returns one [`Sample`] per subject
/// in input order.
///
/// Each round runs every subject once; odd rounds run them in reverse
/// order, so no subject always runs first (on a cold cache) or right after
/// the same neighbour. Comparing the resulting samples compares
/// measurements taken over the same stretch of wall time.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn bench_interleaved<T>(
    reps: usize,
    subjects: &mut [T],
    mut run: impl FnMut(&mut T),
) -> Vec<Sample> {
    assert!(reps > 0, "need at least one repetition");
    for subject in subjects.iter_mut() {
        run(subject); // Warm-up: page in buffers, populate caches.
    }
    let count = subjects.len();
    let mut times = vec![Vec::with_capacity(reps); count];
    for round in 0..reps {
        for slot in 0..count {
            let k = if round % 2 == 0 {
                slot
            } else {
                count - 1 - slot
            };
            let start = Instant::now();
            run(&mut subjects[k]);
            times[k].push(start.elapsed().as_secs_f64());
        }
    }
    times
        .into_iter()
        .map(|mut times| {
            times.sort_by(|a, b| a.total_cmp(b));
            Sample {
                min: times[0],
                median: times[times.len() / 2],
                mean: times.iter().sum::<f64>() / times.len() as f64,
                reps,
            }
        })
        .collect()
}

/// Achieved amplitude traffic of one workload: `passes` state-sized
/// traversals of a `dim`-amplitude vector (16 bytes per complex amplitude)
/// over the fastest repetition's wall time.
pub fn achieved_bytes_per_sec(passes: f64, dim: usize, wall_min: f64) -> f64 {
    passes * dim as f64 * 16.0 / wall_min.max(1e-12)
}

/// A JSON value, sufficient for benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object values.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for string values.
    pub fn string(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// An optional number: `None` renders as `null`.
    pub fn opt_number(value: Option<f64>) -> Json {
        value.map_or(Json::Null, Json::Number)
    }

    /// Renders the value as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_inner = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => {
                if x.is_finite() {
                    // Integral values print without a trailing ".0" so qubit
                    // counts read naturally.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::String(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (k, item) in items.iter().enumerate() {
                    out.push_str(&pad_inner);
                    item.write(out, indent + 1);
                    if k + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (k, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad_inner);
                    Json::String(key.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if k + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_statistics() {
        let mut count = 0usize;
        let sample = bench(5, || count += 1);
        assert_eq!(sample.reps, 5);
        assert_eq!(count, 6); // warm-up + 5 timed
        assert!(sample.min <= sample.median);
        assert!(sample.min >= 0.0);
    }

    #[test]
    fn bench_interleaved_alternates_the_round_order() {
        let mut calls = Vec::new();
        let samples = bench_interleaved(3, &mut [0, 1], |&mut k| calls.push(k));
        assert_eq!(samples.len(), 2);
        assert!(samples.iter().all(|s| s.reps == 3 && s.min <= s.median));
        // Warm-up, then rounds forward, reversed, forward.
        assert_eq!(calls, [0, 1, 0, 1, 1, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_panics() {
        let _ = bench(0, || ());
    }

    #[test]
    fn json_renders_nested_structures() {
        let value = Json::object(vec![
            ("name", Json::string("bench")),
            ("qubits", Json::Number(16.0)),
            ("seconds", Json::Number(0.25)),
            ("skipped", Json::Null),
            ("ok", Json::Bool(true)),
            (
                "sizes",
                Json::Array(vec![Json::Number(8.0), Json::Number(12.0)]),
            ),
        ]);
        let text = value.render();
        assert!(text.contains("\"qubits\": 16"));
        assert!(text.contains("\"seconds\": 0.25"));
        assert!(text.contains("\"skipped\": null"));
        assert!(text.contains("\"ok\": true"));
        assert!(text.contains('['));
        assert_eq!(Json::opt_number(None), Json::Null);
        assert_eq!(Json::Number(f64::NAN).render(), "null");
    }

    #[test]
    fn json_escapes_strings() {
        let text = Json::string("a\"b\\c\nd").render();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\"");
    }
}
