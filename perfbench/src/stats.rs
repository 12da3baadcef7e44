//! The benchmark's own statistics: percentiles over timed samples, the
//! failure ratio, and the one-line JSON result the runner prints.

use serde_json::Value;
use std::collections::BTreeMap;

/// Percentiles a tail may be reported at, highest first. A tail is only
/// reported at a percentile with at least [`MIN_BEYOND`] samples above it.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Samples a percentile needs beyond it before it is reported as a tail.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0..=100) among `n > 0`
/// samples. The tolerance keeps a product such as `99.9 * 10000 / 100`,
/// which floating point computes a hair above 9990, at rank 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Value at percentile `p` (0..=100) of `samples`, nearest-rank on the
/// sorted samples. `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median of `samples` (the mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, for `n` samples. `None` when even the lowest rung
/// has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Neighbours on each side whose reference times are pooled with a
/// sample's own in [`normalise`].
const REFERENCE_WINDOW: usize = 2;

/// Converts host times `raw` to times at reference speed. The part of a
/// sample not spent on disk waits (`raw - io`) is scaled by `nominal` over
/// the median reference time taken next to it and its [`REFERENCE_WINDOW`]
/// neighbours on each side, so a stretch of host contention slows a sample
/// and its references alike and cancels out; the disk part `io` is added
/// back as measured, since the reference loop does not track it.
pub fn normalise(raw: &[f64], io: &[f64], reference: &[f64], nominal: f64) -> Vec<f64> {
    assert_eq!(raw.len(), reference.len(), "one reference time per sample");
    assert_eq!(raw.len(), io.len(), "one disk time per sample");
    (0..raw.len())
        .map(|i| {
            let lo = i.saturating_sub(REFERENCE_WINDOW);
            let hi = (i + REFERENCE_WINDOW + 1).min(raw.len());
            let scale = nominal / median(&reference[lo..hi]).expect("window holds sample i");
            (raw[i] - io[i]) * scale + io[i]
        })
        .collect()
}

/// Failed operations as a share of attempted ones (0 when none were
/// attempted, which the runner reports as a failed run anyway).
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// One run's result, printed as the last line of standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// The result as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let entry = BTreeMap::from([
                    ("value".to_owned(), Value::Float(*value)),
                    ("unit".to_owned(), Value::String(unit.clone())),
                ]);
                (name.clone(), Value::Object(entry))
            })
            .collect();
        let root = BTreeMap::from([
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::Int(self.attempted.into())),
            ("failed".to_owned(), Value::Int(self.failed.into())),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&Value::Object(root)).expect("a JSON value tree always serialises")
    }

    /// Parses a line printed by [`RunResult::to_json`].
    #[cfg(test)]
    pub fn from_json(line: &str) -> Result<RunResult, String> {
        let root: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let count = |key: &str| match root.get(key) {
            Some(Value::Int(i)) => u64::try_from(*i).map_err(|e| format!("{key}: {e}")),
            other => Err(format!("{key}: expected a whole number, found {other:?}")),
        };
        let Some(Value::Bool(correct)) = root.get("correct") else {
            return Err("correct: expected a boolean".into());
        };
        let Some(Value::Object(entries)) = root.get("metrics") else {
            return Err("metrics: expected an object".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, entry) in entries {
            let value = match entry.get("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                other => return Err(format!("{name}.value: expected a number, found {other:?}")),
            };
            let unit = entry.get("unit").and_then(Value::as_str).ok_or(format!("{name}.unit"))?;
            metrics.insert(name.clone(), (value, unit.to_owned()));
        }
        Ok(RunResult {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 90.0), 0);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn normalise_cancels_a_slow_stretch() {
        // The host runs at half speed for the middle three samples: raw
        // times and reference times double together.
        let raw = [10.0, 10.0, 20.0, 20.0, 20.0, 10.0, 10.0];
        let reference = [1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0];
        let n = normalise(&raw, &[0.0; 7], &reference, 1.0);
        assert_eq!(median(&n), Some(10.0));
        assert_eq!(n[3], 10.0);
        assert_eq!(normalise(&[6.0], &[0.0], &[3.0], 1.5), vec![3.0]);
        assert!(normalise(&[], &[], &[], 1.0).is_empty());
    }

    #[test]
    fn normalise_keeps_disk_time_as_measured() {
        // 4 of the 10 ms are disk waits: only the other 6 are scaled.
        assert_eq!(normalise(&[10.0], &[4.0], &[2.0], 1.0), vec![7.0]);
        // A longer disk wait shows in full whatever the host speed.
        let slow = normalise(&[10.0, 10.0, 10.0], &[4.0, 4.0, 4.0], &[2.0; 3], 1.0);
        let slower_disk = normalise(&[15.0, 15.0, 15.0], &[9.0, 9.0, 9.0], &[2.0; 3], 1.0);
        assert_eq!(median(&slower_disk).unwrap() - median(&slow).unwrap(), 5.0);
    }

    #[test]
    fn fail_ratio_counts_failures_against_attempts() {
        assert_eq!(fail_ratio(200, 0), 0.0);
        assert_eq!(fail_ratio(200, 5), 0.025);
        assert_eq!(fail_ratio(0, 0), 0.0);
    }

    #[test]
    fn result_round_trips_through_json() {
        let result = RunResult {
            correct: false,
            attempted: 1234,
            failed: 2,
            metrics: BTreeMap::from([
                ("op_p50_ms".to_owned(), (22.123_456_789_012_3, "ms".to_owned())),
                ("setup_s".to_owned(), (0.000_812_7, "s".to_owned())),
                ("op_msgs".to_owned(), (64.0, "count".to_owned())),
            ]),
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_json(&line), Ok(result));
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let line = RunResult { correct: true, attempted: 1, failed: 0, metrics: BTreeMap::new() }
            .to_json();
        let root: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(keys) = root else { panic!("not an object") };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}
