//! The coDB benchmark: three seeded workloads, each checked for correct
//! outputs, reporting end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload update-stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the run's result as JSON; a summary
//! with sample counts goes to standard error. See `README.md` for the
//! metrics and which layer moves which end-to-end number.

mod durable_ingest;
mod layers;
mod pass;
mod query_mix;
mod stats;
mod update_stream;

use pass::{Budget, Pass, REFERENCE_MS};
use stats::{fail_ratio, median, percentile, tail_percentile, RunResult};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cold_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op_kb", "KB"),
    ("op_msgs", "count"),
];

/// Per-layer metrics, reported by traced runs of every workload. A layer a
/// workload does not exercise reads 0. The `host.*` pair is the untraced
/// pass's op p50 in host time and the reference loop's time before each op.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("op_fail_ratio", "ratio"),
    ("workload.op_samples", "count"),
    ("workload.delta_share", "ratio"),
    ("workload.repeat_share", "ratio"),
    ("workload.write_share", "ratio"),
    ("relational.fire_ms", "ms"),
    ("relational.firings", "count"),
    ("relational.insert_ms", "ms"),
    ("relational.answer_ms", "ms"),
    ("relational.ldb_tuples", "count"),
    ("relational.nulls", "count"),
    ("core.update.firings", "count/op"),
    ("core.update.tuples_added", "count/op"),
    ("core.update.useful_ratio", "ratio"),
    ("core.update.data_msgs", "count/op"),
    ("core.update.longest_path", "hops"),
    ("core.update.sim_ms", "ms"),
    ("core.reliable.acks", "count/op"),
    ("core.reliable.retransmits", "count/op"),
    ("core.query.fetch_msgs", "count/op"),
    ("core.query.answers", "count/op"),
    ("core.ingest_rejected", "count"),
    ("net.sim.events", "count/op"),
    ("net.sim.timer_fires", "count/op"),
    ("net.sim.sends", "count/op"),
    ("net.sim.send_kb", "KB/op"),
    ("net.runtime.ingest_call_us_p50", "us"),
    ("net.runtime.ingest_call_us_p99", "us"),
    ("net.runtime.drain_ms", "ms"),
    ("net.runtime.delivered_per_insert", "count"),
    ("net.runtime.mailbox_peak", "count"),
    ("net.runtime.undeliverable", "count"),
    ("net.runtime.ingest_per_s", "1/s"),
    ("store.appends_per_insert", "count"),
    ("store.fsyncs", "count/op"),
    ("store.records_per_fsync", "count"),
    ("store.flush_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.replayed_records", "count"),
    ("store.wal_bytes", "B"),
    ("store.snap_bytes", "B"),
    ("store.disk_bytes_per_tuple", "B"),
    ("codec.record_encode_mb_s", "MB/s"),
    ("codec.wal_decode_mb_s", "MB/s"),
    ("codec.snap_decode_mb_s", "MB/s"),
    ("trace.overhead", "ratio"),
    ("host.op_p50_ms", "ms"),
    ("host.reference_ms", "ms"),
];

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["update-stream", "query-mix", "durable-ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let workload = take("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn run_pass(workload: &str, seed: u64, budget: &Budget, traced: bool) -> Pass {
    match workload {
        "update-stream" => update_stream::pass(seed, budget, traced),
        "query-mix" => query_mix::pass(seed, budget, traced),
        _ => durable_ingest::pass(seed, budget, traced),
    }
}

fn mean(v: &[f64]) -> f64 {
    pass::ratio(v.iter().sum(), v.len() as f64)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let run_for = Duration::from_secs_f64(args.seconds);
    let (pass, metrics) = if args.trace {
        // Half the time untraced, then the same inputs again traced: the
        // per-layer numbers come from the second pass, the overhead from both.
        let base = run_pass(&args.workload, args.seed, &Budget::Until(start + run_for / 2), false);
        let mut traced = run_pass(
            &args.workload,
            args.seed,
            &Budget::Replay(base.ops_per_episode.clone()),
            true,
        );
        let disagree = traced.fingerprint != base.fingerprint;
        traced.check(
            || "trace agreement".to_owned(),
            if disagree {
                vec!["traced and untraced passes disagree on messages, bytes, appends or fsyncs"
                    .to_owned()]
            } else {
                Vec::new()
            },
        );
        let mut values = std::mem::take(&mut traced.layers);
        // Both passes at reference speed, so host drift between them cancels.
        let total = |p: &Pass| p.op.at_reference().iter().sum::<f64>();
        values.insert("trace.overhead", total(&traced) / total(&base));
        values.insert("workload.op_samples", traced.op.len() as f64);
        values.insert("host.op_p50_ms", median(&base.op.host).unwrap_or(0.0));
        values.insert("host.reference_ms", median(&base.op.reference).unwrap_or(0.0));
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        traced.failures.extend(base.failures);
        values.insert("op_fail_ratio", fail_ratio(traced.attempted, traced.failed));
        let metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                (name.to_string(), (values.remove(name).unwrap_or(0.0), unit.to_string()))
            })
            .collect();
        assert!(values.is_empty(), "per-layer metrics missing from PER_LAYER: {:?}", values.keys());
        (traced, metrics)
    } else {
        let pass = run_pass(&args.workload, args.seed, &Budget::Until(start + run_for), false);
        let n = pass.op.len();
        eprintln!(
            "perfbench: {} seed {}: {} episodes, {n} timed ops; highest percentile with >= {} beyond: {:?}",
            args.workload,
            args.seed,
            pass.setup.len(),
            stats::MIN_BEYOND,
            tail_percentile(n),
        );
        let op_ms = pass.op.at_reference();
        let values = [
            median(&pass.setup.at_reference()),
            median(&pass.cold.at_reference()),
            median(&op_ms),
            percentile(&op_ms, 90.0),
            Some(mean(&pass.op_kb)),
            Some(mean(&pass.op_msgs)),
        ];
        let host = [
            median(&pass.setup.host),
            median(&pass.cold.host),
            median(&pass.op.host),
            percentile(&pass.op.host, 90.0),
        ];
        for (((name, unit), scaled), host) in END_TO_END.iter().zip(values).zip(host) {
            eprintln!("perfbench: {name}: {scaled:?} {unit} at reference speed, {host:?} {unit} host time");
        }
        eprintln!(
            "perfbench: reference loop: median {:?} ms before ops (nominal {REFERENCE_MS})",
            median(&pass.op.reference),
        );
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), (v.unwrap_or(0.0), unit.to_string())))
            .collect();
        (pass, metrics)
    };
    for f in &pass.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let result = RunResult {
        correct: pass.failed == 0 && pass.attempted > 0,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
    };
    eprintln!(
        "perfbench: attempted {} failed {} (op_fail_ratio {}) in {:.1} s",
        result.attempted,
        result.failed,
        fail_ratio(result.attempted, result.failed),
        start.elapsed().as_secs_f64()
    );
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match bench.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key}: expected an array, found {other:?}"),
        };
        let field =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> =
                list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
