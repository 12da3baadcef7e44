//! `durable-ingest`: persistent peers, the WAL, group commit and recovery.
//!
//! A star of GAV copy rules (every leaf feeds the hub) on the simulator,
//! every peer persistent under group commit through the network's one
//! shared fsync scheduler, with the binary codec. One client (closed loop)
//! streams bursts of inserts at seeded peers; a burst ends when `flush_all`
//! has returned, so every insert in it is durable. An untimed global update
//! from the hub follows each burst, so the WAL also holds applied deltas;
//! an untimed `flush_all` makes them durable, so the next burst's flush
//! syncs only that burst's inserts. At the end of an episode the network
//! is dropped and every peer is rebuilt from its store alone.
//!
//! The fsyncs of a burst's `flush_all` and of creating the stores in
//! set-up are reported as measured, not scaled to reference speed: the
//! reference loop tracks the CPU, not the disk.
//!
//! The threaded runtime runs the same star in traced runs only, for its
//! per-layer numbers: on a shared 2-vCPU host its burst times moved 2.5x
//! between runs of the same code with thread wake-up latency, too far for
//! any bound.

use crate::layers::{
    counting_tracer, counts, probe_relational, selection_query, sent, update_problems, TraceCounts,
};
use crate::pass::{episode_rng, ratio, Budget, Pass};
use codb_core::{
    Body, CoDbNetwork, CoDbNode, CoordinationRule, NetworkConfig, NodeConfig, NodeId, NodeSettings,
    ParallelCoDbNet,
};
use codb_net::{RuntimeConfig, SimConfig, SimTime};
use codb_relational::{
    parse_rule, DatabaseSchema, Instance, RelationSchema, Tuple, Value, ValueType,
};
use codb_store::codec::{decode_snapshot, encode_record, MAGIC_LEN};
use codb_store::frame::{FrameScanner, FrameStep};
use codb_store::wal::read_wal;
use codb_store::{Codec, FsyncScheduler, Store, SyncPolicy};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Peers: the hub (peer 0) and its leaves.
const NODES: usize = 8;
const HUB: usize = 0;
/// Seed tuples per peer.
const TUPLES_PER_NODE: usize = 500;
/// Inserts per burst.
const BURST: usize = 2000;
/// Bursts per episode, before the network is dropped and the stores reopen.
const BURSTS_PER_EPISODE: usize = 12;
/// Group commit whose record window holds a whole burst, so each burst is
/// made durable by its closing `flush_all` (one fsync per dirty store).
/// With the demo CLI's 256-record window a burst took ~64 threshold fsyncs,
/// and their latency on a shared host varied too much to bound.
const POLICY: SyncPolicy = SyncPolicy::GroupCommit { max_batch: 64, max_records: 4096 };
const CODEC: Codec = Codec::Binary;
/// Longest any quiescence wait may take before it counts as a failure.
const DEADLINE: Duration = Duration::from_secs(60);
/// Fresh keys start here, far above the seed keys (`< 2^30`).
const FRESH_BASE: i64 = 1 << 40;

fn rel(i: usize) -> String {
    format!("r{i}")
}

fn generate(rng: &mut SmallRng) -> NetworkConfig {
    let nodes = (0..NODES)
        .map(|i| {
            let schema = DatabaseSchema::new()
                .with(RelationSchema::with_types(rel(i), &[ValueType::Int, ValueType::Int]));
            let data = (0..TUPLES_PER_NODE)
                .map(|_| {
                    let t = [rng.gen_range(0..1 << 30), rng.gen_range(0..1 << 30)];
                    (rel(i), Tuple::new(t.map(Value::Int).to_vec()))
                })
                .collect();
            NodeConfig { id: NodeId(i as u64), name: format!("p{i}"), schema, data }
        })
        .collect();
    let rules = (0..NODES)
        .filter(|&i| i != HUB)
        .map(|i| CoordinationRule {
            rule: parse_rule(&format!("rule e{i}: r{HUB}(X, Y) <- r{i}(X, Y)."))
                .expect("generated rule text parses"),
            source: NodeId(i as u64),
            target: NodeId(HUB as u64),
        })
        .collect();
    NetworkConfig { nodes, rules, version: 0 }
}

/// Bursts the threaded-runtime probe of a traced run ingests.
const RUNTIME_BURSTS: usize = 6;

/// A short retransmit interval for the threaded runtime: there timers run
/// on the wall clock, and each update's last armed timer must fire before
/// the network counts as quiescent.
fn threaded_settings() -> NodeSettings {
    NodeSettings { retransmit_after: SimTime::from_millis(20), ..NodeSettings::default() }
}

/// The store files under `root` with extension `ext`.
fn files(root: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for node in std::fs::read_dir(root).expect("episode directory is readable") {
        let node = node.expect("episode directory entry").path();
        for f in std::fs::read_dir(&node).expect("store directory is readable") {
            let f = f.expect("store directory entry").path();
            if f.extension().is_some_and(|e| e == ext) {
                out.push(f);
            }
        }
    }
    out
}

fn bytes(paths: &[PathBuf]) -> u64 {
    paths.iter().map(|p| std::fs::metadata(p).expect("store file exists").len()).sum()
}

/// Removes the benchmark's working directory however the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    /// A fresh working directory for this process under the package.
    fn new() -> WorkDir {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("working directory can be created");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One burst's inserts (peer, tuple), and the problems found while it ran.
struct Burst {
    inserts: Vec<(usize, Tuple)>,
    problems: Vec<String>,
}

/// Codec throughput over an episode's files: (MB, seconds) per direction.
#[derive(Default)]
struct CodecProbe {
    encode: (f64, f64),
    wal_decode: (f64, f64),
    snap_decode: (f64, f64),
}

fn probe_codec(root: &Path, probe: &mut CodecProbe) {
    for wal in files(root, "wal") {
        let size = std::fs::metadata(&wal).expect("WAL exists").len() as f64;
        let t = Instant::now();
        let contents = read_wal(&wal).expect("WAL reads back");
        probe.wal_decode.1 += t.elapsed().as_secs_f64();
        probe.wal_decode.0 += size / 1e6;
        let t = Instant::now();
        let mut encoded = 0;
        for r in &contents.records {
            encoded += encode_record(r, CODEC).expect("binary encoding is total").len();
        }
        probe.encode.1 += t.elapsed().as_secs_f64();
        probe.encode.0 += encoded as f64 / 1e6;
    }
    for snap in files(root, "snap") {
        let raw = std::fs::read(&snap).expect("snapshot exists");
        let codec = Codec::detect_snap(&raw).expect("snapshot magic");
        let FrameStep::Frame(payload) = FrameScanner::new(&raw[MAGIC_LEN..]).next_frame() else {
            panic!("snapshot {} has no complete frame", snap.display());
        };
        // Seed snapshots are small: decode each several times.
        let t = Instant::now();
        for _ in 0..10 {
            std::hint::black_box(decode_snapshot(payload, codec).expect("snapshot decodes"));
        }
        probe.snap_decode.1 += t.elapsed().as_secs_f64();
        probe.snap_decode.0 += 10.0 * payload.len() as f64 / 1e6;
    }
}

/// The inserts of one burst: (peer, tuple), fresh keys from `next_key` on.
fn burst(rng: &mut SmallRng, next_key: &mut i64) -> Vec<(usize, Tuple)> {
    (0..BURST)
        .map(|_| {
            *next_key += 1;
            let y = rng.gen_range(0..1 << 30);
            (rng.gen_range(0..NODES), Tuple::new(vec![Value::Int(*next_key), Value::Int(y)]))
        })
        .collect()
}

/// Runs the workload; `traced` times each layer call, attaches a counting
/// tracer after each build and fills the per-layer metrics.
pub fn pass(seed: u64, budget: &Budget, traced: bool) -> Pass {
    let work = WorkDir::new();
    let names: Vec<String> = (0..NODES).map(rel).collect();
    let mut p = Pass::default();
    let (mut inserted, mut appends, mut fsyncs) = (0u64, 0u64, 0u64);
    let mut flush_ms = Vec::new();
    let (mut open_ms, mut replayed, mut wal_bytes, mut snap_bytes) = (0.0, 0u64, 0u64, 0u64);
    let (mut acks, mut retransmits, mut rejected) = (0u64, 0u64, 0u64);
    let (mut firings, mut added, mut data_msgs, mut longest, mut updates) = (0, 0, 0, 0, 0u64);
    let mut trace = TraceCounts::default();
    let mut codec = CodecProbe::default();
    let mut last = None;
    let mut episode = 0;
    while budget.episode(episode) {
        let mut rng = episode_rng(seed, episode);
        let config = generate(&mut rng);
        let root = work.0.join(format!("ep{episode}"));
        let t = p.start();
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default())
            .expect("generated configuration is valid");
        // Creating the stores writes and fsyncs every seed snapshot.
        let open = Instant::now();
        let reopened = net
            .open_persistence_all(&root, POLICY, CODEC)
            .expect("stores open in a fresh directory");
        let done = Instant::now();
        p.setup((done - t).as_secs_f64(), (done - open).as_secs_f64());
        let sched = net.fsync_scheduler().expect("group commit shares one scheduler").clone();
        let sink = traced.then(|| {
            let (tracer, sink) = counting_tracer();
            net.attach_tracer(&tracer);
            sink
        });
        let mut episode_problems = Vec::new();
        if !reopened.is_empty() {
            episode_problems.push(format!("fresh directories recovered state: {reopened:?}"));
        }
        let wal0 = bytes(&files(&root, "wal"));
        let stats0 = sched.stats();
        let trace0 = sink.as_ref().map(|s| counts(s)).unwrap_or_default();
        let (acks0, retransmits0) = (sent(&net, "ack"), sent(&net, "retransmit"));

        let mut bursts: Vec<Burst> = Vec::new();
        let mut next_key = FRESH_BASE;
        while budget.op(episode, bursts.len(), BURSTS_PER_EPISODE) {
            let inserts = burst(&mut rng, &mut next_key);
            let sends = inserts.clone();
            let sent0 = net.sim().stats().sent;

            let t = p.start();
            for (at, tuple) in sends {
                let relation = names[at].clone();
                net.run_control(NodeId(at as u64), Body::IngestLocal { relation, tuple });
            }
            let flush = Instant::now();
            sched.flush_all();
            let done = Instant::now();
            let flushed_ms = (done - flush).as_secs_f64() * 1e3;
            p.op((done - t).as_secs_f64() * 1e3, flushed_ms);
            flush_ms.push(flushed_ms);

            // Untimed: the update, and making its WAL records durable, so
            // the next burst's flush syncs only that burst's inserts.
            let out = net.run_update(NodeId(HUB as u64));
            sched.flush_all();
            let problems = update_problems(&net, &out);
            firings += out.summary.firings;
            added += out.summary.tuples_added;
            data_msgs += out.summary.data_messages;
            longest += out.summary.longest_path;
            updates += 1;
            p.op_msgs.push((net.sim().stats().sent - sent0) as f64);
            p.fingerprint.extend([out.messages, out.bytes]);
            inserted += inserts.len() as u64;
            bursts.push(Burst { inserts, problems });
        }
        sched.flush_all();
        let stats1 = sched.stats();
        appends += stats1.appends - stats0.appends;
        fsyncs += stats1.fsyncs - stats0.fsyncs;
        p.fingerprint.extend([stats1.appends - stats0.appends, stats1.fsyncs - stats0.fsyncs]);
        if let Some(sink) = &sink {
            let c = counts(sink).since(&trace0);
            if (c.wal_appends, c.fsyncs)
                != (stats1.appends - stats0.appends, stats1.fsyncs - stats0.fsyncs)
            {
                episode_problems.push(format!(
                    "trace saw {} appends and {} fsyncs, the scheduler counted {} and {}",
                    c.wal_appends,
                    c.fsyncs,
                    stats1.appends - stats0.appends,
                    stats1.fsyncs - stats0.fsyncs
                ));
            }
            trace += c;
        }
        acks += sent(&net, "ack") - acks0;
        retransmits += sent(&net, "retransmit") - retransmits0;
        for nc in &config.nodes {
            let node = net.node(nc.id);
            if let Some(e) = node.persist_error() {
                episode_problems.push(format!("peer {} store failed: {e}", nc.name));
            }
            rejected +=
                node.report().messages_received.get("ingest_rejected").copied().unwrap_or(0);
        }
        drop(net);
        let (wal_b, snap_b) = (bytes(&files(&root, "wal")), bytes(&files(&root, "snap")));
        wal_bytes += wal_b;
        snap_bytes += snap_b;
        let per_burst_kb = (wal_b - wal0) as f64 / 1024.0 / bursts.len() as f64;
        p.op_kb.extend(std::iter::repeat_n(per_burst_kb, bursts.len()));

        // Recovery: every peer rebuilt from its store alone.
        let t = p.start();
        let group = FsyncScheduler::for_policy(POLICY);
        let mut recovered = BTreeMap::new();
        for nc in &config.nodes {
            let mut node = CoDbNode::new(
                nc.id,
                &nc.name,
                nc.schema.clone(),
                Vec::new(),
                &config.rules,
                NodeSettings::default(),
            );
            let dir = CoDbNetwork::node_data_dir(&root, &nc.name);
            match node.open_persistence_with(&dir, POLICY, CODEC, group.as_ref()) {
                Ok(Some(stats)) => replayed += stats.wal_records_replayed,
                Ok(None) => episode_problems.push(format!("peer {} had no state", nc.name)),
                Err(e) => episode_problems.push(format!("peer {} did not recover: {e}", nc.name)),
            }
            recovered.insert(nc.id, node);
        }
        p.cold(t.elapsed().as_secs_f64() * 1e3);

        let ldbs: BTreeMap<NodeId, Instance> =
            recovered.into_iter().map(|(id, n)| (id, n.ldb().clone())).collect();
        for (i, Burst { inserts, mut problems }) in bursts.into_iter().enumerate() {
            let lost = lost(&inserts, |at| &ldbs[&NodeId(at as u64)]);
            if lost > 0 {
                problems.push(format!("{lost} inserts missing after recovery"));
            }
            problems.extend(episode_problems.iter().cloned());
            p.check(|| format!("episode {episode} burst {i}"), problems);
        }
        p.ops_per_episode.push(p.op.len() - p.ops_per_episode.iter().sum::<usize>());

        if traced {
            let t = Instant::now();
            for nc in &config.nodes {
                let dir = CoDbNetwork::node_data_dir(&root, &nc.name);
                std::hint::black_box(
                    Store::open_with(&dir, POLICY, CODEC, None).expect("store reopens"),
                );
            }
            open_ms += t.elapsed().as_secs_f64() * 1e3;
            probe_codec(&root, &mut codec);
            last = Some((ldbs, config));
        }
        let _ = std::fs::remove_dir_all(&root);
        episode += 1;
    }

    if traced {
        let episodes = p.setup.len() as f64;
        let bursts = p.op.len() as f64;
        let (ldbs, config) = last.expect("at least one episode runs");
        let ldbs = ldbs.iter().map(|(id, ldb)| (*id, ldb)).collect();
        let pool: Vec<_> =
            (0..NODES).map(|i| (NodeId(i as u64), selection_query(&rel(i), 0, 1 << 26))).collect();
        probe_relational(&config, &ldbs, &pool).record(&mut p);
        p.layer("core.update.firings", ratio(firings as f64, updates as f64));
        p.layer("core.update.tuples_added", ratio(added as f64, updates as f64));
        p.layer("core.update.useful_ratio", ratio(added as f64, firings as f64));
        p.layer("core.update.data_msgs", ratio(data_msgs as f64, updates as f64));
        p.layer("core.update.longest_path", ratio(longest as f64, updates as f64));
        p.layer("core.reliable.acks", ratio(acks as f64, bursts));
        p.layer("core.reliable.retransmits", ratio(retransmits as f64, bursts));
        p.layer("core.ingest_rejected", rejected as f64);
        p.layer("net.sim.events", ratio(trace.events() as f64, bursts));
        p.layer("net.sim.timer_fires", ratio(trace.timers as f64, bursts));
        p.layer("net.sim.sends", ratio(trace.sends as f64, bursts));
        p.layer("net.sim.send_kb", ratio(trace.send_bytes as f64 / 1024.0, bursts));
        p.layer("store.appends_per_insert", ratio(appends as f64, inserted as f64));
        p.layer("store.fsyncs", ratio(fsyncs as f64, bursts));
        p.layer("store.records_per_fsync", ratio(appends as f64, fsyncs as f64));
        p.layer("store.flush_ms", crate::stats::median(&flush_ms).unwrap_or(0.0));
        p.layer("store.open_ms", ratio(open_ms, episodes));
        p.layer("store.replayed_records", ratio(replayed as f64, episodes));
        p.layer("store.wal_bytes", ratio(wal_bytes as f64, episodes));
        p.layer("store.snap_bytes", ratio(snap_bytes as f64, episodes));
        p.layer(
            "store.disk_bytes_per_tuple",
            ratio((wal_bytes + snap_bytes) as f64, inserted as f64),
        );
        p.layer("codec.record_encode_mb_s", ratio(codec.encode.0, codec.encode.1));
        p.layer("codec.wal_decode_mb_s", ratio(codec.wal_decode.0, codec.wal_decode.1));
        p.layer("codec.snap_decode_mb_s", ratio(codec.snap_decode.0, codec.snap_decode.1));
        probe_runtime(seed, &mut p);
    }
    p
}

/// Inserts of `inserts` missing after recovery from their own peer's
/// database or, as the copy rules imply, from the hub's.
fn lost<'a>(inserts: &[(usize, Tuple)], ldb: impl Fn(usize) -> &'a Instance) -> usize {
    let holds = |at: usize, t: &Tuple| ldb(at).get(&rel(at)).is_some_and(|r| r.contains(t));
    inserts.iter().filter(|(at, t)| !holds(*at, t) || !holds(HUB, t)).count()
}

/// The threaded runtime on the same star, without stores: bursts injected
/// through `ParallelCoDbNet::ingest` with every call timed, each drained to
/// quiescence and followed by a global update. Fills `net.runtime.*` and
/// counts as one checked operation.
fn probe_runtime(seed: u64, p: &mut Pass) {
    let config = generate(&mut episode_rng(seed, usize::MAX));
    let names: Vec<String> = (0..NODES).map(rel).collect();
    // The injector plus the workers fit in the host's cores.
    let workers =
        std::thread::available_parallelism().map_or(1, |n| n.get()).saturating_sub(1).max(1);
    let rt = RuntimeConfig { workers, mailbox_depth: 64, ..RuntimeConfig::default() };
    let net = ParallelCoDbNet::build_with(config.clone(), rt, threaded_settings())
        .expect("generated configuration is valid");
    let mut rng = episode_rng(seed, usize::MAX - 1);
    let mut next_key = FRESH_BASE;
    let (mut call_us, mut drain_ms, mut busy_s) = (Vec::new(), Vec::new(), 0.0);
    let mut all = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..RUNTIME_BURSTS {
        let inserts = burst(&mut rng, &mut next_key);
        let t = Instant::now();
        for (at, tuple) in inserts.iter().cloned() {
            let c = Instant::now();
            net.ingest(NodeId(at as u64), &names[at], tuple);
            call_us.push(c.elapsed().as_secs_f64() * 1e6);
        }
        let drain = Instant::now();
        if !net.await_quiescence(Duration::ZERO, DEADLINE) {
            problems.push("threaded inserts did not reach quiescence".to_owned());
        }
        drain_ms.push(drain.elapsed().as_secs_f64() * 1e3);
        busy_s += t.elapsed().as_secs_f64();
        net.start_update(NodeId(HUB as u64));
        if !net.await_quiescence(Duration::ZERO, DEADLINE) {
            problems.push("threaded update did not reach quiescence".to_owned());
        }
        all.extend(inserts);
    }
    let (delivered, undeliverable, peak) =
        (net.delivered(), net.undeliverable(), net.max_mailbox_depth());
    let nodes = net.shutdown();
    if undeliverable > 0 {
        problems.push(format!("{undeliverable} undeliverable messages"));
    }
    let lost = lost(&all, |at| nodes[&NodeId(at as u64)].ldb());
    if lost > 0 {
        problems.push(format!("{lost} threaded inserts missing"));
    }
    p.check(|| "threaded runtime probe".to_owned(), problems);
    let stats = crate::stats::percentile;
    p.layer("net.runtime.ingest_call_us_p50", stats(&call_us, 50.0).unwrap_or(0.0));
    p.layer("net.runtime.ingest_call_us_p99", stats(&call_us, 99.0).unwrap_or(0.0));
    p.layer("net.runtime.drain_ms", crate::stats::median(&drain_ms).unwrap_or(0.0));
    p.layer("net.runtime.delivered_per_insert", ratio(delivered as f64, all.len() as f64));
    p.layer("net.runtime.mailbox_peak", peak as f64);
    p.layer("net.runtime.undeliverable", undeliverable as f64);
    p.layer("net.runtime.ingest_per_s", ratio(all.len() as f64, busy_s));
}
