//! `query-mix`: query-time answering on the simulator.
//!
//! A ring of GAV copy rules that is never materialised, so every query
//! fetches along simple paths from its peer's acquaintances. Each episode
//! builds a fresh network, runs one cold query, then a closed loop (one
//! client) of operations: Zipf-skewed selection queries from a fixed pool,
//! posed with `fetch = true` at their peer, and about one in ten a
//! single-tuple local insert at a seeded peer.
//!
//! On a ring of copy rules query-time answering is complete, so every
//! answer must equal the selection over the union of all peers' data.

use crate::layers::{
    counting_tracer, counts, probe_relational, received, selection_query, sent, TraceCounts,
};
use crate::pass::{episode_rng, ratio, Budget, Pass};
use codb_core::{Body, CoDbNetwork, CoordinationRule, NetworkConfig, NodeConfig, NodeId};
use codb_net::SimConfig;
use codb_relational::{
    parse_rule, ConjunctiveQuery, DatabaseSchema, RelationSchema, Tuple, Value, ValueType,
};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{BTreeSet, HashSet};

/// Peers on the ring.
const NODES: usize = 8;
/// Seed tuples per peer.
const TUPLES_PER_NODE: usize = 300;
/// Second-column values; selections cut ranges out of it.
const DOMAIN: i64 = 1000;
/// Distinct queries in the pool.
const POOL: usize = 48;
/// Zipf exponent of query popularity.
const ZIPF_S: f64 = 1.0;
/// Share of operations that are inserts.
const WRITE_SHARE: f64 = 0.1;
/// Operations after each cold query.
const OPS_PER_EPISODE: usize = 12;
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
                    let t = [rng.gen_range(0..1 << 30), rng.gen_range(0..DOMAIN)];
                    (rel(i), Tuple::new(t.map(Value::Int).to_vec()))
                })
                .collect();
            NodeConfig { id: NodeId(i as u64), name: format!("p{i}"), schema, data }
        })
        .collect();
    let rules = (0..NODES)
        .map(|i| {
            let (src, tgt) = (i, (i + 1) % NODES);
            CoordinationRule {
                rule: parse_rule(&format!("rule e{i}: r{tgt}(X, Y) <- r{src}(X, Y)."))
                    .expect("generated rule text parses"),
                source: NodeId(src as u64),
                target: NodeId(tgt as u64),
            }
        })
        .collect();
    NetworkConfig { nodes, rules, version: 0 }
}

/// One pool entry: the peer that poses it, its selection range, the query.
struct PoolQuery {
    peer: usize,
    lo: i64,
    hi: i64,
    query: ConjunctiveQuery,
}

/// The pool, most popular first, and its cumulative Zipf weights. The pool
/// depends on the seed only, so every episode draws from the same queries.
fn pool(seed: u64) -> (Vec<PoolQuery>, Vec<f64>) {
    // A stream of its own: no episode index reaches usize::MAX.
    let mut rng = episode_rng(seed, usize::MAX);
    let queries = (0..POOL)
        .map(|_| {
            let peer = rng.gen_range(0..NODES);
            let lo = rng.gen_range(0..DOMAIN - 100);
            let hi = lo + rng.gen_range(20..100);
            PoolQuery { peer, lo, hi, query: selection_query(&rel(peer), lo, hi) }
        })
        .collect();
    let mut total = 0.0;
    let cumulative = (1..=POOL)
        .map(|rank| {
            total += 1.0 / (rank as f64).powf(ZIPF_S);
            total
        })
        .collect();
    (queries, cumulative)
}

fn draw(rng: &mut SmallRng, cumulative: &[f64]) -> usize {
    let u = rng.gen::<f64>() * cumulative[cumulative.len() - 1];
    cumulative.partition_point(|&c| c <= u).min(cumulative.len() - 1)
}

/// Runs the workload; `traced` attaches a counting tracer after each build
/// and fills the per-layer metrics.
pub fn pass(seed: u64, budget: &Budget, traced: bool) -> Pass {
    let mut p = Pass::default();
    let (pool, cumulative) = pool(seed);
    let (mut queries, mut repeats, mut inserts, mut answers, mut fetches) = (0, 0, 0, 0, 0);
    let mut trace = TraceCounts::default();
    let mut rejected = 0;
    let mut last = None;
    let mut episode = 0;
    while budget.episode(episode) {
        let mut rng = episode_rng(seed, episode);
        let config = generate(&mut rng);
        // Every tuple in the network as (Y, X): a selection on Y is a range.
        let mut all: BTreeSet<(i64, i64)> = BTreeSet::new();
        for nc in &config.nodes {
            for (_, t) in &nc.data {
                if let (Some(Value::Int(x)), Some(Value::Int(y))) = (t.get(0), t.get(1)) {
                    all.insert((*y, *x));
                }
            }
        }
        let t = p.start();
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default())
            .expect("generated configuration is valid");
        p.setup(t.elapsed().as_secs_f64(), 0.0);
        let sink = traced.then(|| {
            let (tracer, sink) = counting_tracer();
            net.attach_tracer(&tracer);
            sink
        });
        let fetches0 = sent(&net, "query_request");

        let mut asked: HashSet<usize> = HashSet::new();
        let mut next_key = FRESH_BASE;
        let mut ops = 0;
        // Op 0 is the cold query; the timed loop follows.
        let mut cold = true;
        while cold || budget.op(episode, ops, OPS_PER_EPISODE) {
            if !cold && rng.gen_bool(WRITE_SHARE) {
                next_key += 1;
                let (at, y) = (rng.gen_range(0..NODES), rng.gen_range(0..DOMAIN));
                let tuple = Tuple::new(vec![Value::Int(next_key), Value::Int(y)]);
                net.run_control(NodeId(at as u64), Body::IngestLocal { relation: rel(at), tuple });
                all.insert((y, next_key));
                let report = net.node(NodeId(at as u64)).report();
                let problems = match report.messages_received.get("ingest_rejected") {
                    Some(&n) if n > 0 => vec![format!("peer {at} rejected an insert")],
                    _ => Vec::new(),
                };
                p.check(|| format!("episode {episode} insert {next_key}"), problems);
                inserts += 1;
                ops += 1;
                continue;
            }
            let index = draw(&mut rng, &cumulative);
            let q = &pool[index];
            let before = (net.sim().stats().sent, sink.as_ref().map(|s| counts(s)));
            let t = p.start();
            let out = net.run_query(NodeId(q.peer as u64), q.query.clone(), true);
            let ms = t.elapsed().as_secs_f64() * 1e3;

            let want: Vec<Tuple> = {
                let mut v: Vec<(i64, i64)> =
                    all.range((q.lo, i64::MIN)..(q.hi, i64::MIN)).map(|&(y, x)| (x, y)).collect();
                v.sort_unstable();
                v.into_iter().map(|(x, y)| Tuple::new(vec![Value::Int(x), Value::Int(y)])).collect()
            };
            let mut problems = Vec::new();
            if out.result.answers != want {
                problems.push(format!(
                    "{} answers, expected {} from the generated data",
                    out.result.answers.len(),
                    want.len()
                ));
            }
            if let (Some(sink), Some(c0)) = (&sink, before.1) {
                let c = counts(sink).since(&c0);
                let stats_sent = net.sim().stats().sent - before.0;
                if c.sends != stats_sent {
                    problems.push(format!("trace saw {} sends, net counted {stats_sent}", c.sends));
                }
                trace += c;
            }
            p.check(
                || format!("episode {episode} query on peer {} [{}, {})", q.peer, q.lo, q.hi),
                problems,
            );
            p.fingerprint.extend([out.messages, out.bytes]);
            if cold {
                p.cold(ms);
                cold = false;
                asked.insert(index);
                continue;
            }
            if !asked.insert(index) {
                repeats += 1;
            }
            queries += 1;
            answers += out.result.answers.len();
            p.op(ms, 0.0);
            p.op_kb.push(out.bytes as f64 / 1024.0);
            p.op_msgs.push(out.messages as f64);
            ops += 1;
        }
        fetches += sent(&net, "query_request") - fetches0;
        rejected += received(&net, "ingest_rejected");
        p.ops_per_episode.push(ops);
        last = Some((net, config));
        episode += 1;
    }

    if traced {
        let all_queries = (queries + p.cold.len()) as f64;
        let (net, config) = last.expect("at least one episode runs");
        let ldbs =
            (0..NODES).map(|i| (NodeId(i as u64), net.node(NodeId(i as u64)).ldb())).collect();
        let probe_pool: Vec<_> =
            pool.iter().map(|q| (NodeId(q.peer as u64), q.query.clone())).collect();
        p.layer("core.ingest_rejected", rejected as f64);
        probe_relational(&config, &ldbs, &probe_pool).record(&mut p);
        p.layer("core.query.fetch_msgs", ratio(fetches as f64, all_queries));
        p.layer("core.query.answers", ratio(answers as f64, queries as f64));
        p.layer("net.sim.events", ratio(trace.events() as f64, all_queries));
        p.layer("net.sim.timer_fires", ratio(trace.timers as f64, all_queries));
        p.layer("net.sim.sends", ratio(trace.sends as f64, all_queries));
        p.layer("net.sim.send_kb", ratio(trace.send_bytes as f64 / 1024.0, all_queries));
        p.layer("workload.repeat_share", ratio(repeats as f64, queries as f64));
        p.layer("workload.write_share", ratio(inserts as f64, (inserts + queries) as f64));
    }
    p
}
