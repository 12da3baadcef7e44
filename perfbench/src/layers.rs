//! Per-layer attribution from outside the program: a trace sink that counts
//! `codb-trace` events, and timed probes of `codb-relational` run on a
//! workload's own final databases and rules.

use crate::pass::Pass;
use codb_core::{CoDbNetwork, NetworkConfig, NodeId, UpdateOutcome};
use codb_relational::{
    answer_query, apply_firings, parse_query, ConjunctiveQuery, Instance, NullFactory,
};
use codb_trace::{TraceEvent, TraceSink, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Event totals seen by a [`CountSink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Messages handed to pipes (harness injections included).
    pub sends: u64,
    /// Payload bytes of those messages.
    pub send_bytes: u64,
    /// Messages delivered.
    pub delivers: u64,
    /// Timers fired.
    pub timers: u64,
    /// Records appended to a WAL.
    pub wal_appends: u64,
    /// Physical fsyncs reported by the group-commit scheduler.
    pub fsyncs: u64,
}

impl std::ops::AddAssign for TraceCounts {
    fn add_assign(&mut self, other: TraceCounts) {
        self.sends += other.sends;
        self.send_bytes += other.send_bytes;
        self.delivers += other.delivers;
        self.timers += other.timers;
        self.wal_appends += other.wal_appends;
        self.fsyncs += other.fsyncs;
    }
}

impl TraceCounts {
    /// Events dispatched by the simulator (deliveries and timer fires).
    pub fn events(&self) -> u64 {
        self.delivers + self.timers
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &TraceCounts) -> TraceCounts {
        TraceCounts {
            sends: self.sends - earlier.sends,
            send_bytes: self.send_bytes - earlier.send_bytes,
            delivers: self.delivers - earlier.delivers,
            timers: self.timers - earlier.timers,
            wal_appends: self.wal_appends - earlier.wal_appends,
            fsyncs: self.fsyncs - earlier.fsyncs,
        }
    }
}

/// A trace sink that keeps counts instead of events.
#[derive(Default)]
pub struct CountSink {
    counts: TraceCounts,
}

impl TraceSink for CountSink {
    fn record(&mut self, _at: u64, ev: &TraceEvent) {
        let c = &mut self.counts;
        match ev {
            TraceEvent::NetSend { bytes, .. } => {
                c.sends += 1;
                c.send_bytes += bytes;
            }
            TraceEvent::NetDeliver { .. } => c.delivers += 1,
            TraceEvent::NetTimer { .. } => c.timers += 1,
            TraceEvent::WalAppend { .. } => c.wal_appends += 1,
            TraceEvent::Fsync { .. } => c.fsyncs += 1,
            _ => {}
        }
    }
}

/// A tracer over a fresh [`CountSink`], and a handle to read its counts.
pub fn counting_tracer() -> (Tracer, Arc<Mutex<CountSink>>) {
    let sink = Arc::new(Mutex::new(CountSink::default()));
    (Tracer::new(sink.clone()), sink)
}

/// The counts a sink has accumulated so far.
pub fn counts(sink: &Mutex<CountSink>) -> TraceCounts {
    sink.lock().expect("count sink is never held across a panic").counts
}

/// Messages of `kind` every peer of `net` has sent so far, by its own
/// statistics module.
pub fn sent(net: &CoDbNetwork, kind: &str) -> u64 {
    net.config()
        .nodes
        .iter()
        .map(|nc| net.node(nc.id).report().messages_sent.get(kind).copied().unwrap_or(0))
        .sum()
}

/// Messages of `kind` every peer of `net` has received so far (inserts a
/// peer's schema rejected count as received `ingest_rejected`).
pub fn received(net: &CoDbNetwork, kind: &str) -> u64 {
    net.config()
        .nodes
        .iter()
        .map(|nc| net.node(nc.id).report().messages_received.get(kind).copied().unwrap_or(0))
        .sum()
}

/// Problems with update `outcome` on `net`: truncation, a peer that never
/// took part or never closed, and schema-rejected inserts.
pub fn update_problems(net: &CoDbNetwork, outcome: &UpdateOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if outcome.summary.truncated {
        problems.push("chase truncated".to_owned());
    }
    for nc in &net.config().nodes {
        let report = net.node(nc.id).report();
        let closed = report
            .updates
            .get(&outcome.update)
            .is_some_and(|r| r.closed_at.is_some() || r.completed_at.is_some());
        if !closed {
            problems.push(format!("peer {} did not reach quiescence", nc.name));
        }
        if report.messages_received.get("ingest_rejected").is_some_and(|&n| n > 0) {
            problems.push(format!("peer {} rejected an insert", nc.name));
        }
    }
    problems
}

/// `ans(X, Y) :- <relation>(X, Y), Y >= lo, Y < hi.` — the selection query
/// every workload's pool is made of.
pub fn selection_query(relation: &str, lo: i64, hi: i64) -> ConjunctiveQuery {
    parse_query(&format!("ans(X, Y) :- {relation}(X, Y), Y >= {lo}, Y < {hi}."))
        .expect("selection query text is well-formed")
}

/// Timings and counts from running the relational layer directly on a
/// workload's final state.
#[derive(Clone, Copy, Debug, Default)]
pub struct RelationalProbe {
    /// Host ms of `GlavRule::fire` for every rule over its source database.
    pub fire_ms: f64,
    /// Firings those calls produced.
    pub firings: u64,
    /// Host ms inserting the firings into fresh target instances.
    pub insert_ms: f64,
    /// Host ms of `answer_query` over the query pool.
    pub answer_ms: f64,
    /// Tuples over every node's database.
    pub ldb_tuples: u64,
    /// Marked nulls over every node's database.
    pub nulls: u64,
}

impl RelationalProbe {
    /// Sets the `relational.*` per-layer metrics of `p`.
    pub fn record(&self, p: &mut Pass) {
        p.layer("relational.fire_ms", self.fire_ms);
        p.layer("relational.firings", self.firings as f64);
        p.layer("relational.insert_ms", self.insert_ms);
        p.layer("relational.answer_ms", self.answer_ms);
        p.layer("relational.ldb_tuples", self.ldb_tuples as f64);
        p.layer("relational.nulls", self.nulls as f64);
    }
}

/// Times the relational layer on `ldbs` (each node's final database) with
/// the rules of `config` and the queries of `pool`. Each timing is the
/// median of three repetitions.
pub fn probe_relational(
    config: &NetworkConfig,
    ldbs: &BTreeMap<NodeId, &Instance>,
    pool: &[(NodeId, ConjunctiveQuery)],
) -> RelationalProbe {
    let mut probe = RelationalProbe::default();
    for ldb in ldbs.values() {
        probe.ldb_tuples += ldb.tuple_count() as u64;
        for rel in ldb.relations() {
            probe.nulls += rel.iter().flat_map(|t| t.nulls()).count() as u64;
        }
    }
    let mut fire = Vec::new();
    let mut insert = Vec::new();
    let mut answer = Vec::new();
    for _ in 0..3 {
        let mut fire_s = 0.0;
        let mut insert_s = 0.0;
        let mut firings = 0;
        for cr in &config.rules {
            let t = Instant::now();
            let fired =
                cr.rule.fire(ldbs[&cr.source]).expect("workload rules evaluate on their source");
            fire_s += t.elapsed().as_secs_f64();
            firings += fired.len() as u64;
            let mut target = Instance::with_schema(&ldbs[&cr.target].schema());
            let mut nulls = NullFactory::new(cr.target.0);
            let t = Instant::now();
            apply_firings(&mut target, &fired, &mut nulls).expect("firings fit the target schema");
            insert_s += t.elapsed().as_secs_f64();
            std::hint::black_box(&target);
        }
        let t = Instant::now();
        for (node, q) in pool {
            std::hint::black_box(answer_query(q, ldbs[node]).expect("pool queries evaluate"));
        }
        answer.push(t.elapsed().as_secs_f64() * 1e3);
        fire.push(fire_s * 1e3);
        insert.push(insert_s * 1e3);
        probe.firings = firings;
    }
    probe.fire_ms = crate::stats::median(&fire).unwrap_or(0.0);
    probe.insert_ms = crate::stats::median(&insert).unwrap_or(0.0);
    probe.answer_ms = crate::stats::median(&answer).unwrap_or(0.0);
    probe
}
