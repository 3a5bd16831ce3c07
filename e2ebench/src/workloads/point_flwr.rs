//! `point_flwr_wire`: FLWR point lookups against a served warehouse.
//!
//! One op looks one enzyme up by id: the client parses the FLWR text,
//! translates it against the shared catalog, sends the SQL over TCP to an
//! in-process `xomatiq-server`, and tags the reply. The executor touches one
//! indexed row, and ids are drawn uniformly from more entries than the plan
//! cache holds, so parsing, XQ2SQL, SQL planning and the wire dominate.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use xomatiq_core::{tagger, ShreddingStrategy, Xomatiq};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_server::{Client, QueryReply, ServerConfig, ServerHandle};
use xomatiq_xml::Document;
use xomatiq_xquery::{parse_query, translate, CatalogProvider};

use super::{load_three, text_err};
use crate::harness::{
    CountingCatalog, Mode, ObsReading, OpResult, Probe, Scale, Tally, Worker, Workload,
};
use crate::inputs::{planted_corpus, Rng};
use crate::trace::{OpBreakdown, Tracer};

pub struct PointFlwr {
    xq: Xomatiq,
    // Held for its `Drop`, which drains and joins the server's threads.
    _server: ServerHandle,
    addr: SocketAddr,
    /// `(enzyme id, its description)`: what a lookup must return.
    entries: Vec<(String, String)>,
    seed: u64,
}

impl PointFlwr {
    pub fn build(seed: u64, scale: Scale) -> Result<PointFlwr, String> {
        let corpus = planted_corpus(seed, scale.per_db());
        let xq = Xomatiq::in_memory();
        load_three(
            &xq,
            &corpus,
            LoadOptions {
                strategy: ShreddingStrategy::Edge,
                with_indexes: true,
                validate: true,
            },
        )?;
        let server = xomatiq_server::start(
            xq.db().clone(),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..ServerConfig::default()
            },
        )
        .map_err(text_err)?;
        Ok(PointFlwr {
            addr: server.local_addr(),
            _server: server,
            xq,
            entries: corpus
                .enzymes
                .iter()
                .map(|e| (e.id.clone(), e.descriptions[0].clone()))
                .collect(),
            seed,
        })
    }
}

/// Client threads: one per core, two at most (the box this benchmark was
/// sized on has two, and the server needs cycles too).
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload for PointFlwr {
    fn workers(&self) -> Vec<Box<dyn Worker + '_>> {
        (0..clients())
            .map(|i| {
                Box::new(Lookup {
                    wl: self,
                    client: Client::connect(self.addr).expect("connect to the bench's own server"),
                    rng: Rng::new(self.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9)),
                    catalog: CountingCatalog::new(&self.xq),
                }) as Box<dyn Worker + '_>
            })
            .collect()
    }

    /// The server's side of a round trip is seen only through the
    /// registry, so the four layers a round trip is made of are means over
    /// the traced phase, not medians: the wire proper, request handling,
    /// and inside that planning and execution of the op's SQL.
    fn adjust_layers(
        &self,
        layers: &mut BTreeMap<&'static str, f64>,
        ops: &[OpBreakdown],
        obs: &ObsReading,
        tally: &Tally,
    ) {
        let per_op_us = |total_ns: u64| total_ns as f64 / ops.len().max(1) as f64 / 1e3;
        let round_trip = per_op_us(ops.iter().map(|op| op.self_ns["server.wire"]).sum());
        let handle = per_op_us(obs.server_sum_ns);
        let plan = per_op_us(obs.plan_sum_ns);
        let exec = per_op_us(obs.exec_sum_ns.saturating_sub(tally.catalog_exec_ns));
        layers.insert("server.wire", (round_trip - handle).max(0.0));
        layers.insert("server.handle", (handle - plan - exec).max(0.0));
        layers.insert("relstore.plan", plan);
        layers.insert("relstore.exec", exec);
    }
}

/// `parse_query` → `translate` → `Client::query` → `tag_rows`.
fn lookup(
    client: &mut Client,
    text: &str,
    provider: &dyn CatalogProvider,
    tracer: &mut Tracer,
) -> Result<(QueryReply, Document), String> {
    let s = tracer.enter("xquery.parse");
    let parsed = parse_query(text).map_err(text_err)?;
    tracer.exit(s);
    let s = tracer.enter("xquery.xq2sql");
    let translated = translate(&parsed, provider).map_err(text_err)?;
    tracer.exit(s);
    // Split later into the server's handling and the wire proper.
    let s = tracer.enter("server.wire");
    let reply = client
        .query(&translated.sql, Vec::new())
        .map_err(text_err)?;
    tracer.exit(s);
    let s = tracer.enter("core.tag");
    let tagged = tagger::tag_rows("results", "result", &translated.columns, reply.rows())
        .map_err(text_err)?;
    tracer.exit(s);
    Ok((reply, tagged))
}

struct Lookup<'a> {
    wl: &'a PointFlwr,
    client: Client,
    rng: Rng,
    catalog: CountingCatalog<'a>,
}

impl Worker for Lookup<'_> {
    /// There is no façade for FLWR over the wire: the client-side calls are
    /// the op in both modes, and the modes differ only in the catalog
    /// wrapper that counts lookups.
    fn op(&mut self, mode: Mode, probe: &mut Probe) -> OpResult {
        let wl = self.wl;
        let (id, description) = &wl.entries[self.rng.below(wl.entries.len())];
        let text = format!(
            "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme \
             WHERE $a//enzyme_id = \"{id}\" RETURN $a//enzyme_description"
        );
        let provider: &dyn CatalogProvider = match mode {
            Mode::Facade => &wl.xq,
            Mode::Staged => &self.catalog,
        };
        let Probe { tracer, tally } = probe;

        let t = Instant::now();
        let root = tracer.enter("harness.glue");
        let outcome = lookup(&mut self.client, &text, provider, tracer);
        tracer.exit(root);
        let latency = t.elapsed();
        let (reply, tagged) = outcome?;

        self.catalog.drain_into(tally);
        let correct = matches!(reply.rows(), [row] if row.len() == 1 && row[0].to_string() == *description)
            && tagged.len() > 1;
        Ok((latency, correct))
    }
}
