//! Per-layer metrics of the traced run.
//!
//! Every layer is timed from outside, around calls into its public
//! functions. A layer that sits below another layer's call (HTML parsing
//! inside the crawl, PCA inside the scam pipeline) is measured by
//! replaying its public function on the traced episode's own inputs; such
//! a number is a per-call cost, read together with the program's own call
//! count, never attributed self time.

use crate::catalogue;
use crate::stats;
use crate::workloads::{Episode, CRAWLER_AGENT, POLITENESS};
use acctrade::core::scamposts::{self, ClusterBackend, ScamPipelineConfig};
use acctrade::core::{anatomy, network, setup, underground, StudyReport};
use acctrade::crawler::extract;
use acctrade::crawler::record::{Dataset, PostRecord, ProfileRecord};
use acctrade::crawler::{CampaignStore, ProfileResolver};
use acctrade::market::config::ALL_MARKETPLACES;
use acctrade::net::http::Status;
use acctrade::net::{Client, SimNet};
use acctrade::social::platform::Platform;
use acctrade::telemetry::manifest::StageReport;
use acctrade::telemetry::{Recorder, RunManifest};
use acctrade::text::cluster::{dbscan, hdbscan, ClusterParams};
use acctrade::text::embed::Embedder;
use acctrade::text::keywords::class_tfidf_keywords;
use acctrade::text::langdetect::is_english;
use acctrade::text::reduce::pca_reduce;
use acctrade::text::tokenize::tokenize_content;
use acctrade::workload::world::World;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Profiles the resolver replay looks up at most.
const RESOLVE_SAMPLE: usize = 2_000;

/// Collected per-layer values, and the raw samples behind the ones that
/// are per-call medians.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Set a per-layer metric of the catalogue.
    ///
    /// # Panics
    /// On a name the catalogue does not list: that is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = catalogue::per_layer(name).unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.values
            .insert(&metric.name, if value.is_finite() { value } else { 0.0 });
    }

    fn add(&mut self, name: &str, value: f64) {
        let total = self.get(name) + value;
        self.set(name, total);
    }

    /// Set a metric to the median of per-call samples, keeping them.
    fn set_samples(&mut self, name: &str, samples: Vec<f64>) {
        self.set(name, stats::median(&samples).unwrap_or(0.0));
        let metric = catalogue::per_layer(name).expect("set() checked the name");
        self.samples.insert(&metric.name, samples);
    }

    /// The value of a metric; 0 when this workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Raw per-call samples, by metric.
    pub fn samples(&self) -> &BTreeMap<&'static str, Vec<f64>> {
        &self.samples
    }
}

fn since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

fn micros(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// `(name, depth, wall seconds)` of a manifest stage.
pub fn stage(s: &StageReport) -> (&str, usize, f64) {
    (s.name.as_str(), s.depth, s.wall_ms / 1e3)
}

/// Top-level stage spans as `stage.<name>_s`, and the part of `wall_s`
/// no top-level stage covers as `stage.unattributed_s`.
pub fn stages<'a>(l: &mut Layers, wall_s: f64, spans: impl Iterator<Item = (&'a str, usize, f64)>) {
    let mut covered = 0.0;
    for (name, _, secs) in spans.filter(|&(_, depth, _)| depth == 0) {
        let metric = format!("stage.{name}_s");
        if catalogue::per_layer(&metric).is_some() {
            l.add(&metric, secs);
        }
        covered += secs;
    }
    l.set("stage.unattributed_s", wall_s - covered);
}

/// Sum of a counter over all its label sets.
pub fn counter_sum(manifest: &RunManifest, name: &str) -> f64 {
    manifest
        .counters
        .iter()
        .filter(|c| c.key.split('{').next() == Some(name))
        .map(|c| c.value as f64)
        .sum()
}

/// Counter increments in a manifest: the sum of every counter that counts
/// events (byte tallies excluded).
pub fn counter_events(manifest: &RunManifest) -> f64 {
    manifest
        .counters
        .iter()
        .filter(|c| !c.key.contains("bytes"))
        .map(|c| c.value as f64)
        .sum()
}

/// The program's own counts from a study report.
pub fn study_counts(l: &mut Layers, report: &StudyReport) {
    let m = &report.telemetry;
    let pages = counter_sum(m, "crawl.pages");
    l.set("crawler.pages", pages);
    l.set(
        "crawler.pages_per_s",
        pages / l.get("stage.crawl_campaign_s"),
    );
    l.set("net.requests", report.requests_issued as f64);
    l.set("social.api_calls", counter_sum(m, "api.calls"));
    l.set(
        "telemetry.counter_events_per_page",
        counter_events(m) / pages,
    );
}

/// Replay one crawl pass over `world` on a fresh fabric, timing each
/// `Client::get`, `html::parse` and extractor call.
pub fn crawl_replay(l: &mut Layers, world: &World, seed: u64) {
    let net = SimNet::new(seed);
    world.deploy(&net);
    let client = Client::new(&net, CRAWLER_AGENT).with_politeness(POLITENESS.0, POLITENESS.1);
    let (mut get_us, mut parse_us, mut offer_us, mut index_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut parsed_bytes, mut parse_s) = (0usize, 0.0);
    for market in ALL_MARKETPLACES {
        let host = market.host();
        let storefront = format!("http://{host}/");
        let mut frontier = vec![storefront.clone()];
        let mut seen = BTreeSet::new();
        while let Some(url) = frontier.pop() {
            if !seen.insert(url.clone()) {
                continue;
            }
            let started = Instant::now();
            let response = client.get(&url);
            get_us.push(micros(started));
            let Ok(response) = response else { continue };
            if response.status != Status::Ok {
                continue;
            }
            let body = response.text();
            let started = Instant::now();
            black_box(acctrade::html::parse(&body));
            parse_us.push(micros(started));
            parse_s += since(started);
            parsed_bytes += body.len();
            let started = Instant::now();
            if url == storefront {
                let listings = extract::parse_storefront(&body);
                frontier.extend(listings.into_iter().map(|p| format!("http://{host}{p}")));
            } else if url.contains("/offer/") {
                black_box(extract::parse_offer(market, &body));
                offer_us.push(micros(started));
            } else {
                let page = extract::parse_index(&body);
                index_us.push(micros(started));
                // Depth-first like the crawler: offers on this page first.
                frontier.extend(page.next_path.map(|p| format!("http://{host}{p}")));
                frontier.extend(page.offer_paths.iter().map(|p| format!("http://{host}{p}")));
            }
        }
    }
    l.set_samples("net.get_us", get_us);
    l.set_samples("html.parse_us", parse_us);
    l.set("html.parse_mb_per_s", parsed_bytes as f64 / 1e6 / parse_s);
    l.set_samples("crawler.extract_offer_us", offer_us);
    l.set_samples("crawler.extract_index_us", index_us);
}

/// Replay `ProfileResolver::resolve` on up to [`RESOLVE_SAMPLE`] of the
/// run's profiles, spread evenly, on a fresh fabric.
pub fn resolve_replay(l: &mut Layers, world: &World, seed: u64, profiles: &[ProfileRecord]) {
    let net = SimNet::new(seed);
    world.deploy(&net);
    let client = Client::new(&net, "acctrade-pipeline/0.1");
    let resolver = ProfileResolver::new(&client);
    let step = profiles.len().div_ceil(RESOLVE_SAMPLE).max(1);
    let mut resolve_us = Vec::new();
    for p in profiles.iter().step_by(step) {
        let Some(platform) = Platform::parse(&p.platform) else {
            continue;
        };
        let started = Instant::now();
        black_box(resolver.resolve(platform, &p.handle));
        resolve_us.push(micros(started));
    }
    l.set_samples("social.resolve_us", resolve_us);
}

/// Replay the scam pipeline's text steps on the run's posts, timing each.
pub fn text_replay(l: &mut Layers, posts: &[PostRecord], cfg: ScamPipelineConfig) {
    let started = Instant::now();
    let mut keys = BTreeSet::new();
    let documents: Vec<&str> = posts
        .iter()
        .filter(|p| keys.insert(tokenize_content(&p.text).join(" ")))
        .map(|p| p.text.as_str())
        .collect();
    l.set("text.dedup_s", since(started));
    l.set("text.documents", documents.len() as f64);
    l.set(
        "text.documents_per_post",
        documents.len() as f64 / posts.len() as f64,
    );

    let started = Instant::now();
    let english: Vec<String> = documents
        .iter()
        .filter(|d| is_english(d))
        .map(|d| d.to_string())
        .collect();
    l.set("text.langdetect_s", since(started));
    if english.len() < 8 {
        return; // the pipeline does not cluster fewer documents either
    }
    let started = Instant::now();
    let embedded = Embedder::new(cfg.embed_dim, cfg.seed).embed_all(&english);
    l.set("text.embed_s", since(started));
    let started = Instant::now();
    let reduced = pca_reduce(&embedded, cfg.reduce_dim, cfg.seed);
    l.set("text.pca_s", since(started));
    let started = Instant::now();
    let labels = match cfg.backend {
        ClusterBackend::Hdbscan { min_cluster_size } => hdbscan(&reduced, min_cluster_size),
        ClusterBackend::Dbscan { eps, min_pts } => dbscan(&reduced, ClusterParams { eps, min_pts }),
    };
    l.set("text.hdbscan_s", since(started));
    let clusters: Vec<Option<usize>> = labels.iter().map(|label| label.id()).collect();
    let started = Instant::now();
    black_box(class_tfidf_keywords(&english, &clusters, 6));
    l.set("text.ctfidf_s", since(started));
}

/// Replay the offer, profile, post and forum analyses of one dataset,
/// timing each into `layers`.
pub fn core_replay(l: &mut Layers, d: &Dataset, scam: ScamPipelineConfig) {
    let t = Instant::now();
    black_box((
        anatomy::table1(&d.offers),
        anatomy::anatomy_stats(&d.offers),
    ));
    l.set("core.anatomy_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    black_box((
        setup::table4(&d.profiles),
        setup::creation_cdf(&d.profiles),
        setup::setup_stats(&d.profiles),
    ));
    l.set("core.setup_stats_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    black_box(scamposts::analyze(&d.posts, scam));
    l.set("core.scamposts_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    black_box(network::analyze(&d.profiles));
    l.set("core.network_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    black_box(underground::analyze(&d.underground));
    l.set("core.underground_s", t.elapsed().as_secs_f64());
}

/// Replay `CampaignStore::load` on a finished store.
pub fn store(l: &mut Layers, dir: &Path) {
    let started = Instant::now();
    let Ok((_, recovery)) = CampaignStore::load(dir) else {
        return;
    };
    let replay_s = since(started);
    l.set("store.wal_bytes", recovery.bytes_replayed as f64);
    l.set("store.records", recovery.records_replayed as f64);
    l.set("store.segments", recovery.segments_scanned as f64);
    l.set("store.replay_s", replay_s);
    l.set(
        "store.replay_mb_per_s",
        recovery.bytes_replayed as f64 / 1e6 / replay_s,
    );
}

/// Replay `Dataset::from_json` on the run's own dataset. The store
/// encodes every WAL record with the same `foundation::json` codec, and
/// recovery decodes them with it.
pub fn json_replay(l: &mut Layers, dataset: &Dataset) {
    let json = dataset.to_json();
    let started = Instant::now();
    let loaded = black_box(Dataset::from_json(&json));
    let load_s = since(started);
    if loaded.is_ok() {
        l.set("json.dataset_load_s", load_s);
        l.set("json.dataset_mb_per_s", json.len() as f64 / 1e6 / load_s);
    }
}

/// Round-trip times of every loopback request.
pub fn round_trips(l: &mut Layers, rtt_us: Vec<f64>) {
    l.set(
        "httpd.rtt_p999_us",
        stats::percentile(&rtt_us, 9_990).unwrap_or(0.0),
    );
    l.set_samples("httpd.rtt_p50_us", rtt_us);
}

/// Per-call cost of the telemetry hot path, timed in batches.
fn telemetry_replay(l: &mut Layers) {
    const BATCH: usize = 1_000;
    const BATCHES: usize = 100;
    let recorder = Recorder::new();
    let labels = [("marketplace", "accsmarket"), ("platform", "instagram")];
    let per_call_ns = |f: &dyn Fn()| -> Vec<f64> {
        (0..BATCHES)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..BATCH {
                    f();
                }
                started.elapsed().as_secs_f64() * 1e9 / BATCH as f64
            })
            .collect()
    };
    let incr = per_call_ns(&|| recorder.incr("bench.counter", black_box(&labels), 1));
    let observe = per_call_ns(&|| recorder.observe("bench.latency_us", black_box(&[]), 65));
    l.set_samples("telemetry.incr_ns", incr);
    l.set_samples("telemetry.observe_ns", observe);
}

/// Metrics every traced workload reports.
pub fn common(l: &mut Layers, episode: &Episode) {
    l.set("steal.cpu_per_wall", episode.cpu_s / episode.wall_s);
    telemetry_replay(l);
}
