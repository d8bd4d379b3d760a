//! The two workloads: each episode prepares its inputs (untimed set-up),
//! runs the job under the clock, and checks what the job produced.
//!
//! A check that fails marks the episode as a failed operation; it is
//! counted, not raised. Only a broken environment (no loopback socket, an
//! unwritable run directory, no `/proc`) aborts the run.

use crate::layers::{self, Layers};
use crate::probe::{self, Clock, Cost};
use acctrade::core::{Study, StudyConfig, StudyReport};
use acctrade::crawler::merge::normalize_for_parity;
use acctrade::crawler::record::{Dataset, OfferRecord};
use acctrade::crawler::{CampaignStore, CrawlCampaign};
use acctrade::economy::EconomyConfig;
use acctrade::httpd::{HostTable, HttpServer, LoopbackTransport, ServerConfig, TimeSource};
use acctrade::net::error::NetResult;
use acctrade::net::http::{Request, Response};
use acctrade::net::robots::RobotsPolicy;
use acctrade::net::transport::Transport;
use acctrade::net::{Client, SimNet};
use acctrade::telemetry::{digest64, Recorder};
use acctrade::workload::world::{World, WorldParams};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `full_study` example's seed; the only seed with committed digests.
pub const DEFAULT_SEED: u64 = 0xACC7;

/// The crawler's user agent and politeness, as `Study` configures them.
pub const CRAWLER_AGENT: &str = "acctrade-crawler/0.1";
pub const POLITENESS: (f64, f64) = (20.0, 8.0);

/// World scale of both workloads: small enough that a run holds a dozen
/// or more episodes, so that its median is steady on a noisy machine.
const SCALE: f64 = 0.1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scale 0.1, economy `all`, 2 workers: killed after 5 iterations,
    /// then resumed from the store.
    PersistResume,
    /// The scale-0.1 crawl campaign over loopback TCP against
    /// `acctrade-httpd`.
    CrawlLoopback,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::PersistResume, Workload::CrawlLoopback];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PersistResume => "persist_resume",
            Workload::CrawlLoopback => "crawl_loopback",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `digest64` of the job's output at [`DEFAULT_SEED`]: the rendered
    /// report, or the parity-normalized offers.
    fn reference_digest(self) -> &'static str {
        match self {
            Workload::PersistResume => "34125b91829fec74",
            Workload::CrawlLoopback => "dee4f3963c423318",
        }
    }
}

/// What one episode measured and whether its output checked out.
#[derive(Debug, Clone)]
pub struct Episode {
    /// The reference job's time just before and just after the episode
    /// ([`probe::Speed`]). The times below are raw.
    pub reference_s: [f64; 2],
    /// Untimed preparation of the job's inputs.
    pub setup_s: f64,
    /// From handing the inputs to the job until it returned its result.
    pub wall_s: f64,
    /// User+system CPU of the whole process during `wall_s`.
    pub cpu_s: f64,
    /// Peak resident memory during `wall_s`, counted from the resident
    /// size at its start.
    pub peak_rss_mb: f64,
    /// From calling `resume_from_with_workers` to the complete report
    /// (persist_resume only).
    pub resume_s: Option<f64>,
    /// Operations attempted: the episode, plus every request on
    /// crawl_loopback.
    pub attempted: u64,
    /// Operations failed: a failed check, or a request that ended in a
    /// transport-level `NetError`.
    pub failed: u64,
    /// `digest64` of the job's output.
    pub digest: String,
    /// Why checks failed (empty when the output is correct).
    pub failures: Vec<String>,
}

impl Episode {
    fn new(setup_s: f64, cost: Cost) -> Episode {
        Episode {
            reference_s: [probe::NOMINAL_REFERENCE_S; 2],
            setup_s,
            wall_s: cost.wall_s,
            cpu_s: cost.cpu_s,
            peak_rss_mb: cost.peak_rss_mb,
            resume_s: None,
            attempted: 1,
            failed: 0,
            digest: String::new(),
            failures: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// Runs episodes of one workload at one seed.
pub struct Runner {
    workload: Workload,
    seed: u64,
    run_dir: PathBuf,
    /// The digest every episode must reproduce: the committed one at
    /// [`DEFAULT_SEED`], otherwise the first episode's.
    expected: Option<String>,
    /// crawl_loopback's parity reference: the same campaign on the sim
    /// fabric, normalized.
    sim_offers: Option<Vec<OfferRecord>>,
}

impl Runner {
    /// A runner keeping its scratch files (persist_resume's store) under
    /// `run_dir`.
    pub fn new(workload: Workload, seed: u64, run_dir: PathBuf) -> Runner {
        Runner {
            workload,
            seed,
            run_dir,
            expected: (seed == DEFAULT_SEED).then(|| workload.reference_digest().to_string()),
            sim_offers: None,
        }
    }

    /// Run one episode; with `layers`, also collect the per-layer metrics.
    pub fn episode(&mut self, layers: Option<&mut Layers>) -> Result<Episode, String> {
        let before_s = probe::reference_job_s();
        let mut episode = match self.workload {
            Workload::PersistResume => self.persist_resume(layers)?,
            Workload::CrawlLoopback => self.crawl_loopback(layers)?,
        };
        episode.reference_s = [before_s, probe::reference_job_s()];
        match &self.expected {
            None => self.expected = Some(episode.digest.clone()),
            Some(expected) => {
                let (got, want) = (episode.digest.clone(), expected.clone());
                episode.check(got == want, || {
                    format!("output digest {got} != reference {want}")
                });
            }
        }
        if !episode.failures.is_empty() {
            episode.failed += 1;
        }
        Ok(episode)
    }

    /// Remove everything the runner wrote.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }

    fn study_config(&self, iterations: usize) -> StudyConfig {
        StudyConfig {
            seed: self.seed,
            scale: SCALE,
            iterations,
            scam: Default::default(),
        }
    }

    fn world_params(&self) -> WorldParams {
        WorldParams {
            seed: self.seed,
            scale: SCALE,
        }
    }

    fn persist_resume(&mut self, layers: Option<&mut Layers>) -> Result<Episode, String> {
        const KILL_AFTER: usize = 5;
        const WORKERS: usize = 2;
        let config = self.study_config(10);
        let started = Instant::now();
        let dir = self.run_dir.join("store");
        std::fs::create_dir_all(&self.run_dir)
            .map_err(|e| format!("create {}: {e}", self.run_dir.display()))?;
        let economy = EconomyConfig::scenario("all").ok_or("economy scenario `all` is missing")?;
        let study = Study::new(config)
            .with_economy(economy)
            .with_workers(WORKERS);
        let setup_s = started.elapsed().as_secs_f64();

        // The study records into a scoped recorder instead of its own, so
        // the killed process's stage spans can be read; the resumed report
        // carries only the spans the resume itself ran.
        let killed_recorder = Recorder::new();
        let scope = killed_recorder.enter();
        let clock = Clock::start()?;
        let killed = study.run_persisted_with_kill(&dir, KILL_AFTER);
        drop(scope);
        let resume_started = Instant::now();
        let resumed = Study::resume_from_with_workers(config, &dir, WORKERS);
        let rendered = resumed.as_ref().map(StudyReport::render_all);
        let resume_s = resume_started.elapsed().as_secs_f64();
        let mut episode = Episode::new(setup_s, clock.stop()?);
        episode.resume_s = Some(resume_s);

        match killed {
            Ok(None) => {}
            Ok(Some(_)) => episode.failures.push("the kill never fired".to_string()),
            Err(e) => episode.failures.push(format!("killed run failed: {e}")),
        }
        match (&resumed, rendered) {
            (Ok(report), Ok(rendered)) => {
                episode.digest = digest64(&rendered);
                check_study(&mut episode, report);
                check_recovery(&mut episode, report, &dir);
            }
            (Err(e), _) | (_, Err(e)) => episode.failures.push(format!("resume failed: {e}")),
        }
        if let (Some(l), Ok(report)) = (layers, &resumed) {
            let generated = Instant::now();
            let world = World::generate(self.world_params());
            l.set("workload.generate_s", generated.elapsed().as_secs_f64());
            let killed_spans = killed_recorder.finished_spans();
            let spans = killed_spans
                .iter()
                .map(|s| (s.name.as_str(), s.depth, s.wall_ns as f64 / 1e9));
            let resumed_spans = report.telemetry.stages.iter().map(layers::stage);
            layers::stages(l, episode.wall_s, spans.chain(resumed_spans));
            layers::study_counts(l, report);
            layers::store(l, &dir);
            l.set("economy.events", report.economy_events.len() as f64);
            l.set("resume_s", resume_s);
            layers::crawl_replay(l, &world, self.seed);
            layers::resolve_replay(l, &world, self.seed, &report.dataset.profiles);
            layers::text_replay(l, &report.dataset.posts, config.scam);
            layers::json_replay(l, &report.dataset);
            layers::core_replay(l, &report.dataset, config.scam);
            layers::common(l, &episode);
        }
        // Removed outside both clocks: the next episode starts on a fresh
        // store, and removing ~22 MB of segments spreads too much to time.
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        Ok(episode)
    }

    fn crawl_loopback(&mut self, layers: Option<&mut Layers>) -> Result<Episode, String> {
        const ITERATIONS: usize = 10;
        if self.sim_offers.is_none() {
            let mut world = World::generate(self.world_params());
            let net = SimNet::new(self.seed);
            world.deploy(&net);
            let client =
                Client::new(&net, CRAWLER_AGENT).with_politeness(POLITENESS.0, POLITENESS.1);
            let (dataset, _) = CrawlCampaign::new(&client).run(&mut world, ITERATIONS);
            self.sim_offers = Some(normalize_for_parity(dataset.offers));
        }

        let started = Instant::now();
        let mut world = World::generate(self.world_params());
        let generate_s = started.elapsed().as_secs_f64();
        let net = SimNet::new(self.seed);
        world.deploy(&net);
        let server_config = ServerConfig {
            workers: 1,
            time: TimeSource::Virtual(net.clock().clone()),
            ..ServerConfig::default()
        };
        let server = HttpServer::bind("127.0.0.1:0", HostTable::from_sim(&net), server_config)
            .map_err(|e| format!("bind the loopback server: {e}"))?;
        let transport = Arc::new(Counted::new(server.addr(), layers.is_some()));
        let client = Client::new(&net, CRAWLER_AGENT)
            .with_politeness(POLITENESS.0, POLITENESS.1)
            .with_transport(Arc::clone(&transport) as Arc<dyn Transport>);
        // Campaign telemetry on, as in a study.
        let recorder = Recorder::new();
        let setup_s = started.elapsed().as_secs_f64();

        let scope = recorder.enter();
        let clock = Clock::start()?;
        let (dataset, _) = CrawlCampaign::new(&client).run(&mut world, ITERATIONS);
        let mut episode = Episode::new(setup_s, clock.stop()?);
        drop(scope);
        let stats = server.stats();
        server.shutdown();
        let server_stats = stats.snapshot();

        let requests = transport.attempted.load(Ordering::Relaxed);
        let request_failures = transport.failed.load(Ordering::Relaxed);
        episode.attempted += requests;
        episode.failed += request_failures;
        let offers = normalize_for_parity(dataset.offers);
        episode.digest = digest64(
            &Dataset {
                offers: offers.clone(),
                ..Dataset::default()
            }
            .to_json(),
        );
        episode.check(server_stats.parse_rejects == 0, || {
            format!(
                "server rejected {} malformed requests",
                server_stats.parse_rejects
            )
        });
        episode.check(Some(&offers) == self.sim_offers.as_ref(), || {
            "loopback offers differ from the sim campaign's".to_string()
        });
        if let Some(l) = layers {
            l.set("workload.generate_s", generate_s);
            let manifest = recorder.manifest("crawl_loopback", self.seed, "");
            let pages = layers::counter_sum(&manifest, "crawl.pages");
            l.set("crawler.pages", pages);
            l.set("crawler.pages_per_s", pages / episode.wall_s);
            l.set("net.requests", requests as f64);
            l.set(
                "telemetry.counter_events_per_page",
                layers::counter_events(&manifest) / pages,
            );
            l.set("httpd.requests", server_stats.requests as f64);
            l.set("httpd.conns", server_stats.accepted as f64);
            l.set(
                "httpd.keepalive_reuse_ratio",
                server_stats.keepalive_reuse as f64 / server_stats.requests as f64,
            );
            l.set("httpd.parse_rejects", server_stats.parse_rejects as f64);
            let rtt = transport
                .rtt_us
                .as_ref()
                .map(|r| r.lock().expect("rtt lock").clone());
            layers::round_trips(l, rtt.unwrap_or_default());
            layers::crawl_replay(l, &world, self.seed);
            layers::common(l, &episode);
        }
        Ok(episode)
    }
}

/// Invariants every finished study holds, whatever the seed.
fn check_study(episode: &mut Episode, report: &StudyReport) {
    if let Err(e) = report.telemetry.validate() {
        episode
            .failures
            .push(format!("telemetry manifest invalid: {e}"));
    }
    episode.check(report.table1.len() == 11, || {
        format!("table 1 has {} rows", report.table1.len())
    });
    episode.check(!report.dataset.offers.is_empty(), || {
        "no offers collected".to_string()
    });
    episode.check(report.dynamics.cumulative_monotone(), || {
        "figure 2 not monotone".to_string()
    });
    episode.check(
        report.scam.total_posts == report.dataset.posts.len(),
        || "scam analysis skipped posts".to_string(),
    );
}

/// A resumed store recovered cleanly and ends with a complete checkpoint.
fn check_recovery(episode: &mut Episode, report: &StudyReport, dir: &Path) {
    match &report.recovery {
        None => episode
            .failures
            .push("resumed report carries no recovery".to_string()),
        Some(r) => {
            episode.check(r.torn_tails_truncated == 0, || {
                "recovery truncated a torn tail".into()
            });
            episode.check(r.uncommitted_records_dropped == 0, || {
                format!("recovery dropped {} records", r.uncommitted_records_dropped)
            });
            episode.check(r.records_replayed > 0, || {
                "recovery replayed nothing".into()
            });
        }
    }
    match CampaignStore::read_checkpoint(dir) {
        Ok(Some(cp)) => episode.check(cp.complete, || "final checkpoint is not complete".into()),
        Ok(None) => episode
            .failures
            .push("no checkpoint after resume".to_string()),
        Err(e) => episode.failures.push(format!("checkpoint unreadable: {e}")),
    }
}

/// The loopback transport, counting requests and transport-level
/// failures and, in a traced run, keeping every round-trip time.
struct Counted {
    inner: LoopbackTransport,
    attempted: AtomicU64,
    failed: AtomicU64,
    rtt_us: Option<Mutex<Vec<f64>>>,
}

impl Counted {
    fn new(addr: std::net::SocketAddr, traced: bool) -> Counted {
        Counted {
            inner: LoopbackTransport::new(addr),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rtt_us: traced.then(|| Mutex::new(Vec::new())),
        }
    }
}

impl Transport for Counted {
    fn mode(&self) -> &'static str {
        self.inner.mode()
    }

    fn send(&self, req: &Request) -> NetResult<Response> {
        let started = self.rtt_us.as_ref().map(|_| Instant::now());
        let response = self.inner.send(req);
        if let (Some(started), Some(rtt)) = (started, &self.rtt_us) {
            let us = started.elapsed().as_secs_f64() * 1e6;
            rtt.lock().expect("rtt samples lock poisoned").push(us);
        }
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if response.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    fn robots(&self, host: &str) -> Option<RobotsPolicy> {
        self.inner.robots(host)
    }

    fn now_unix(&self) -> Option<i64> {
        self.inner.now_unix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    /// A run whose reference digest is perturbed must report the episode
    /// as a failed operation, not crash and not pass.
    #[test]
    fn perturbed_reference_digest_is_a_failed_operation() {
        let mut runner = Runner::new(Workload::CrawlLoopback, 7, PathBuf::from("unused"));
        let first = runner.episode(None).expect("episode runs");
        assert_eq!(first.failed, 0, "{:?}", first.failures);
        assert!(first.attempted > 1, "the episode and its requests");
        let again = runner.episode(None).expect("episode runs");
        assert_eq!(
            again.failed, 0,
            "same seed reproduces the digest: {:?}",
            again.failures
        );

        let mut perturbed = first.digest.clone().into_bytes();
        perturbed[0] = if perturbed[0] == b'0' { b'1' } else { b'0' };
        runner.expected = Some(String::from_utf8(perturbed).expect("hex digest"));
        let bad = runner.episode(None).expect("episode runs");
        assert_eq!((bad.attempted, bad.failed), (first.attempted, 1));
        assert!(bad.failures[0].contains("digest"), "{:?}", bad.failures);
    }
}
