//! Economy-subsystem guarantees, end to end through the study driver:
//!
//! * the live economy is a deterministic function of (seed, scenario) —
//!   worker counts are a pure performance knob, and a crash/resume
//!   cycle reproduces the identical economy event for event;
//! * a resume refuses a store whose checkpoint names a scenario it
//!   cannot rebuild, or one whose rebuild diverges from the WAL;
//! * with no economy attached, the subsystem is perfectly inert: no
//!   events, no counters, no report section — the study's artifacts are
//!   those of the pre-economy pipeline.

use acctrade::core::study::{Study, StudyConfig, StudyReport};
use acctrade::crawler::CampaignCheckpoint;
use acctrade::economy::{stream_digest, EconomyConfig};
use acctrade::store::StoreError;
use acctrade::telemetry;
use std::path::{Path, PathBuf};

const SEED: u64 = 20250808;

fn config() -> StudyConfig {
    StudyConfig { seed: SEED, scale: 0.01, iterations: 3, scam: Default::default() }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acctrade-econ-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The byte views of a report that must not depend on how the economy
/// was executed: the event stream, the E1–E3 analysis, the dataset, and
/// the rendered report.
fn byte_views(report: &StudyReport) -> (String, String, String, String) {
    let stream: String =
        report.economy_events.iter().map(|e| e.to_json_line() + "\n").collect();
    let analysis = report.economy.as_ref().expect("economy attached").to_json_pretty();
    (stream, analysis, report.dataset.to_json(), report.render_all())
}

fn persisted_scenario_run(workers: usize, tag: &str) -> (StudyReport, String) {
    let dir = scratch(tag);
    let rec = telemetry::Recorder::new();
    let _scope = rec.enter();
    let report = Study::new(config())
        .with_workers(workers)
        .with_economy(EconomyConfig::scenario("all").expect("known scenario"))
        .run_persisted(&dir)
        .expect("persisted economy run");
    let checkpoint = std::fs::read_to_string(dir.join("checkpoint.json")).expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    (report, checkpoint)
}

#[test]
fn worker_counts_do_not_perturb_the_economy() {
    let (base, base_cp) = persisted_scenario_run(1, "w1");
    assert!(!base.economy_events.is_empty(), "scenario `all` emits events");
    assert!(base.economy.as_ref().unwrap().funnel_all.opened > 0);
    assert!(
        base_cp.contains("\"economy_scenario\": \"all\""),
        "checkpoint records the scenario"
    );

    let (par, par_cp) = persisted_scenario_run(4, "w4");
    assert_eq!(byte_views(&base), byte_views(&par), "4 workers diverged from 1");
    assert_eq!(base_cp, par_cp, "final checkpoints differ across worker counts");
}

#[test]
fn kill_and_resume_reproduce_the_identical_economy() {
    let (clean, clean_cp) = persisted_scenario_run(1, "clean");

    let dir = scratch("crash");
    let study = || {
        Study::new(config())
            .with_economy(EconomyConfig::scenario("all").expect("known scenario"))
    };
    {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        let killed = study()
            .run_persisted_with_kill(&dir, 2)
            .expect("killed economy run");
        assert!(killed.is_none(), "the injected kill must fire");
    }
    let resumed = {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        Study::resume_from_with_workers(config(), &dir, 1).expect("resume rebuilds the economy")
    };
    assert!(resumed.recovery.is_some(), "resumed runs report recovery");
    let resumed_cp = std::fs::read_to_string(dir.join("checkpoint.json")).expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        byte_views(&clean),
        byte_views(&resumed),
        "crash/resume diverged from the uninterrupted run"
    );
    assert_eq!(clean_cp, resumed_cp, "final checkpoints differ across kill/resume");
    assert_eq!(
        stream_digest(&clean.economy_events),
        stream_digest(&resumed.economy_events),
    );
}

/// A store killed mid-campaign under scenario `all`, whose checkpoint is
/// then rewritten to name `scenario` instead.
fn killed_store_naming(tag: &str, scenario: &str) -> PathBuf {
    let dir = scratch(tag);
    {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        let killed = Study::new(config())
            .with_economy(EconomyConfig::scenario("all").expect("known scenario"))
            .run_persisted_with_kill(&dir, 2)
            .expect("killed economy run");
        assert!(killed.is_none(), "the injected kill must fire");
    }
    let path = dir.join("checkpoint.json");
    let text = std::fs::read_to_string(&path).expect("checkpoint");
    let mut cp = CampaignCheckpoint::parse(&text).expect("checkpoint parses");
    assert_eq!(cp.economy_scenario, "all");
    cp.economy_scenario = scenario.to_string();
    std::fs::write(&path, cp.to_json_pretty()).expect("rewrite checkpoint");
    dir
}

/// Resume `dir` and return the message of the `Invalid` error it must
/// fail with.
fn refused_resume(dir: &Path) -> String {
    let rec = telemetry::Recorder::new();
    let _scope = rec.enter();
    match Study::resume_from_with_workers(config(), dir, 1) {
        Err(StoreError::Invalid(msg)) => msg,
        other => panic!("expected Invalid, got {:?}", other.map(|_| "report")),
    }
}

#[test]
fn resume_refuses_an_unknown_economy_scenario() {
    let dir = killed_store_naming("unknown", "no-such-scenario");
    let msg = refused_resume(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(msg.contains("unknown economy scenario"), "got {msg:?}");
}

/// A known scenario that is not the one the WAL was written under: the
/// rebuilt event stream cannot match the committed one.
#[test]
fn resume_refuses_a_swapped_economy_scenario() {
    let dir = killed_store_naming("swapped", "escrow-basic");
    let msg = refused_resume(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(msg.contains("economy event stream mismatch"), "got {msg:?}");
}

#[test]
fn disabled_economy_is_perfectly_inert() {
    let rec = telemetry::Recorder::new();
    let _scope = rec.enter();
    let report = Study::new(config()).run();

    assert!(report.economy.is_none(), "no economy attached, no analysis");
    assert!(report.economy_events.is_empty());
    assert_eq!(report.price_observations, 0, "a static world never reprices");
    for counter in &report.telemetry.counters {
        assert!(
            !counter.key.starts_with("economy.")
                && !counter.key.starts_with("campaign.price_observations"),
            "disabled economy leaked counter {}",
            counter.key
        );
    }
    assert!(
        !report.render_all().contains("Economy E1"),
        "disabled economy must not render a report section"
    );
}

/// Scenario packs really gate their engines: an escrow-only economy
/// emits no price ticks or bot posts, and a bot-only economy opens no
/// orders.
#[test]
fn scenario_packs_gate_their_engines() {
    let run = |name: &str| {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        Study::new(config())
            .with_economy(EconomyConfig::scenario(name).expect("known scenario"))
            .run()
    };

    let escrow = run("escrow-basic");
    let analysis = escrow.economy.as_ref().unwrap();
    assert!(analysis.funnel_all.opened > 0, "escrow engine runs");
    assert!(analysis.cadence.is_empty(), "no bot engine, no cadence rows");

    let bots = run("bot-inventory");
    let analysis = bots.economy.as_ref().unwrap();
    assert_eq!(analysis.funnel_all.opened, 0, "no escrow engine, no orders");
    assert!(!analysis.cadence.is_empty(), "bot engine posts inventory");
}
