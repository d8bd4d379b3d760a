//! Crash recovery: an interrupted persisted study resumes byte-identically.
//!
//! The paper's dataset is the product of a five-month crawl campaign; in
//! reality such campaigns die and restart. These tests kill a persisted
//! study at four distinct points — a clean iteration boundary, a torn
//! frame mid-segment, a crash between the WAL fsync and the checkpoint
//! replace, and a death *inside* the parallel crawl phase with shards
//! in flight on 4 workers — then resume and demand that *every*
//! artifact is
//! byte-identical to an uninterrupted same-seed run: the dataset JSON,
//! the deterministic telemetry manifest, the WAL segment files
//! themselves, the store manifest, and the final checkpoint.

use acctrade::core::study::{Study, StudyConfig, StudyReport};
use acctrade::store::StoreError;
use acctrade::telemetry;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const SEED: u64 = 20240615;

fn config() -> StudyConfig {
    StudyConfig { seed: SEED, scale: 0.01, iterations: 4, scam: Default::default() }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acctrade-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything that must be byte-identical between an uninterrupted run
/// and an interrupted-then-resumed run.
struct Artifacts {
    dataset_json: String,
    manifest: String,
    segments: Vec<(String, Vec<u8>)>,
    store_manifest: String,
    checkpoint: String,
}

fn collect_artifacts(report: &StudyReport, dir: &Path) -> Artifacts {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    names.sort();
    let segments = names
        .into_iter()
        .map(|n| {
            let bytes = std::fs::read(dir.join(&n)).unwrap();
            (n, bytes)
        })
        .collect();
    Artifacts {
        dataset_json: report.dataset.to_json(),
        manifest: report.telemetry.deterministic_string(),
        segments,
        store_manifest: std::fs::read_to_string(dir.join("store_manifest.json")).unwrap(),
        checkpoint: std::fs::read_to_string(dir.join("checkpoint.json")).unwrap(),
    }
}

/// The uninterrupted same-seed run, shared across tests.
fn baseline() -> &'static Artifacts {
    static BASELINE: OnceLock<Artifacts> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = scratch("clean");
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        let report = Study::new(config()).run_persisted(&dir).unwrap();
        assert!(report.recovery.is_none(), "clean run performs no recovery");
        let artifacts = collect_artifacts(&report, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        artifacts
    })
}

fn assert_identical(resumed: &Artifacts) {
    let clean = baseline();
    assert_eq!(
        resumed.dataset_json.as_bytes(),
        clean.dataset_json.as_bytes(),
        "dataset JSON must be byte-identical"
    );
    assert_eq!(
        resumed.manifest.as_bytes(),
        clean.manifest.as_bytes(),
        "deterministic telemetry manifest must be byte-identical"
    );
    assert_eq!(
        resumed.segments.len(),
        clean.segments.len(),
        "same number of WAL segments"
    );
    for ((rn, rb), (cn, cb)) in resumed.segments.iter().zip(&clean.segments) {
        assert_eq!(rn, cn, "segment file names must match");
        assert_eq!(rb, cb, "segment {rn} must be byte-identical");
    }
    assert_eq!(resumed.store_manifest, clean.store_manifest, "store manifest");
    assert_eq!(resumed.checkpoint, clean.checkpoint, "final checkpoint");
}

/// Run the study with a crash injected after `kill_after` iterations.
fn killed_run(dir: &Path, kill_after: usize) {
    let rec = telemetry::Recorder::new();
    let _scope = rec.enter();
    let outcome = Study::new(config()).run_persisted_with_kill(dir, kill_after).unwrap();
    assert!(outcome.is_none(), "kill must fire before the campaign completes");
}

/// Resume under a fresh ambient recorder; return the report plus the
/// ambient recorder (which collected the recovery counters).
fn resume(dir: &Path) -> (StudyReport, telemetry::Recorder) {
    let ambient = telemetry::Recorder::new();
    let report = {
        let _scope = ambient.enter();
        Study::resume_from_with_workers(config(), dir, 1).unwrap()
    };
    (report, ambient)
}

fn last_segment(dir: &Path) -> PathBuf {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    names.sort();
    dir.join(names.last().expect("killed run left segments"))
}

/// Kill point 1: a clean iteration boundary — WAL synced, checkpoint
/// durable, process gone.
#[test]
fn kill_at_iteration_boundary_resumes_byte_identical() {
    let dir = scratch("boundary");
    killed_run(&dir, 2);

    // A mismatched seed is refused before any simulation is rebuilt.
    let mut wrong = config();
    wrong.seed ^= 1;
    match Study::resume_from_with_workers(wrong, &dir, 1) {
        Err(StoreError::Invalid(msg)) => assert!(msg.contains("seed"), "got {msg:?}"),
        other => panic!("expected Invalid seed mismatch, got {:?}", other.map(|_| "report")),
    }

    let (report, _ambient) = resume(&dir);
    let recovery = report.recovery.expect("resumed run reports recovery");
    assert_eq!(recovery.torn_tails_truncated, 0);
    assert_eq!(recovery.uncommitted_records_dropped, 0);
    assert!(recovery.records_replayed > 0);
    assert_identical(&collect_artifacts(&report, &dir));

    // The finished store is marked complete and refuses a second resume.
    match Study::resume_from_with_workers(config(), &dir, 1) {
        Err(StoreError::Invalid(msg)) => assert!(msg.contains("complete"), "got {msg:?}"),
        other => panic!("expected Invalid complete, got {:?}", other.map(|_| "report")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The config-digest guard: a config that differs from the store's only
/// in `iterations` (same seed) is a different study, and resuming under
/// it is refused before any simulation is rebuilt.
#[test]
fn resume_under_a_different_config_is_refused() {
    let dir = scratch("digest");
    killed_run(&dir, 2);

    let mut other = config();
    other.iterations += 1;
    match Study::resume_from_with_workers(other, &dir, 1) {
        Err(StoreError::Invalid(msg)) => {
            assert!(msg.contains("config digest"), "got {msg:?}")
        }
        other => panic!("expected Invalid config digest, got {:?}", other.map(|_| "report")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill point 2: mid-segment — the process died while writing a frame,
/// leaving a torn partial frame at the tail of the last segment.
#[test]
fn kill_mid_segment_truncates_torn_tail_and_resumes_byte_identical() {
    let dir = scratch("midseg");
    killed_run(&dir, 2);

    // A torn half-frame at the tail of the last segment.
    let seg = last_segment(&dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x5A, 0x01, 0x02]);
    std::fs::write(&seg, bytes).unwrap();

    let (report, ambient) = resume(&dir);
    let recovery = report.recovery.expect("resumed run reports recovery");
    assert_eq!(recovery.torn_tails_truncated, 1, "the torn tail was truncated");
    assert_eq!(recovery.uncommitted_records_dropped, 0);

    // Recovery telemetry surfaces on the ambient recorder — deliberately
    // not inside the restored study recorder.
    assert_eq!(ambient.counter("store.torn_tails_truncated", &[]), 1);
    assert!(ambient.counter("store.records_replayed", &[]) > 0);

    assert_identical(&collect_artifacts(&report, &dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill point 3: between the WAL fsync and the checkpoint replace — the
/// WAL holds whole records the checkpoint never committed, and a stale
/// `checkpoint.json.tmp` from the aborted atomic replace is lying around.
#[test]
fn kill_before_checkpoint_fsync_rolls_back_uncommitted_records() {
    let dir = scratch("prefsync");
    killed_run(&dir, 2);

    // Whole, valid, CRC-clean frames beyond the committed count …
    let frame = acctrade::store::encode_frame(1, b"uncommitted offer the checkpoint never saw");
    let seg = last_segment(&dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&frame);
    std::fs::write(&seg, bytes).unwrap();
    // … and a torn scratch file from the interrupted checkpoint replace.
    std::fs::write(dir.join("checkpoint.json.tmp"), b"{ torn garba").unwrap();

    let (report, _ambient) = resume(&dir);
    let recovery = report.recovery.expect("resumed run reports recovery");
    assert_eq!(recovery.uncommitted_records_dropped, 1, "the unseen record was rolled back");
    assert_eq!(recovery.torn_tails_truncated, 0);
    assert_identical(&collect_artifacts(&report, &dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill point 4: inside the parallel crawl phase — the process dies on
/// a 4-worker run after 5 shard completions of iteration 2, with the
/// rest of the iteration's shards still in flight. The engine persists
/// nothing of a torn iteration (no WAL appends, no progress), so the
/// store still describes the iteration-1 boundary; resuming — at a
/// *different* worker count, even — replays from there and converges
/// on byte-identical artifacts.
#[test]
fn kill_mid_parallel_crawl_resumes_byte_identical() {
    let dir = scratch("shardkill");
    {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        let outcome = Study::new(config())
            .with_workers(4)
            .run_persisted_with_shard_kill(&dir, 2, 5)
            .unwrap();
        assert!(outcome.is_none(), "shard kill must fire before the campaign completes");
    }

    // The interrupted store's checkpoint is a clean iteration boundary
    // carrying the previous iteration's shard cursors — the torn
    // iteration left no trace.
    let cp = acctrade::crawler::CampaignCheckpoint::parse(
        &std::fs::read_to_string(dir.join("checkpoint.json")).unwrap(),
    )
    .unwrap();
    assert!(!cp.complete, "interrupted store is not complete");
    assert!(!cp.shard_cursors.is_empty(), "v2 checkpoint carries shard lane cursors");

    let (report, _ambient) = resume(&dir);
    let recovery = report.recovery.expect("resumed run reports recovery");
    assert_eq!(recovery.torn_tails_truncated, 0);
    assert_eq!(recovery.uncommitted_records_dropped, 0);
    assert!(recovery.records_replayed > 0);
    assert_identical(&collect_artifacts(&report, &dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption of *committed* data is not recoverable-by-truncation: the
/// checkpoint promised those records were durable, so resume must fail
/// loudly rather than silently resume a shrunken dataset.
#[test]
fn corrupt_committed_record_is_a_hard_error() {
    let dir = scratch("corrupt");
    killed_run(&dir, 2);

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    names.sort();
    let first = dir.join(&names[0]);
    let mut bytes = std::fs::read(&first).unwrap();
    bytes[20] ^= 0xFF; // flip one byte inside a committed record
    std::fs::write(&first, bytes).unwrap();

    match Study::resume_from_with_workers(config(), &dir, 1) {
        Err(StoreError::CommittedDataLost { committed, salvaged, .. }) => {
            assert!(salvaged < committed, "salvaged {salvaged} < committed {committed}");
        }
        other => panic!("expected CommittedDataLost, got {:?}", other.map(|_| "report")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
