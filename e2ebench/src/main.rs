//! End-to-end benchmark of the acctrade study pipeline.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload persist_resume --seed 44231 --seconds 55 --trace 0
//! ```
//!
//! One invocation runs one workload in this process for about `--seconds`
//! seconds, as a warm-up episode and then a series of measured episodes
//! (set-up, timed job, output check, each between two timings of a fixed
//! reference job that give the machine's speed). It prints a summary,
//! writes the raw samples to
//! `.bench_run/<workload>-seed<seed>-trace<t>.json`, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run adds one traced episode and the metrics are the
//! per-layer ones. See `e2ebench/README.md`.

mod catalogue;
mod layers;
mod probe;
mod stats;
mod workloads;

use catalogue::Metric;
use foundation::json::Json;
use layers::Layers;
use probe::{Fingerprint, Speed, NOMINAL_REFERENCE_S};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Episode, Runner, Workload, DEFAULT_SEED};

/// Version of the samples file's layout.
const SCHEMA: &str = "acctrade-e2ebench/v1";

/// Where the run writes its samples file and scratch stores, relative to
/// the working directory.
const OUT_DIR: &str = ".bench_run";

const USAGE: &str = "usage: e2ebench --workload <persist_resume|crawl_loopback> \
                     [--seed N] [--seconds N] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 55, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.parse(),
            }
            .map_err(|_| format!("{flag} takes a number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = run_pinned(&args) {
        return code;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// crawl_loopback's client and server threads hand every request back and
/// forth. On a virtual machine, waking a thread on the other CPU can stall
/// when the host is busy: unpinned, the run-to-run spread of its `wall_s`
/// reached 25% while `cpu_s` stayed within 11%. So that workload re-runs
/// itself under `taskset` on one CPU and this returns the re-run's exit
/// code. `None` means run here: another workload, already pinned, or no
/// `taskset` to run. The fingerprint's `pinned` tells the cases apart.
fn run_pinned(args: &Args) -> Option<ExitCode> {
    if args.workload != Workload::CrawlLoopback || probe::pinned_cpu().is_some() {
        return None;
    }
    let cpu = probe::cpus_allowed()?.split([',', '-']).next()?.to_string();
    let status = std::process::Command::new("taskset")
        .args(["-c", &cpu])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(probe::PINNED_ENV, &cpu)
        .status();
    let Ok(status) = status else {
        eprintln!("e2ebench: taskset did not run; crawl_loopback runs unpinned (pinned=no)");
        return None;
    };
    Some(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    })
}

/// Everything one invocation measured.
struct Measured {
    /// Checked and counted, but in no metric.
    warmup: Episode,
    episodes: Vec<Episode>,
    traced: Option<(Episode, Layers)>,
}

/// The per-episode samples of an end-to-end metric, by name. Times are in
/// seconds at the nominal machine speed, given the run's [`Speed`].
fn end_to_end_series(name: &str) -> Option<fn(&Episode, &Speed) -> f64> {
    Some(match name {
        "wall_s" => |e, speed| speed.nominal(e.wall_s),
        "setup_s" => |e, speed| speed.nominal(e.setup_s),
        "cpu_s" => |e, speed| speed.nominal(e.cpu_s),
        "peak_rss_mb" => |e, _| e.peak_rss_mb,
        _ => return None,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let catalogue = catalogue::get()?;
    if let Some(m) = catalogue
        .end_to_end
        .iter()
        .find(|m| end_to_end_series(&m.name).is_none())
    {
        return Err(format!("no measurement for end-to-end metric {}", m.name));
    }
    let fingerprint = Fingerprint::capture();
    let scratch = PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id()));
    let mut runner = Runner::new(args.workload, args.seed, scratch);
    let measured = measure(&mut runner, args);
    runner.cleanup();
    let measured = measured?;

    let mut out = String::new();
    let result = report(args, &fingerprint, &measured, &mut out);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let samples_path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &samples_path,
        samples_json(args, &fingerprint, &measured, &result).render(),
    )
    .map_err(|e| format!("write {}: {e}", samples_path.display()))?;
    let _ = writeln!(out, "samples written to {}", samples_path.display());

    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{out}{}", result.render())
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())
}

/// A warm-up episode, then measured episodes while the next one is
/// expected to end within `--seconds`, then (when traced) one more
/// episode with per-layer collection.
///
/// The warm-up fills the allocator and caches, and on crawl_loopback
/// computes the sim reference. The loop stops before an episode that would
/// overrun the budget, so that a run's length does not depend on how long
/// its last episode takes.
fn measure(runner: &mut Runner, args: &Args) -> Result<Measured, String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let warmup = runner.episode(None)?;
    let (mut episodes, mut lengths) = (Vec::new(), Vec::new());
    let typical = |lengths: &[f64]| Duration::from_secs_f64(stats::median(lengths).unwrap_or(0.0));
    while episodes.is_empty() || started.elapsed() + typical(&lengths) <= budget {
        let begun = Instant::now();
        episodes.push(runner.episode(None)?);
        lengths.push(begun.elapsed().as_secs_f64());
    }
    let traced = match args.trace {
        true => {
            let mut layers = Layers::default();
            let episode = runner.episode(Some(&mut layers))?;
            Some((episode, layers))
        }
        false => None,
    };
    Ok(Measured {
        warmup,
        episodes,
        traced,
    })
}

/// A JSON number; a non-finite value (a ratio over no work) reads 0.
fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn samples(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| num(v)).collect())
}

/// Write the human summary into `out` and return the result object.
///
/// # Panics
/// On an end-to-end metric without a measurement; [`run`] checks first.
fn report(args: &Args, fp: &Fingerprint, m: &Measured, out: &mut String) -> Json {
    let catalogue = catalogue::get().expect("run() loaded the catalogue");
    let all = || {
        std::iter::once(&m.warmup)
            .chain(&m.episodes)
            .chain(m.traced.as_ref().map(|(e, _)| e))
    };
    let attempted: u64 = all().map(|e| e.attempted).sum();
    let failed: u64 = all().map(|e| e.failed).sum();
    let _ = writeln!(
        out,
        "e2ebench {SCHEMA}: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        out,
        "fingerprint: nproc={} cpus_allowed={} pinned={} rustc=\"{}\" profile={} commit={} loadavg=\"{}\"",
        fp.nproc, fp.cpus_allowed, fp.pinned, fp.rustc, fp.profile, fp.commit, fp.loadavg
    );
    let _ = writeln!(
        out,
        "episodes={} after 1 warm-up, digest={}",
        m.episodes.len(),
        m.warmup.digest
    );
    for (i, e) in all().enumerate() {
        for failure in &e.failures {
            let _ = writeln!(out, "episode {i} FAILED: {failure}");
        }
    }

    let series = |f: &dyn Fn(&Episode) -> Option<f64>| -> Vec<f64> {
        m.episodes.iter().filter_map(f).collect()
    };
    let references: Vec<f64> = m.episodes.iter().flat_map(|e| e.reference_s).collect();
    let speed = Speed::of(&references).expect("measure() runs at least one episode");
    let end_to_end: Vec<(&Metric, Vec<f64>)> = catalogue
        .end_to_end
        .iter()
        .map(|metric| {
            let f = end_to_end_series(&metric.name).expect("run() checked every metric");
            (metric, m.episodes.iter().map(|e| f(e, &speed)).collect())
        })
        .collect();
    let _ = writeln!(
        out,
        "tail = highest percentile with >={} samples beyond it (- below {} samples)",
        stats::MIN_BEYOND,
        2 * stats::MIN_BEYOND
    );
    let _ = writeln!(
        out,
        "{:<36} {:<6} {:>14}  {:<28} {:>6}",
        "metric", "unit", "median", "tail", "n"
    );
    for (metric, samples) in &end_to_end {
        row(out, &metric.name, &metric.unit, samples);
    }
    row(
        out,
        "resume_s",
        "s",
        &series(&|e| e.resume_s.map(|r| speed.nominal(r))),
    );
    let _ = writeln!(
        out,
        "times above are at the nominal speed: raw x {NOMINAL_REFERENCE_S} s / the run's median reference job time"
    );
    row(out, "raw.reference_s", "s", &references);
    row(out, "raw.wall_s", "s", &series(&|e| Some(e.wall_s)));
    row(out, "raw.setup_s", "s", &series(&|e| Some(e.setup_s)));
    row(out, "raw.cpu_s", "s", &series(&|e| Some(e.cpu_s)));
    let _ = writeln!(
        out,
        "{:<36} {:<6} {:>14.6}  ({failed} failed of {attempted} attempted)",
        "error_rate",
        "ratio",
        failed as f64 / attempted as f64
    );

    let metrics: Vec<(&Metric, f64)> = match &m.traced {
        None => end_to_end
            .iter()
            .map(|(metric, samples)| (*metric, stats::median(samples).unwrap_or(0.0)))
            .collect(),
        Some((episode, layers)) => {
            let untraced = stats::median(&series(&|e| Some(speed.nominal(e.wall_s))));
            let untraced = untraced.unwrap_or(0.0);
            let traced = speed.nominal(episode.wall_s);
            let overhead = traced - untraced;
            let _ = writeln!(
                out,
                "tracing overhead: traced wall_s {traced:.6} - untraced median {untraced:.6} = {overhead:.6} s ({:.2}%)",
                100.0 * overhead / untraced
            );
            for metric in &catalogue.per_layer {
                let (name, unit) = (&metric.name, &metric.unit);
                match layers.samples().get(name.as_str()) {
                    Some(samples) => row(out, name, unit, samples),
                    None => row(out, name, unit, &[layers.get(name)]),
                }
            }
            catalogue
                .per_layer
                .iter()
                .map(|metric| (metric, layers.get(&metric.name)))
                .collect()
        }
    };
    let metrics = metrics
        .iter()
        .map(|(metric, value)| {
            let entry = obj(vec![
                ("value", num(*value)),
                ("unit", Json::Str(metric.unit.clone())),
            ]);
            (metric.name.clone(), entry)
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One summary line: median, tail and sample count.
fn row(out: &mut String, name: &str, unit: &str, samples: &[f64]) {
    let (median, tail, n) = match stats::summarize(samples) {
        Some(s) => (format!("{:.6}", s.median), stats::render_tail(&s), s.n),
        None => ("n/a".to_string(), "-".to_string(), 0),
    };
    let _ = writeln!(out, "{name:<36} {unit:<6} {median:>14}  {tail:<28} {n:>6}");
}

fn episode_json(e: &Episode) -> Json {
    obj(vec![
        ("setup_s", num(e.setup_s)),
        ("reference_s", samples(&e.reference_s)),
        ("wall_s", num(e.wall_s)),
        ("cpu_s", num(e.cpu_s)),
        ("peak_rss_mb", num(e.peak_rss_mb)),
        ("resume_s", e.resume_s.map_or(Json::Null, num)),
        ("attempted", num(e.attempted as f64)),
        ("failed", num(e.failed as f64)),
        ("digest", Json::Str(e.digest.clone())),
        (
            "failures",
            Json::Arr(e.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// The samples file: fingerprint, every episode, every per-layer value and
/// the raw per-call samples behind them, and the result.
fn samples_json(args: &Args, fp: &Fingerprint, m: &Measured, result: &Json) -> Json {
    let (traced, per_layer, per_layer_samples) = match &m.traced {
        None => (Json::Null, Vec::new(), Vec::new()),
        Some((episode, layers)) => (
            episode_json(episode),
            catalogue::get()
                .expect("run() loaded the catalogue")
                .per_layer
                .iter()
                .map(|metric| (metric.name.clone(), num(layers.get(&metric.name))))
                .collect(),
            layers
                .samples()
                .iter()
                .map(|(name, values)| (name.to_string(), samples(values)))
                .collect(),
        ),
    };
    obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("fingerprint", fp.to_json()),
        ("warmup_episode", episode_json(&m.warmup)),
        (
            "episodes",
            Json::Arr(m.episodes.iter().map(episode_json).collect()),
        ),
        ("traced_episode", traced),
        ("per_layer", Json::Obj(per_layer)),
        ("per_layer_samples", Json::Obj(per_layer_samples)),
        ("result", result.clone()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "crawl_loopback",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            parsed,
            Ok(Args {
                workload: Workload::CrawlLoopback,
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        let defaults = args(&["--workload", "persist_resume"]).expect("defaults");
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (0xACC7, 55, false)
        );
        assert_eq!(
            args(&["--workload", "persist_resume", "--seed", "0xACC7"]).map(|a| a.seed),
            Ok(44231)
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "study_sim"],
            &["--workload", "persist_resume", "--trace", "2"],
            &["--workload"],
            &["--bogus", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    fn episode(wall_s: f64, failed: u64) -> Episode {
        Episode {
            setup_s: 0.5,
            reference_s: [probe::NOMINAL_REFERENCE_S; 2],
            wall_s,
            cpu_s: wall_s,
            peak_rss_mb: 40.25,
            resume_s: None,
            attempted: 1,
            failed,
            digest: "0123456789abcdef".into(),
            failures: Vec::new(),
        }
    }

    /// Keys of a JSON object, in order.
    fn keys(v: Option<&Json>) -> Vec<String> {
        match v {
            Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let args = args(&["--workload", "persist_resume"]).expect("args");
        let fp = Fingerprint::capture();
        let mut measured = Measured {
            warmup: episode(9.0, 0),
            episodes: vec![episode(2.0, 0), episode(3.0, 1), episode(1.0, 0)],
            traced: None,
        };
        let line = report(&args, &fp, &measured, &mut String::new()).render();
        let result = Json::parse(&line).expect("result line parses");
        assert_eq!(
            keys(Some(&result)),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(result.get("attempted").and_then(Json::as_num), Some(4.0));
        assert_eq!(result.get("failed").and_then(Json::as_num), Some(1.0));
        let metrics = result.get("metrics");
        let catalogue = catalogue::get().expect("catalogue");
        let names: Vec<&str> = catalogue
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(keys(metrics), names);
        let wall = metrics.and_then(|m| m.get("wall_s"));
        assert_eq!(
            wall.and_then(|w| w.get("value")).and_then(Json::as_num),
            Some(2.0)
        );
        assert_eq!(
            wall.and_then(|w| w.get("unit")).and_then(Json::as_str),
            Some("s")
        );

        measured.traced = Some((episode(2.5, 0), Layers::default()));
        let line = report(&args, &fp, &measured, &mut String::new()).render();
        let result = Json::parse(&line).expect("traced result line parses");
        let names: Vec<&str> = catalogue
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(keys(result.get("metrics")), names);
    }
}
