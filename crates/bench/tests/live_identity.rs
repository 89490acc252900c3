//! Following is a pure observer: a run whose `.jtb` and `.jts` a reader
//! tails while they are written produces byte-identical files to an
//! unfollowed run with the same `--flush-every` cadence, and the
//! followed events and samples are exactly the finished files' decode.
//! Also checks the `--flush-every` cadence: it may cut stream blocks
//! early (different bytes) but must decode to exactly the same events
//! and samples.

use std::time::{Duration, Instant};

use jem_apps::workload_by_name;
use jem_bench::obs::ObsArgs;
use jem_core::{run_scenario_traced, Profile, ResilienceConfig, Strategy};
use jem_obs::timeline::N_SERIES;
use jem_obs::wire::{load_jtb_bytes, FollowStatus, JtbStream};
use jem_obs::{scratch_path, JtsReader, JtsSample, Timeline, TraceEvent};
use jem_sim::{Scenario, Situation};

fn obs_args(jtb: &str, jts: &str) -> ObsArgs {
    ObsArgs {
        trace: Some(jtb.to_string()),
        monitor: true,
        health_out: None,
        metrics_out: None,
        json_out: None,
        timeline: Some(jts.to_string()),
        sample_every_ms: 1.0,
        flush_every_ms: None,
        archive: None,
    }
}

/// What a reader tailing both files of a run saw.
#[derive(Default)]
struct Followed {
    events: Vec<(usize, TraceEvent)>,
    samples: Vec<JtsSample>,
}

/// Tail the growing `jtb` and `jts` until both footers land.
fn tail(jtb: &str, jts: &str, out: &mut Followed) {
    let mut trace = JtbStream::follow(jtb).expect("the sink created the trace");
    let mut timeline = JtsReader::follow(jts).expect("the sink created the timeline");
    let (mut trace_done, mut timeline_done) = (false, false);
    let deadline = Instant::now() + Duration::from_secs(300);
    while !(trace_done && timeline_done) {
        assert!(Instant::now() < deadline, "the footers never landed");
        if !trace_done {
            match trace.poll().expect("a growing trace is never corrupt") {
                FollowStatus::Events(events) => out.events.extend(events),
                FollowStatus::Idle => {}
                FollowStatus::End => trace_done = true,
            }
        }
        if !timeline_done {
            match timeline
                .poll()
                .expect("a growing timeline is never corrupt")
            {
                FollowStatus::Events(samples) => out.samples.extend(samples),
                FollowStatus::Idle => {}
                FollowStatus::End => timeline_done = true,
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run the faulty fe scenario through a full BenchSink stack and
/// return the resulting (`.jtb`, `.jts`) bytes. With `follow`, a
/// reader thread tails both files while the run writes them.
fn run_stack(
    tag: &str,
    follow: Option<&mut Followed>,
    flush_every_ms: Option<f64>,
) -> (Vec<u8>, Vec<u8>) {
    let jtb = scratch_path(&format!("{tag}.jtb"));
    let jts = scratch_path(&format!("{tag}.jts"));
    let mut obs = obs_args(&jtb, &jts);
    obs.flush_every_ms = flush_every_ms;

    let w = workload_by_name("fe").expect("known workload");
    let profile = Profile::build(w.as_ref(), 42);
    let scenario =
        Scenario::paper_degraded(Situation::GoodDominant, &w.sizes(), 1234, 0.6).with_runs(40);
    let mut sink = obs.trace_sink(None).expect("sink configured");
    std::thread::scope(|scope| {
        // The sink has created both files; the reader opens them now.
        let (jtb, jts) = (&jtb, &jts);
        let reader = follow.map(|out| scope.spawn(move || tail(jtb, jts, out)));
        run_scenario_traced(
            w.as_ref(),
            &profile,
            &scenario,
            Strategy::AdaptiveAdaptive,
            &ResilienceConfig::default(),
            &mut sink,
        )
        .expect("scenario run failed");
        obs.finish_trace(Some(sink));
        if let Some(reader) = reader {
            reader.join().expect("reader thread");
        }
    });

    let jtb_bytes = std::fs::read(&jtb).unwrap();
    let jts_bytes = std::fs::read(&jts).unwrap();
    std::fs::remove_file(&jtb).ok();
    std::fs::remove_file(&jts).ok();
    (jtb_bytes, jts_bytes)
}

#[test]
fn following_a_flushed_run_is_bit_identical() {
    let (bare_jtb, bare_jts) = run_stack("unfollowed", None, Some(2.0));
    let mut followed = Followed::default();
    let (jtb, jts) = run_stack("followed", Some(&mut followed), Some(2.0));

    assert_eq!(
        bare_jtb, jtb,
        ".jtb must be byte-identical under a follower"
    );
    assert_eq!(
        bare_jts, jts,
        ".jts must be byte-identical under a follower"
    );

    let trace = load_jtb_bytes(&jtb).expect("decode");
    let events: Vec<(usize, TraceEvent)> = trace
        .shards
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.events.iter().cloned().map(move |e| (si, e)))
        .collect();
    assert!(!events.is_empty());
    assert_eq!(followed.events, events, "followed events = the decode");

    let tl = Timeline::read(&jts).expect("decode");
    let samples: Vec<(usize, f64, [f64; N_SERIES])> = tl
        .segments
        .iter()
        .enumerate()
        .flat_map(|(si, seg)| {
            seg.times.iter().enumerate().map(move |(row, t)| {
                let mut vals = [0.0; N_SERIES];
                for (v, col) in vals.iter_mut().zip(&seg.cols) {
                    *v = col[row];
                }
                (si, *t, vals)
            })
        })
        .collect();
    let seen: Vec<(usize, f64, [f64; N_SERIES])> = followed
        .samples
        .iter()
        .map(|s| (s.segment, s.t, s.vals))
        .collect();
    assert_eq!(seen, samples, "followed samples = the decode");
}

#[test]
fn flush_every_changes_framing_but_not_content() {
    let (base_jtb, base_jts) = run_stack("noflush", None, None);
    let (flush_jtb, flush_jts) = run_stack("flush", None, Some(2.0));

    let base = load_jtb_bytes(&base_jtb).expect("decode");
    let flush = load_jtb_bytes(&flush_jtb).expect("decode");
    assert_eq!(base.shards.len(), flush.shards.len());
    for (a, b) in base.shards.iter().zip(flush.shards.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.events, b.events, "flush cadence must not alter events");
    }
    assert_eq!(base.dropped, flush.dropped);

    let base_tl = Timeline::read(&base_jts).expect("decode");
    let flush_tl = Timeline::read(&flush_jts).expect("decode");
    assert_eq!(base_tl.samples(), flush_tl.samples());
    let flat = |tl: &Timeline| -> Vec<(f64, Vec<f64>)> {
        tl.segments
            .iter()
            .flat_map(|seg| {
                seg.times
                    .iter()
                    .enumerate()
                    .map(|(row, t)| (*t, seg.cols.iter().map(|c| c[row]).collect::<Vec<f64>>()))
            })
            .collect()
    };
    assert_eq!(
        flat(&base_tl),
        flat(&flush_tl),
        "flush cadence must not alter sample values"
    );
}
