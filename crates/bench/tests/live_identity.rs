//! `--serve` is a pure observer: a run that publishes every event to a
//! live HTTP server being hammered by concurrent readers produces
//! byte-identical `.jtb` and `.jts` artifacts to a bare run of the
//! same seed. Also checks the `--flush-every` cadence: it may cut
//! stream blocks early (different bytes) but must decode to exactly
//! the same events and samples.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use jem_apps::workload_by_name;
use jem_bench::obs::ObsArgs;
use jem_core::{run_scenario_traced, Profile, ResilienceConfig, Strategy};
use jem_obs::wire::load_jtb_bytes;
use jem_obs::{scratch_path, LiveServer, LiveState, Timeline};
use jem_sim::{Scenario, Situation};

fn obs_args(jtb: &str, jts: &str, live: Option<Arc<LiveState>>) -> ObsArgs {
    ObsArgs {
        trace: Some(jtb.to_string()),
        monitor: true,
        health_out: None,
        metrics_out: None,
        json_out: None,
        timeline: Some(jts.to_string()),
        sample_every_ms: 1.0,
        serve: live.as_ref().map(|_| "test".to_string()),
        flush_every_ms: None,
        live,
        archive: None,
    }
}

/// Run the faulty fe scenario through a full BenchSink stack and
/// return the resulting (`.jtb`, `.jts`) bytes.
fn run_stack(
    tag: &str,
    live: Option<Arc<LiveState>>,
    flush_every_ms: Option<f64>,
) -> (Vec<u8>, Vec<u8>) {
    let jtb = scratch_path(&format!("{tag}.jtb"));
    let jts = scratch_path(&format!("{tag}.jts"));
    let mut obs = obs_args(&jtb, &jts, live);
    obs.flush_every_ms = flush_every_ms;

    let w = workload_by_name("fe").expect("known workload");
    let profile = Profile::build(w.as_ref(), 42);
    let scenario =
        Scenario::paper_degraded(Situation::GoodDominant, &w.sizes(), 1234, 0.6).with_runs(40);
    let mut sink = obs.trace_sink(None).expect("sink configured");
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

    let jtb_bytes = std::fs::read(&jtb).unwrap();
    let jts_bytes = std::fs::read(&jts).unwrap();
    std::fs::remove_file(&jtb).ok();
    std::fs::remove_file(&jts).ok();
    (jtb_bytes, jts_bytes)
}

fn http_get(addr: &str, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect live server");
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("http response");
    assert!(
        head.contains(" 200 "),
        "{path}: expected 200, got {}",
        head.lines().next().unwrap_or("")
    );
    body.to_string()
}

#[test]
fn serving_under_concurrent_readers_is_bit_identical() {
    let (bare_jtb, bare_jts) = run_stack("bare", None, None);

    let state = Arc::new(LiveState::new(1.0e6));
    let server = LiveServer::start("127.0.0.1:0", Arc::clone(&state)).expect("bind");
    let addr = server.addr().to_string();

    // Hammer the endpoints from another thread for the whole run, so
    // any shared-state mutation by a reader would corrupt the stream.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                http_get(&addr, "/metrics");
                http_get(&addr, "/health");
                http_get(&addr, "/series?name=energy.core.cum_nj");
                polls += 1;
            }
            polls
        })
    };

    let (live_jtb, live_jts) = run_stack("live", Some(Arc::clone(&state)), None);
    stop.store(true, Ordering::Relaxed);
    let polls = reader.join().unwrap();
    assert!(polls > 0, "reader thread must have exercised the server");

    assert_eq!(
        bare_jtb, live_jtb,
        ".jtb must be byte-identical under --serve"
    );
    assert_eq!(
        bare_jts, live_jts,
        ".jts must be byte-identical under --serve"
    );

    // After finish_trace the snapshot is marked complete and reflects
    // the whole run.
    let metrics = http_get(&addr, "/metrics");
    assert!(metrics.contains("jem_live_run_complete 1"));
    assert!(metrics.contains("jem_live_events_total"));
    let health = http_get(&addr, "/health");
    assert!(health.contains("\"schema\": \"jem-health/v1\""));
    let series = http_get(&addr, "/series?name=energy.core.cum_nj");
    assert!(series.contains("\"complete\": true"));
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
