//! Follow-mode reader properties: a `JtbFollower`/`JtsFollower` over
//! ANY byte prefix of a valid file never errors — a torn tail parks as
//! `Idle`, it never misreads partial bytes as corruption — and once
//! the remaining bytes land, the followed fold converges to exactly
//! the full-file decode. This is the contract that lets `jem query
//! --follow`, `jem timeline --follow`, `jem check --follow` and
//! `jem top` tail a run that is still being written.

use jem_energy::{Component, Energy, EnergyBreakdown, SimTime};
use jem_obs::timeline::N_SERIES;
use jem_obs::wire::{jtb_bytes, load_jtb_bytes, FollowStatus, JtbStream};
use jem_obs::{
    scratch_path, JtsReader, Timeline, TimelineSink, TraceEvent, TraceEventKind, TraceShard,
};
use proptest::prelude::*;
use std::io::Write as _;

fn ev(seq: u64, invocation: u64, ordinal: u64, at: f64, kind: TraceEventKind) -> TraceEvent {
    let mut delta = EnergyBreakdown::new();
    delta.charge(Component::Core, Energy::from_nanojoules(5.0));
    delta.charge(Component::Dram, Energy::from_nanojoules(1.0));
    TraceEvent {
        seq,
        invocation,
        ordinal,
        at: SimTime::from_nanos(at),
        delta,
        kind,
    }
}

/// A deterministic synthetic run: `n` invocations of start/end pairs
/// with strictly increasing sim-time (seeded so streams differ).
fn make_events(n: u64, seed: u64) -> Vec<TraceEvent> {
    let mut events = Vec::with_capacity(2 * n as usize);
    for i in 0..n {
        let t0 = 1.0e6 * i as f64 + (seed % 7) as f64 * 1e3;
        events.push(ev(
            2 * i,
            i + 1,
            0,
            t0,
            TraceEventKind::InvocationStart {
                strategy: "ics".into(),
                method: format!("m{}", (i + seed) % 3),
                size: 64 + (i % 5) as u32,
                true_class: "good".into(),
                chosen_class: "good".into(),
            },
        ));
        events.push(ev(
            2 * i + 1,
            i + 1,
            1,
            t0 + 0.4e6,
            TraceEventKind::InvocationEnd {
                mode: if (i + seed).is_multiple_of(2) {
                    "interpret".into()
                } else {
                    "remote".into()
                },
                energy: Energy::from_nanojoules(6.0),
                time: SimTime::from_nanos(0.4e6),
                instructions: 1000 + i,
            },
        ));
    }
    events
}

/// Drive a `JtbFollower` until it parks or finishes, collecting
/// everything it emits. Panics (failing the property) on any error —
/// prefixes of valid files must never read as corruption.
fn drain_jtb(follower: &mut jem_obs::JtbFollower, out: &mut Vec<(usize, TraceEvent)>) -> bool {
    loop {
        match follower
            .poll()
            .expect("prefix of a valid file never errors")
        {
            FollowStatus::Events(evs) => out.extend(evs),
            FollowStatus::Idle => return false,
            FollowStatus::End => return true,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Every byte prefix of a valid `.jtb` parks cleanly, yields only
    /// a prefix of the true event sequence, and after the remaining
    /// bytes land the follower converges to the exact full decode.
    #[test]
    fn jtb_follower_prefix_converges(
        n in 1u64..30,
        seed in 0u64..1000,
        cut_frac in 0.0f64..=1.0,
    ) {
        let shards = vec![TraceShard::new("run", make_events(n, seed))];
        let full = jtb_bytes(&shards);
        let expected = load_jtb_bytes(&full).expect("full file decodes");
        let expected: Vec<(usize, TraceEvent)> = expected
            .shards
            .iter()
            .enumerate()
            .flat_map(|(si, s)| s.events.iter().cloned().map(move |e| (si, e)))
            .collect();

        let cut = ((full.len() as f64) * cut_frac) as usize;
        let path = scratch_path(&format!("prefix-{n}-{seed}-{cut}.jtb"));
        std::fs::write(&path, &full[..cut]).unwrap();

        let mut follower = JtbStream::follow(&path).expect("open");
        let mut seen = Vec::new();
        let done = drain_jtb(&mut follower, &mut seen);
        // The prefix may or may not contain the footer (cut == len).
        prop_assert_eq!(done, cut == full.len());
        prop_assert!(seen.len() <= expected.len());
        prop_assert_eq!(&seen[..], &expected[..seen.len()]);

        // Land the rest of the file; the follower must finish and the
        // fold must equal the full decode exactly.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&full[cut..]).unwrap();
        }
        let done = drain_jtb(&mut follower, &mut seen);
        prop_assert!(done);
        prop_assert_eq!(&seen[..], &expected[..]);
        prop_assert_eq!(follower.dropped(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// Same property delivered in arbitrary chunkings: however the
    /// bytes arrive, the follower emits the identical event sequence.
    #[test]
    fn jtb_follower_chunked_delivery_is_exact(
        n in 1u64..20,
        seed in 0u64..1000,
        chunk in 1usize..97,
    ) {
        let shards = vec![TraceShard::new("run", make_events(n, seed))];
        let full = jtb_bytes(&shards);
        let expected = load_jtb_bytes(&full).expect("full file decodes");
        let expected: Vec<(usize, TraceEvent)> = expected
            .shards
            .iter()
            .enumerate()
            .flat_map(|(si, s)| s.events.iter().cloned().map(move |e| (si, e)))
            .collect();

        let path = scratch_path(&format!("chunk-{n}-{seed}-{chunk}.jtb"));
        std::fs::write(&path, [] as [u8; 0]).unwrap();
        let mut follower = JtbStream::follow(&path).expect("open");
        let mut seen = Vec::new();
        let mut done = false;
        for part in full.chunks(chunk) {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(part).unwrap();
            drop(f);
            done = drain_jtb(&mut follower, &mut seen);
            // Mid-file the collected events are always a true prefix.
            prop_assert!(seen.len() <= expected.len());
            prop_assert_eq!(&seen[..], &expected[..seen.len()]);
        }
        prop_assert!(done);
        prop_assert_eq!(&seen[..], &expected[..]);
        std::fs::remove_file(&path).ok();
    }

    /// `.jts` followers: every prefix parks cleanly and converges to
    /// the exact sample set `Timeline::read` produces from the full
    /// file — same times, same values, bit-for-bit.
    #[test]
    fn jts_follower_prefix_converges(
        n in 1u64..30,
        seed in 0u64..1000,
        cut_frac in 0.0f64..=1.0,
    ) {
        let events = make_events(n, seed);
        let path = scratch_path(&format!("tl-{n}-{seed}.jts"));
        let mut sink = TimelineSink::create(&path, 1e6).expect("create");
        for e in &events {
            sink.observe(e, None);
        }
        sink.finish().expect("finish");
        let full = std::fs::read(&path).unwrap();
        let tl = Timeline::read(&full).expect("full file decodes");
        let expected: Vec<(usize, f64, [f64; N_SERIES])> = tl
            .segments
            .iter()
            .enumerate()
            .flat_map(|(si, seg)| {
                seg.times.iter().enumerate().map(move |(row, t)| {
                    let mut vals = [0.0; N_SERIES];
                    for (s, col) in seg.cols.iter().enumerate() {
                        vals[s] = col[row];
                    }
                    (si, *t, vals)
                })
            })
            .collect();

        let cut = ((full.len() as f64) * cut_frac) as usize;
        let follow_path = scratch_path(&format!("tl-{n}-{seed}-{cut}.follow.jts"));
        std::fs::write(&follow_path, &full[..cut]).unwrap();
        let mut follower = JtsReader::follow(&follow_path).expect("open");
        let mut seen: Vec<(usize, f64, [f64; N_SERIES])> = Vec::new();
        let mut finished = false;
        loop {
            match follower.poll().expect("prefix of a valid file never errors") {
                FollowStatus::Events(samples) => {
                    seen.extend(samples.into_iter().map(|s| (s.segment, s.t, s.vals)));
                }
                FollowStatus::Idle => break,
                FollowStatus::End => {
                    finished = true;
                    break;
                }
            }
        }
        prop_assert_eq!(finished, cut == full.len());
        prop_assert!(seen.len() <= expected.len());
        prop_assert_eq!(&seen[..], &expected[..seen.len()]);

        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&follow_path)
                .unwrap();
            f.write_all(&full[cut..]).unwrap();
        }
        loop {
            match follower.poll().expect("completed file never errors") {
                FollowStatus::Events(samples) => {
                    seen.extend(samples.into_iter().map(|s| (s.segment, s.t, s.vals)));
                }
                FollowStatus::Idle => prop_assert!(false, "complete file must End, not Idle"),
                FollowStatus::End => break,
            }
        }
        prop_assert_eq!(&seen[..], &expected[..]);
        prop_assert_eq!(follower.samples(), expected.len() as u64);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&follow_path).ok();
    }
}
