//! Synthetic trace events shared by the `jem` CLI tests.

use jem_energy::{Component, Energy, EnergyBreakdown, SimTime};
use jem_obs::{TraceEvent, TraceEventKind};

/// `n` invocations of start/end pairs, one energy delta each.
pub fn events(n: u64) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for i in 0..n {
        let mut delta = EnergyBreakdown::new();
        delta.charge(Component::Core, Energy::from_nanojoules(5.0 + i as f64));
        for (ordinal, kind) in [
            TraceEventKind::InvocationStart {
                strategy: "AA".into(),
                method: "t::run".into(),
                size: 16,
                true_class: "C2".into(),
                chosen_class: "C2".into(),
            },
            TraceEventKind::InvocationEnd {
                mode: "interpret".into(),
                energy: Energy::from_nanojoules(5.0 + i as f64),
                time: SimTime::from_nanos(1e3),
                instructions: 100 * (i + 1),
            },
        ]
        .into_iter()
        .enumerate()
        {
            out.push(TraceEvent {
                seq: 2 * i + ordinal as u64,
                invocation: i + 1,
                ordinal: ordinal as u64,
                at: SimTime::from_nanos(1e3 * (2 * i + ordinal as u64) as f64),
                delta: if ordinal == 1 {
                    delta
                } else {
                    EnergyBreakdown::new()
                },
                kind,
            });
        }
    }
    out
}
