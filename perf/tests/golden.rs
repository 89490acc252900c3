//! The output oracles: golden digests and the committed faults
//! baseline.

use jem_perf::bench::{Kind, Probe, Runner};
use jem_perf::check::{faults_oracle, golden, golden_mismatches, parse_golden, render_golden};

#[test]
fn golden_check_flags_a_perturbed_digest() {
    let golden = golden();
    assert_eq!(parse_golden(&render_golden(&golden)), Ok(golden.clone()));
    let blessed = golden.get(Kind::FaultsSweep.name());
    assert!(blessed.is_some(), "golden.json holds faults-sweep digests");

    let mut runner = Runner::new(Kind::FaultsSweep, 0, false).expect("set-up");
    runner.units.truncate(3);
    let oracle = faults_oracle();
    let mut outs = Vec::new();
    for i in 0..runner.units.len() {
        outs.push(runner.run_unit(i, false, Probe::None));
    }
    let mut digests = Vec::new();
    for (u, out) in runner.units.iter().zip(&outs) {
        let name = u.name.as_str();
        assert_eq!(
            oracle.get(name).copied(),
            out.totals,
            "{name} vs BENCH_faults.json"
        );
        digests.push((name, out.digest));
    }
    assert!(golden_mismatches(blessed, &digests).is_empty());

    let mut perturbed = digests.clone();
    perturbed[1].1 ^= 1 << 17;
    assert_eq!(golden_mismatches(blessed, &perturbed), vec![1]);
    perturbed[1].0 = "loss0.00/unknown";
    assert_eq!(golden_mismatches(blessed, &perturbed), vec![1]);
    assert_eq!(golden_mismatches(None, &digests), vec![0, 1, 2]);
}
