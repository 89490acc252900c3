//! Property tests for the energy substrate: cache accounting
//! invariants, machine-ledger consistency, and bit-exactness of the
//! batched charge replays against per-micro charging.

use jem_energy::{
    CacheConfig, CacheEpoch, CacheSim, CacheState, Component, Energy, EnergyTable, InstrClass,
    InstrMix, Machine, MachineConfig, MemOp, SeqDataRef, SeqPlan, SimTime,
};
use proptest::prelude::*;

/// Energy tables for the replay tests:
/// * 0 — the paper's Fig 1 values;
/// * 1 — dyadic values (3.0, 1.5, 0.5, … nJ): at a Core accumulator in
///   `[2^52, 2^53)` nJ the ulp is 1 nJ, so 0.5 nJ is a half-ulp tie;
/// * 2 — the same values scaled by 2^-10: the 0.5·2^-10 nJ entry is a
///   half-ulp tie for accumulators in `[2^42, 2^43)` nJ and rounds
///   away entirely above that;
/// * 3 — arbitrary non-dyadic values.
fn table(which: u8) -> EnergyTable {
    let nj = |v: [f64; 6], mem: f64| {
        EnergyTable::custom(v.map(Energy::from_nanojoules), Energy::from_nanojoules(mem))
    };
    match which {
        0 => EnergyTable::microsparc_iiep(),
        1 => nj([3.0, 1.5, 0.5, 2.0, 0.75, 0.25], 4.0),
        2 => nj(
            [3.0, 1.5, 0.5, 2.0, 0.75, 0.25].map(|v| v / 1024.0),
            4.0 / 1024.0,
        ),
        _ => nj([7.3, 0.013, 1.0 / 3.0, 2.2e-7, 5.5, 0.1], 9.7),
    }
}

/// A Core accumulator value across the binades 2^-10 … 2^45 nJ, plus
/// the edge cases the fold must refuse or handle at a binade's ends:
/// zero, subnormals, exact powers of two and values a few ulps below
/// one. For the dyadic tables, the tie binades `[2^42, 2^43)` and
/// `[2^52, 2^53)` and the few ulps below their tops, where a plan's
/// sum can land exactly on, or a few ulps past, the binade's end.
fn any_acc() -> impl Strategy<Value = f64> {
    (0u8..8, -10i64..=45, 0u64..1 << 52, 1u64..64).prop_map(|(kind, k, frac, j)| {
        let pow2 = |k: i64| f64::from_bits(((k + 1023) as u64) << 52);
        let tie = if k % 2 == 0 { 42 } else { 52 };
        match kind {
            0 => 0.0,
            1 => f64::from_bits(frac.max(1)),
            2 => pow2(k),
            3 => f64::from_bits(pow2(k).to_bits() - j),
            4 => f64::from_bits(pow2(tie + 1).to_bits() - j),
            5 => f64::from_bits(pow2(tie).to_bits() | frac),
            _ => f64::from_bits(pow2(k).to_bits() | frac),
        }
    })
}

fn any_class() -> impl Strategy<Value = InstrClass> {
    prop_oneof![
        Just(InstrClass::Load),
        Just(InstrClass::Store),
        Just(InstrClass::Branch),
        Just(InstrClass::AluSimple),
        Just(InstrClass::AluComplex),
        Just(InstrClass::Nop),
    ]
}

/// A mix of at most three nonzero classes.
fn any_mix() -> impl Strategy<Value = InstrMix> {
    prop::collection::vec((any_class(), 0u64..40), 0..=3).prop_map(|pairs| {
        pairs
            .into_iter()
            .fold(InstrMix::new(), |mix, (class, n)| mix.with(class, n))
    })
}

/// A dispatch plan's fetch pc, lead class and mixes.
type PlanSpec = (u64, InstrClass, Vec<InstrMix>);

fn any_plan() -> impl Strategy<Value = PlanSpec> {
    (
        0u64..1 << 16,
        any_class(),
        prop::collection::vec(any_mix(), 0..=3),
    )
}

/// A fresh client machine on `table` whose Core accumulator holds
/// `core` nJ, seeded through the checkpoint-restore path.
fn seeded(table: &EnergyTable, core: f64) -> Machine {
    let mut m = Machine::new(MachineConfig {
        table: table.clone(),
        ..MachineConfig::mobile_client()
    });
    let mut state = m.export_state();
    state.breakdown[Component::Core] = Energy::from_nanojoules(core);
    m.import_state(&state);
    m
}

/// Every component's energy bits agree, and so does the rest of the
/// machine state: cycles, mix, cache stats and residency.
fn assert_same(slow: &Machine, fast: &Machine) -> Result<(), TestCaseError> {
    for c in Component::ALL {
        prop_assert_eq!(
            slow.breakdown()[c].nanojoules().to_bits(),
            fast.breakdown()[c].nanojoules().to_bits(),
            "{} diverged",
            c.name()
        );
    }
    prop_assert_eq!(slow.export_state(), fast.export_state());
    Ok(())
}

/// Charge both machines the same unrelated instruction, so the caches
/// churn and the accumulators drift between replays.
fn churn(slow: &mut Machine, fast: &mut Machine, rep: u64) {
    let pc = rep.wrapping_mul(0x2_0a40);
    let op = MemOp::Read(rep.wrapping_mul(0x1_1e8));
    slow.step(pc, InstrClass::Load, op);
    fast.step(pc, InstrClass::Load, op);
}

/// The literal per-micro equivalent of one dispatch plan.
fn step_plan_slow(m: &mut Machine, (pc, lead, mixes): &PlanSpec) {
    m.step(*pc, *lead, MemOp::None);
    for mix in mixes {
        m.charge_mix(mix);
    }
}

/// Fetches are grouped at the interpreter's 4-byte fetch width, which
/// divides the client's 32-byte I-cache lines.
const GRANULE: u32 = 4;

fn compile_plan(table: &EnergyTable, (pc, lead, mixes): &PlanSpec) -> SeqPlan {
    SeqPlan::dispatch(table, GRANULE, *pc, *lead, mixes)
}

/// One event of an interpreter segment: a dispatch, or a heap touch
/// `(pc, class, store)` at an address supplied per replay.
#[derive(Debug, Clone)]
enum Event {
    Dispatch(PlanSpec),
    Heap(u64, InstrClass, bool),
}

fn any_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        any_plan().prop_map(Event::Dispatch),
        any_plan().prop_map(Event::Dispatch),
        (0u64..1 << 16, any_class(), any::<bool>())
            .prop_map(|(pc, class, store)| Event::Heap(pc, class, store)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Replaying a dispatch plan from any seeded accumulator ends on
    /// the same bits as the `step` + `charge_mix` sequence it compiles.
    #[test]
    fn dispatch_plan_replay_is_bit_exact(
        which in 0u8..4,
        acc in any_acc(),
        spec in any_plan(),
        reps in 1u64..40,
    ) {
        let table = table(which);
        let plan = compile_plan(&table, &spec);
        let (mut slow, mut fast) = (seeded(&table, acc), seeded(&table, acc));
        for rep in 0..reps {
            step_plan_slow(&mut slow, &spec);
            fast.step_seq(&plan, 0, 0, &[]);
            assert_same(&slow, &fast)?;
            if rep % 3 == 2 {
                churn(&mut slow, &mut fast, rep);
            }
        }
    }

    /// Replaying a concatenation of dispatch and heap-touch plans ends
    /// on the same bits as the per-event `step` + `charge_mix`
    /// sequences it concatenates, with one address per heap touch,
    /// some absent.
    #[test]
    fn concat_plan_replay_is_bit_exact(
        which in 0u8..4,
        acc in any_acc(),
        events in prop::collection::vec(any_event(), 1..=6),
        reps in 1u64..40,
    ) {
        let table = table(which);
        let plans: Vec<SeqPlan> = events
            .iter()
            .map(|e| match e {
                Event::Dispatch(spec) => compile_plan(&table, spec),
                &Event::Heap(pc, class, store) => SeqPlan::compile_at(
                    &table,
                    GRANULE,
                    &[(pc, class, SeqDataRef::Heap { store })],
                ),
            })
            .collect();
        let seq = SeqPlan::concat(&plans.iter().collect::<Vec<_>>());
        let (mut slow, mut fast) = (seeded(&table, acc), seeded(&table, acc));
        for rep in 0..reps {
            let mut heap_addrs = Vec::new();
            for (j, e) in events.iter().enumerate() {
                match e {
                    Event::Dispatch(spec) => step_plan_slow(&mut slow, spec),
                    &Event::Heap(pc, class, store) => {
                        let j = j as u64;
                        let addr = ((rep + j) % 4 != 3).then_some(0x8000 + rep * 24 + j * 40);
                        let op = match addr {
                            Some(a) if store => MemOp::Write(a),
                            Some(a) => MemOp::Read(a),
                            None => MemOp::None,
                        };
                        slow.step(pc, class, op);
                        heap_addrs.push(addr);
                    }
                }
            }
            fast.step_seq(&seq, 0, 0, &heap_addrs);
            assert_same(&slow, &fast)?;
            if rep % 3 == 2 {
                churn(&mut slow, &mut fast, rep);
            }
        }
    }

    /// Replaying a [`SeqPlan`] ends on the same bits as one `step` per
    /// micro at consecutive fetch addresses.
    #[test]
    fn seq_plan_replay_is_bit_exact(
        which in 0u8..4,
        acc in any_acc(),
        start in 0u64..64,
        micros in prop::collection::vec((any_class(), 0u8..4, 0u64..256), 0..60),
        reps in 1u64..20,
    ) {
        let table = table(which);
        let offs: Vec<u64> = micros.iter().map(|&(_, _, off)| off).collect();
        let micros: Vec<(InstrClass, SeqDataRef)> = micros
            .into_iter()
            .map(|(class, kind, off)| {
                let mem = match kind {
                    0 | 1 => SeqDataRef::None,
                    2 => SeqDataRef::Frame { store: off % 2 == 0, offset: off * 4 },
                    _ => SeqDataRef::Heap { store: off % 2 == 1 },
                };
                (class, mem)
            })
            .collect();
        let plan = SeqPlan::compile(&table, start * 4, 4, 32, &micros);
        let (code_base, frame_base) = (0x3000_0040u64, 0x5000_2000u64);
        let (mut slow, mut fast) = (seeded(&table, acc), seeded(&table, acc));
        for rep in 0..reps {
            // One address per heap micro, drawn from the micro's own
            // offset, some absent.
            let heap_addrs: Vec<Option<u64>> = micros
                .iter()
                .zip(&offs)
                .filter(|((_, mem), _)| matches!(mem, SeqDataRef::Heap { .. }))
                .map(|(_, &off)| ((rep + off) % 4 != 3).then_some(0x8000 + rep * 24 + off * 40))
                .collect();
            let mut heap = heap_addrs.iter();
            let mut pc = code_base + start * 4;
            for &(class, mem) in &micros {
                let op = match mem {
                    SeqDataRef::Frame { store: true, offset } => MemOp::Write(frame_base + offset),
                    SeqDataRef::Frame { offset, .. } => MemOp::Read(frame_base + offset),
                    SeqDataRef::Heap { store } => match heap.next() {
                        Some(&Some(a)) if store => MemOp::Write(a),
                        Some(&Some(a)) => MemOp::Read(a),
                        _ => MemOp::None,
                    },
                    SeqDataRef::None => MemOp::None,
                };
                slow.step(pc, class, op);
                pc += 4;
            }
            fast.step_seq(&plan, code_base, frame_base, &heap_addrs);
            assert_same(&slow, &fast)?;
            if rep % 3 == 2 {
                churn(&mut slow, &mut fast, rep);
            }
        }
    }
}

/// One micro of a shared plan: fetch offset from the code base, class,
/// and data access (0–1 none, 2 a frame slot, 3 a heap address
/// supplied per replay).
type Micro = (u64, InstrClass, u8);

fn any_micros() -> impl Strategy<Value = Vec<Micro>> {
    prop::collection::vec((0u64..1024, any_class(), 0u8..4), 1..12)
        .prop_map(|v| v.into_iter().map(|(w, c, k)| (w * 4, c, k)).collect())
}

/// A plan whose fetches conflict in one set of the client's 16 KiB
/// direct-mapped I-cache: each walk evicts its own first line, so
/// every walk misses.
fn conflicting_micros() -> Vec<Micro> {
    vec![
        (0x100, InstrClass::Load, 0),
        (0x100 + 16 * 1024, InstrClass::AluSimple, 3),
        (0x104, InstrClass::Branch, 0),
    ]
}

fn data_ref((off, _, kind): Micro) -> SeqDataRef {
    match kind {
        0 | 1 => SeqDataRef::None,
        2 => SeqDataRef::Frame {
            store: off % 8 == 0,
            offset: off % 256,
        },
        _ => SeqDataRef::Heap {
            store: off % 8 == 4,
        },
    }
}

/// One step of [`shared_plans_replay_exactly_across_machine_events`],
/// on machine pair `m`.
#[derive(Debug, Clone)]
enum PairOp {
    /// Replay plan `p` (modulo the plan count) at code base `b`.
    Replay(usize, usize, usize),
    /// One unrelated instruction at a pc and data address drawn from
    /// `x`, in a 64 KiB code range: it may evict a plan's lines.
    Churn(usize, u64),
    /// [`Machine::reset`], which flushes both caches.
    Reset(usize),
    /// Restore the other pair's [`Machine::export_state`].
    Restore(usize),
    /// Become a clone of the other pair.
    Clone(usize),
}

fn any_pair_op() -> impl Strategy<Value = PairOp> {
    let replay = || (0usize..2, 0usize..8, 0usize..3).prop_map(|(m, p, b)| PairOp::Replay(m, p, b));
    prop_oneof![
        replay(),
        replay(),
        replay(),
        replay(),
        replay(),
        (0usize..2, 0u64..1 << 14).prop_map(|(m, x)| PairOp::Churn(m, x)),
        (0usize..2, 0u64..1 << 14).prop_map(|(m, x)| PairOp::Churn(m, x)),
        (0usize..2).prop_map(PairOp::Reset),
        (0usize..2).prop_map(PairOp::Restore),
        (0usize..2).prop_map(PairOp::Clone),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Plans replayed by `step_seq` on two machines that share the
    /// plan objects stay bit-exact with per-micro `step`s on mirror
    /// machines, whatever happens to the caches between replays:
    /// churn, `reset`, `import_state` of the other machine's state and
    /// `clone`. Two of the code bases are 16 KiB apart, so a plan
    /// resident at one of them is absent at the other, and one plan
    /// conflicts with itself. This pins the plans' residency memo: it
    /// may skip a walk only when every fetch would hit.
    #[test]
    fn shared_plans_replay_exactly_across_machine_events(
        which in 0u8..4,
        acc in any_acc(),
        specs in prop::collection::vec(any_micros(), 1..5),
        ops in prop::collection::vec(any_pair_op(), 1..80),
    ) {
        let table = table(which);
        let mut specs = specs;
        specs.push(conflicting_micros());
        let plans: Vec<SeqPlan> = specs
            .iter()
            .map(|micros| {
                let micros: Vec<_> = micros.iter().map(|&u| (u.0, u.1, data_ref(u))).collect();
                SeqPlan::compile_at(&table, GRANULE, &micros)
            })
            .collect();
        let bases = [0x1000_0000u64, 0x1000_4000, 0x1000_0800];
        let frame_base = 0x5000_2000u64;
        // (slow, fast) per pair.
        let mut pairs = [0, 1].map(|_| (seeded(&table, acc), seeded(&table, acc)));
        for (rep, op) in ops.iter().enumerate() {
            let rep = rep as u64;
            match *op {
                PairOp::Replay(m, p, b) => {
                    let (slow, fast) = &mut pairs[m];
                    let (micros, plan) = (&specs[p % specs.len()], &plans[p % plans.len()]);
                    let base = bases[b];
                    let mut heap_addrs = Vec::new();
                    for (j, &u) in micros.iter().enumerate() {
                        let j = j as u64;
                        let op = match data_ref(u) {
                            SeqDataRef::None => MemOp::None,
                            SeqDataRef::Frame { store: true, offset } => MemOp::Write(frame_base + offset),
                            SeqDataRef::Frame { offset, .. } => MemOp::Read(frame_base + offset),
                            SeqDataRef::Heap { store } => {
                                let addr = ((rep + j) % 4 != 3).then_some(0x8000 + rep * 24 + j * 40);
                                heap_addrs.push(addr);
                                match addr {
                                    Some(a) if store => MemOp::Write(a),
                                    Some(a) => MemOp::Read(a),
                                    None => MemOp::None,
                                }
                            }
                        };
                        slow.step(base + u.0, u.1, op);
                    }
                    fast.step_seq(plan, base, frame_base, &heap_addrs);
                }
                PairOp::Churn(m, x) => {
                    let (slow, fast) = &mut pairs[m];
                    let (pc, op) = (bases[0] + x * 4, MemOp::Read(0x8000 + x * 8));
                    slow.step(pc, InstrClass::Load, op);
                    fast.step(pc, InstrClass::Load, op);
                }
                PairOp::Reset(m) => {
                    pairs[m].0.reset();
                    pairs[m].1.reset();
                }
                PairOp::Restore(m) => {
                    let (slow, fast) = &pairs[1 - m];
                    let (slow, fast) = (slow.export_state(), fast.export_state());
                    pairs[m].0.import_state(&slow);
                    pairs[m].1.import_state(&fast);
                }
                PairOp::Clone(m) => {
                    let (slow, fast) = &pairs[1 - m];
                    pairs[m] = (slow.clone(), fast.clone());
                }
            }
            for (slow, fast) in &pairs {
                assert_same(slow, fast)?;
            }
        }
    }

    /// An epoch read twice, from the same cache or two caches, names
    /// the same tag array both times, whatever ran in between: fills,
    /// credited hits, flushes, counter resets, restores (of a state
    /// exported earlier, from either cache) and clones.
    #[test]
    fn cache_epochs_name_one_tag_array(
        ops in prop::collection::vec((0u8..9, 0usize..2, 0u64..1 << 12), 1..200),
    ) {
        let cfg = CacheConfig { size_bytes: 1024, line_bytes: 32 };
        let mut caches = [CacheSim::new(cfg), CacheSim::new(cfg)];
        let mut saved: Vec<CacheState> = vec![caches[0].export_state()];
        let mut seen: Vec<(CacheEpoch, Vec<u64>)> = Vec::new();
        for (kind, c, x) in ops {
            match kind {
                0..=2 => {
                    caches[c].access(x * 8);
                }
                3 => caches[c].credit_hits(x),
                4 => caches[c].flush(),
                5 => caches[c].reset_stats(),
                6 => saved.push(caches[c].export_state()),
                7 => caches[c].import_state(&saved[x as usize % saved.len()]),
                _ => caches[c] = caches[1 - c].clone(),
            }
            for cache in &caches {
                let (epoch, tags) = (cache.epoch(), cache.export_state().tags);
                match seen.iter().find(|(e, _)| *e == epoch) {
                    Some((_, before)) => prop_assert_eq!(before, &tags, "{:?} named two tag arrays", epoch),
                    None => seen.push((epoch, tags)),
                }
            }
        }
    }
}

proptest! {
    /// hits + misses == accesses, and replaying the same trace on a
    /// fresh cache gives identical stats (determinism).
    #[test]
    fn cache_accounting(addrs in prop::collection::vec(0u64..1u64<<20, 1..500)) {
        let cfg = CacheConfig { size_bytes: 4096, line_bytes: 32 };
        let mut a = CacheSim::new(cfg);
        for &x in &addrs {
            a.access(x);
        }
        prop_assert_eq!(a.stats().accesses(), addrs.len() as u64);
        prop_assert_eq!(a.stats().hits + a.stats().misses, addrs.len() as u64);

        let mut b = CacheSim::new(cfg);
        for &x in &addrs {
            b.access(x);
        }
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Accessing the same line twice in a row always hits the second
    /// time.
    #[test]
    fn immediate_reuse_hits(addr in 0u64..1u64<<30) {
        let mut c = CacheSim::new(CacheConfig::client_dcache());
        c.access(addr);
        prop_assert!(c.access(addr));
    }

    /// Machine energy is exactly the sum of its component ledger, and
    /// bulk-charging a mix equals the table price of that mix.
    #[test]
    fn machine_ledger_consistent(
        loads in 0u64..1000,
        stores in 0u64..1000,
        branches in 0u64..1000,
        mems in 0u64..100,
    ) {
        let mix = InstrMix::new()
            .with(InstrClass::Load, loads)
            .with(InstrClass::Store, stores)
            .with(InstrClass::Branch, branches)
            .with_mem(mems);
        let mut m = Machine::new(MachineConfig::mobile_client());
        m.charge_mix(&mix);
        let expect = EnergyTable::microsparc_iiep().energy_of_mix(&mix);
        prop_assert!((m.energy().nanojoules() - expect.nanojoules()).abs() < 1e-6);
        let total: f64 = m
            .breakdown()
            .iter()
            .map(|(_, e)| e.nanojoules())
            .sum();
        prop_assert!((total - m.energy().nanojoules()).abs() < 1e-6);
    }

    /// Stepping arbitrary instruction traces keeps energy and cycles
    /// monotonically nondecreasing, and elapsed time consistent with
    /// cycles at the configured clock.
    #[test]
    fn stepping_is_monotone(trace in prop::collection::vec((any_class(), 0u64..1u64<<20, prop::option::of(0u64..1u64<<20)), 1..300)) {
        let mut m = Machine::new(MachineConfig::mobile_client());
        let mut last_e = 0.0;
        let mut last_c = 0;
        for (class, pc, mem) in trace {
            let memop = match (class, mem) {
                (InstrClass::Store, Some(a)) => MemOp::Write(a),
                (_, Some(a)) => MemOp::Read(a),
                (_, None) => MemOp::None,
            };
            m.step(pc, class, memop);
            prop_assert!(m.energy().nanojoules() >= last_e);
            prop_assert!(m.cycles() >= last_c);
            last_e = m.energy().nanojoules();
            last_c = m.cycles();
        }
        let t = SimTime::from_cycles(m.cycles(), m.config().clock_hz);
        prop_assert!((m.elapsed().nanos() - t.nanos()).abs() < 1e-6);
    }

    /// Power-down leakage is exactly leak_fraction of active idle for
    /// the same duration.
    #[test]
    fn leakage_fraction_exact(ms in 0.01f64..1e4) {
        let t = SimTime::from_millis(ms);
        let mut down = Machine::new(MachineConfig::mobile_client());
        let mut idle = Machine::new(MachineConfig::mobile_client());
        down.power_down(t);
        idle.active_idle(t);
        let ratio = down.energy().nanojoules() / idle.energy().nanojoules();
        prop_assert!((ratio - 0.10).abs() < 1e-9, "{ratio}");
    }
}

/// Replay `spec`'s plan eight times on a machine seeded at `acc`,
/// checking it against the literal sequence after every replay, and
/// return the final Core accumulator.
fn plan_matches_at(table: &EnergyTable, acc: f64, spec: &PlanSpec) -> f64 {
    let plan = compile_plan(table, spec);
    let (mut slow, mut fast) = (seeded(table, acc), seeded(table, acc));
    for _ in 0..8 {
        step_plan_slow(&mut slow, spec);
        fast.step_seq(&plan, 0, 0, &[]);
        assert_same(&slow, &fast).unwrap();
    }
    fast.breakdown()[Component::Core].nanojoules()
}

/// The ulp of a positive normal `x`.
fn ulp(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1) - x
}

/// A 0.5 nJ addend is exactly half an ulp of an accumulator in
/// `[2^52, 2^53)` nJ, where ties-to-even decides by the running
/// significand's parity: the fold must replay serially there, for an
/// odd and an even starting significand alike.
#[test]
fn half_ulp_ties_replay_exactly() {
    let dyadic = table(1);
    let spec = (
        0x40,
        InstrClass::Branch,
        vec![InstrMix::new().with(InstrClass::Nop, 2)],
    );
    for acc in [4503599627370496.0, 4503599627370497.0, 6755399441055745.0] {
        assert_eq!(ulp(acc), 1.0);
        assert_eq!(
            dyadic.energy(InstrClass::Branch).nanojoules(),
            0.5 * ulp(acc)
        );
        plan_matches_at(&dyadic, acc, &spec);
    }
    let tiny = table(2);
    let acc = 2f64.powi(42) + 3.0 * 2f64.powi(-10);
    assert_eq!(tiny.energy(InstrClass::Branch).nanojoules(), 0.5 * ulp(acc));
    plan_matches_at(&tiny, acc, &spec);
}

/// An accumulator a few ulps below a power of two crosses into the
/// next binade, whose ulp is twice as large, part-way through a plan:
/// the fold must replay serially across the boundary and fold again
/// in the new binade.
#[test]
fn binade_exits_replay_exactly() {
    let spec = (
        0x80,
        InstrClass::Load,
        vec![InstrMix::new()
            .with(InstrClass::AluSimple, 3)
            .with(InstrClass::Store, 1)],
    );
    for which in 0..4 {
        let table = table(which);
        for k in [-10, 0, 1, 20, 33, 45, 52] {
            let top = 2f64.powi(k);
            for j in 1u64..=32 {
                let acc = f64::from_bits(top.to_bits() - j);
                let end = plan_matches_at(&table, acc, &spec);
                // The 2^-10-scaled table's addends round away near 2^52.
                assert!(
                    end >= top || which == 2,
                    "table {which} never left 2^{k}'s binade"
                );
            }
        }
    }
}

/// Zero, subnormal, negative and non-finite accumulators never fold.
#[test]
fn degenerate_accumulators_replay_exactly() {
    let spec = (
        0,
        InstrClass::Nop,
        vec![InstrMix::new().with(InstrClass::Load, 5)],
    );
    for which in 0..4 {
        let table = table(which);
        for acc in [
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -3.5,
            f64::INFINITY,
        ] {
            plan_matches_at(&table, acc, &spec);
        }
    }
}
