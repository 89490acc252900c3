//! The four workloads, their set-up, their units and the measured
//! run.
//!
//! Each workload is a fixed list of *units*. A run builds the apps
//! (set-up), then runs a fixed number of whole *rounds* ([`Kind::rounds`]),
//! each running every unit once. A unit's time is its minimum over
//! the rounds; the workload's *floor* is the sum of those minima.
//! Interleaving spreads each unit's repeats over the host's slow and
//! fast phases, and the minimum keeps a fast one.
//!
//! The benchmark seed varies argument contents only. Sizes, channel
//! conditions and injected faults follow the bench bins' fixed
//! scenario seeds (fig7's `1000 + app`, faults' `7`) and profiles use
//! seed 42, so every seed does the same amount of simulated work. (Over
//! 10 seeds, the size draws alone spread fig7-grid's throughput by 17%
//! and faults-sweep's by 12%, interquartile range over median.)

use crate::attrib::{attribute, HostClockSink, Layer, LayerTimes};
use crate::check::{self, Golden};
use crate::jitpass::{compile_timed, PASS_METRICS};
use crate::stats::{median, rel_range};
use jem_apps::workload_by_name;
use jem_core::{
    run_scenario_ckpt, run_scenario_traced, run_scenario_with, CkptFile, InflightCkpt, Profile,
    ResilienceConfig, RunSnapshot, RunStats, ScenarioResult, Strategy, Workload,
};
use jem_energy::{EnergyBreakdown, MachineConfig};
use jem_jvm::decode::{compile_runs, decode_method, CostCache};
use jem_jvm::{Heap, MethodId, OptLevel, Program, Value, Vm};
use jem_obs::{FileSink, TimelineSink, TraceEvent, TraceSink};
use jem_sim::{Scenario, Situation};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Repetitions of the pass-by-pass JIT timing; each app keeps its
/// fastest.
const JIT_REPS: usize = 3;

/// Invocations per fig7-grid scenario.
const FIG7_RUNS: usize = 3;

/// Invocations per faults scenario: the committed `BENCH_faults.json`
/// was recorded with `faults --runs 60`.
const FAULTS_RUNS: usize = 60;

/// The `faults` bin's loss severities.
const LOSS_SEVERITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.9];

/// The paper's Fig 3 apps, in `jem_apps::all_workloads` order (fig7
/// seeds its scenarios by this index).
const ALL_APPS: [&str; 8] = ["fe", "pf", "mf", "hpf", "ed", "sort", "jess", "db"];

/// Profile calibration seed (the bench bins').
const PROFILE_SEED: u64 = 42;

/// fig7's scenario seeds are `FIG7_SEED + app index`.
const FIG7_SEED: u64 = 1000;

/// The `faults` bin's default scenario seed.
const FAULTS_SEED: u64 = 7;

/// Keeps argument streams apart from scenario streams of equal seed.
const ARGS_STREAM: u64 = 0xa5a5_a5a5_0000_0000;

/// Checkpoint cadence of faults-observed, in invocations.
const CKPT_EVERY: usize = 10;

/// Sim-time sample cadence of the `.jts` sink (the bench bins'
/// `--sample-every` default, 1 sim-ms).
const SAMPLE_EVERY_NS: f64 = 1e6;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 8 apps × 3 situations × 7 strategies, 3 invocations each.
    Fig7Grid,
    /// Every app at every size, one interpreted invocation each.
    InterpOnly,
    /// fe over a degraded network, 5 severities × 3 policies.
    FaultsSweep,
    /// faults-sweep with `.jtb`/`.jts` sinks and checkpoints.
    FaultsObserved,
}

impl Kind {
    /// All workloads, in catalogue order.
    pub const ALL: [Kind; 4] = [
        Kind::Fig7Grid,
        Kind::InterpOnly,
        Kind::FaultsSweep,
        Kind::FaultsObserved,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig7Grid => "fig7-grid",
            Kind::InterpOnly => "interp-only",
            Kind::FaultsSweep => "faults-sweep",
            Kind::FaultsObserved => "faults-observed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn apps(self) -> &'static [&'static str] {
        match self {
            Kind::Fig7Grid | Kind::InterpOnly => &ALL_APPS,
            Kind::FaultsSweep | Kind::FaultsObserved => &ALL_APPS[..1],
        }
    }

    fn uses_profile(self) -> bool {
        self != Kind::InterpOnly
    }

    /// Whether the benchmark seed reaches this workload's inputs (fe,
    /// the faults workloads' app, takes no argument data).
    pub fn seeded(self) -> bool {
        matches!(self, Kind::Fig7Grid | Kind::InterpOnly)
    }

    /// Measured rounds. On a 2-core host a round takes about 16 s on
    /// fig7-grid, 1.1 s on interp-only and 5.3 s on the faults
    /// workloads; these counts keep a whole benchmark session (22
    /// runs of each workload) under an hour (README, "Run length").
    pub fn rounds(self) -> usize {
        match self {
            Kind::Fig7Grid => 3,
            Kind::InterpOnly => 10,
            Kind::FaultsSweep | Kind::FaultsObserved => 3,
        }
    }

    /// Interleaved set-up builds per app, enough for the builds to
    /// span about a second or more of the host's speed changes:
    /// `setup_s` keeps each app's fastest build.
    fn setup_builds(self) -> usize {
        match self {
            // Each build profiles all 8 apps, about 3.5 s.
            Kind::Fig7Grid => 3,
            // fe's profile takes about 0.13 s.
            Kind::FaultsSweep | Kind::FaultsObserved => 10,
            // Program construction and verification only, about 0.5 ms.
            Kind::InterpOnly => 300,
        }
    }

    /// The workload whose golden digests this one must reproduce.
    fn golden_key(self) -> &'static str {
        match self {
            Kind::FaultsObserved => Kind::FaultsSweep.name(),
            k => k.name(),
        }
    }
}

/// Mix the benchmark seed into a base seed; seed 0 leaves every base
/// seed as the bench bins use it.
fn mix(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    base ^ z ^ (z >> 31)
}

/// One built app.
pub struct App {
    /// The app (program construction happened here).
    pub workload: Box<dyn Workload>,
    /// Its deployment profile, for workloads that run scenarios.
    pub profile: Option<Profile>,
}

/// The set-up phase's products and timings.
pub struct Setup {
    /// The apps, from the last build.
    pub apps: Vec<App>,
    /// Each build's total over all apps (for the within-run spread).
    pub build_totals: Vec<f64>,
    /// Per-layer set-up metrics (`setup_s`, `apps.build_s`, …).
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Build the workload's apps several times, interleaved
/// across apps, timing program construction, verification and
/// profiling. With `jit`, also time the JIT pass by pass over every
/// profile's plan.
fn setup(kind: Kind, jit: bool) -> Setup {
    let names = kind.apps();
    let builds = kind.setup_builds();
    // [app][build] = (construct, verify, profile) seconds
    let mut t = vec![Vec::with_capacity(builds); names.len()];
    let mut apps = Vec::new();
    for _ in 0..builds {
        apps.clear();
        for (i, name) in names.iter().enumerate() {
            let t0 = Instant::now();
            let workload = workload_by_name(name).expect("catalogued app");
            let t1 = Instant::now();
            jem_jvm::verify::verify_program(workload.program()).expect("app verifies");
            let t2 = Instant::now();
            let profile = kind
                .uses_profile()
                .then(|| Profile::build(workload.as_ref(), PROFILE_SEED));
            let t3 = Instant::now();
            t[i].push([
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                (t3 - t2).as_secs_f64(),
            ]);
            apps.push(App { workload, profile });
        }
    }
    let min_of = |f: &dyn Fn(&[f64; 3]) -> f64| -> f64 {
        t.iter()
            .map(|builds| builds.iter().map(f).fold(f64::INFINITY, f64::min))
            .sum()
    };
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", min_of(&|b| b.iter().sum()));
    metrics.insert("apps.build_s", min_of(&|b| b[0]));
    metrics.insert("jvm.verify_s", min_of(&|b| b[1]));
    metrics.insert("core.profile.build_s", min_of(&|b| b[2]));
    let build_totals = (0..builds)
        .map(|k| t.iter().map(|builds| builds[k].iter().sum::<f64>()).sum())
        .collect();
    if jit && kind.uses_profile() {
        time_jit(&apps, &mut metrics);
    }
    Setup {
        apps,
        build_totals,
        metrics,
    }
}

/// Time every plan method × level through the pass-by-pass pipeline,
/// [`JIT_REPS`] times interleaved across apps, keeping each app's
/// fastest time per pass.
fn time_jit(apps: &[App], metrics: &mut BTreeMap<&'static str, f64>) {
    let mut best = vec![[f64::INFINITY; 8]; apps.len()];
    let mut counts = [0u64; 4];
    for rep in 0..JIT_REPS {
        for (i, app) in apps.iter().enumerate() {
            let profile = app.profile.as_ref().expect("profiled app");
            let mut secs = [0.0; 8];
            for level in OptLevel::ALL {
                for &m in &profile.plan {
                    let c = compile_timed(app.workload.program(), m, level);
                    for (s, v) in secs.iter_mut().zip(c.secs) {
                        *s += v;
                    }
                    if rep == 0 {
                        counts[0] += c.work_units();
                        counts[1] += c.nir_insts as u64;
                        counts[2] += u64::from(c.code_bytes);
                        counts[3] += c.spills as u64;
                    }
                }
            }
            for (b, s) in best[i].iter_mut().zip(secs) {
                *b = b.min(s);
            }
        }
    }
    let mut jit_total = 0.0;
    for (p, name) in PASS_METRICS.into_iter().enumerate() {
        let s: f64 = best.iter().map(|b| b[p]).sum();
        jit_total += s;
        metrics.insert(name, s);
    }
    metrics.insert("jvm.jit.work_units", counts[0] as f64);
    metrics.insert("jvm.jit.nir_insts", counts[1] as f64);
    metrics.insert("jvm.jit.code_bytes", counts[2] as f64);
    metrics.insert("jvm.jit.spills", counts[3] as f64);
    let build = metrics["core.profile.build_s"];
    metrics.insert("core.profile.calibrate_s", (build - jit_total).max(0.0));
}

/// What one unit runs.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // built once per run, never moved in a hot loop
pub enum UnitSpec {
    /// One scenario under one strategy and resilience policy.
    Scenario {
        /// Index into the set-up's apps.
        app: usize,
        /// The scenario.
        scenario: Scenario,
        /// Strategy.
        strategy: Strategy,
        /// Resilience policy.
        resilience: ResilienceConfig,
        /// Seed of the argument-content stream.
        arg_seed: u64,
    },
    /// One interpreted invocation on a fresh client VM.
    Interp {
        /// Index into the set-up's apps.
        app: usize,
        /// Size parameter.
        size: u32,
        /// Seed of the argument-content stream.
        arg_seed: u64,
    },
}

/// A named unit.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Stable unit name (golden-file key).
    pub name: String,
    /// What it runs.
    pub spec: UnitSpec,
}

/// The workload's unit list.
fn units(kind: Kind, apps: &[App], seed: u64) -> Vec<Unit> {
    let mut out = Vec::new();
    match kind {
        Kind::Fig7Grid => {
            for (wi, app) in apps.iter().enumerate() {
                let w = app.workload.as_ref();
                for sit in Situation::ALL {
                    let scenario_seed = FIG7_SEED + wi as u64;
                    let scenario =
                        Scenario::paper(sit, &w.sizes(), scenario_seed).with_runs(FIG7_RUNS);
                    for strategy in Strategy::ALL {
                        out.push(Unit {
                            name: format!("{}/{}/{}", w.name(), sit.key(), strategy.key()),
                            spec: UnitSpec::Scenario {
                                app: wi,
                                scenario: scenario.clone(),
                                strategy,
                                resilience: ResilienceConfig::default(),
                                arg_seed: mix(scenario_seed ^ ARGS_STREAM, seed),
                            },
                        });
                    }
                }
            }
        }
        Kind::InterpOnly => {
            for (wi, app) in apps.iter().enumerate() {
                for size in app.workload.sizes() {
                    out.push(Unit {
                        name: format!("{}/{size}", app.workload.name()),
                        spec: UnitSpec::Interp {
                            app: wi,
                            size,
                            arg_seed: mix(ARGS_STREAM | (wi as u64) << 32 | u64::from(size), seed),
                        },
                    });
                }
            }
        }
        Kind::FaultsSweep | Kind::FaultsObserved => {
            let sizes = apps[0].workload.sizes();
            for loss in LOSS_SEVERITIES {
                let scenario =
                    Scenario::paper_degraded(Situation::GoodDominant, &sizes, FAULTS_SEED, loss)
                        .with_runs(FAULTS_RUNS);
                for (key, strategy, resilience) in [
                    (
                        "aa",
                        Strategy::AdaptiveAdaptive,
                        ResilienceConfig::default(),
                    ),
                    (
                        "aa_naive",
                        Strategy::AdaptiveAdaptive,
                        ResilienceConfig::naive(),
                    ),
                    ("al", Strategy::AdaptiveLocal, ResilienceConfig::default()),
                ] {
                    out.push(Unit {
                        name: format!("loss{loss:.2}/{key}"),
                        spec: UnitSpec::Scenario {
                            app: 0,
                            scenario: scenario.clone(),
                            strategy,
                            resilience,
                            arg_seed: mix(FAULTS_SEED ^ ARGS_STREAM, seed),
                        },
                    });
                }
            }
        }
    }
    out
}

/// What a unit run produced.
#[derive(Debug, Clone, Default)]
pub struct UnitOut {
    /// Host seconds of the unit's work (checks excluded).
    pub secs: f64,
    /// Output digest.
    pub digest: u64,
    /// Simulated invocations.
    pub invocations: u64,
    /// `Workload::check` verdict, when asked for.
    pub check: Option<bool>,
    /// Scenario result totals `(energy nJ, time ns, sim-instructions)`.
    pub totals: Option<(f64, f64, u64)>,
    /// Scenario run statistics.
    pub stats: Option<RunStats>,
    /// Interpreted units: `make_args` seconds.
    pub make_args_s: f64,
    /// Interpreted units: `Vm::invoke` seconds.
    pub invoke_s: f64,
    /// Interpreted units: client sim-instructions.
    pub instructions: u64,
}

/// Extra measurement attached to one run of a unit.
pub enum Probe<'a> {
    /// Plain run.
    None,
    /// Stamp every trace event and attribute the unit's host time.
    HostClock(&'a mut LayerTimes),
    /// Time a replica of the first-use decode (interpreted units).
    Decode(&'a mut f64),
}

/// Runs units of one workload.
pub struct Runner {
    /// The workload.
    pub kind: Kind,
    /// Its set-up.
    pub setup: Setup,
    /// Its units.
    pub units: Vec<Unit>,
    /// faults-observed's sinks and checkpoint files.
    observer: Option<Observer>,
}

impl Runner {
    /// Set up `kind` at `seed`.
    ///
    /// # Errors
    /// Failure to create faults-observed's scratch directory.
    pub fn new(kind: Kind, seed: u64, jit: bool) -> std::io::Result<Runner> {
        let setup = setup(kind, jit);
        let units = units(kind, &setup.apps, seed);
        let observer = match kind {
            Kind::FaultsObserved => Some(Observer::new()?),
            _ => None,
        };
        Ok(Runner {
            kind,
            setup,
            units,
            observer,
        })
    }

    /// Run unit `i` once. `check` runs the app's own output check on
    /// interpreted units.
    pub fn run_unit(&mut self, i: usize, check: bool, probe: Probe<'_>) -> UnitOut {
        let unit = &self.units[i];
        match &unit.spec {
            UnitSpec::Interp {
                app,
                size,
                arg_seed,
            } => {
                let w = self.setup.apps[*app].workload.as_ref();
                run_interp(w, *size, *arg_seed, check, probe)
            }
            UnitSpec::Scenario {
                app,
                scenario,
                strategy,
                resilience,
                arg_seed,
            } => {
                let app = &self.setup.apps[*app];
                let w = SeededArgs::new(app.workload.as_ref(), *arg_seed);
                let profile = app.profile.as_ref().expect("profiled app");
                let t0 = Instant::now();
                let mut clock = matches!(probe, Probe::HostClock(_)).then(HostClockSink::default);
                let result = match (&mut self.observer, clock.as_mut()) {
                    (Some(obs), clock) => obs.run(
                        i, &unit.name, &w, profile, scenario, *strategy, resilience, clock,
                    ),
                    (None, Some(sink)) => {
                        run_scenario_traced(&w, profile, scenario, *strategy, resilience, sink)
                            .expect("scenario runs")
                    }
                    (None, None) => run_scenario_with(&w, profile, scenario, *strategy, resilience)
                        .expect("scenario runs"),
                };
                if let (Probe::HostClock(times), Some(clock)) = (probe, clock) {
                    let end = Instant::now();
                    let args = w.calls.into_inner().expect("no poisoned lock");
                    times.merge(&attribute(t0, end, &clock.marks, &args));
                }
                let secs = t0.elapsed().as_secs_f64();
                scenario_out(secs, &result)
            }
        }
    }
}

fn scenario_out(secs: f64, r: &ScenarioResult) -> UnitOut {
    UnitOut {
        secs,
        digest: check::scenario_digest(r),
        invocations: r.invocations as u64,
        totals: Some((
            r.total_energy.nanojoules(),
            r.total_time.nanos(),
            r.instructions,
        )),
        stats: Some(r.stats.clone()),
        ..UnitOut::default()
    }
}

fn run_interp(
    w: &dyn Workload,
    size: u32,
    arg_seed: u64,
    check: bool,
    probe: Probe<'_>,
) -> UnitOut {
    let t0 = Instant::now();
    let mut vm = Vm::client(w.program());
    let mut rng = SmallRng::seed_from_u64(arg_seed);
    let t1 = Instant::now();
    let args = w.make_args(&mut vm.heap, size, &mut rng);
    let t2 = Instant::now();
    let value = vm.invoke(w.potential_method(), args).expect("app runs");
    let t3 = Instant::now();
    if let Probe::Decode(decode_s) = probe {
        *decode_s += time_decode(w.program(), w.potential_method());
    }
    UnitOut {
        secs: (t3 - t0).as_secs_f64(),
        digest: check::vm_digest(&vm),
        invocations: 1,
        check: check.then(|| w.check(&vm.heap, size, value) == Some(true)),
        make_args_s: (t2 - t1).as_secs_f64(),
        invoke_s: (t3 - t2).as_secs_f64(),
        instructions: vm.machine.mix().total(),
        ..UnitOut::default()
    }
}

/// Host seconds to decode `root`'s call closure the way a fresh VM
/// does on first use: the charge-plan cache, then each method's
/// decoded form and batched runs.
///
/// An upper bound on the VM's own decode time: this decodes the whole
/// static call closure (`partition::reachable`, which follows every
/// `Call` and every `CallVirt` vtable target), while the VM decodes
/// only the methods an invocation actually calls.
fn time_decode(program: &Program, root: MethodId) -> f64 {
    let plan = jem_core::partition::reachable(program, root);
    let t0 = Instant::now();
    let cc = CostCache::new(&MachineConfig::mobile_client().table);
    for m in plan {
        let dm = decode_method(program.method(m), &|mid| {
            program.method(mid).sig.arity() as u32
        });
        std::hint::black_box(compile_runs(program, m, &dm, &cc));
    }
    t0.elapsed().as_secs_f64()
}

/// The app under a scenario unit, with its argument contents drawn
/// from the benchmark's own stream instead of the scenario's RNG, and
/// every `make_args` call timed (for the traced round).
struct SeededArgs<'w> {
    inner: &'w dyn Workload,
    rng: Mutex<SmallRng>,
    calls: Mutex<Vec<Duration>>,
}

impl<'w> SeededArgs<'w> {
    fn new(inner: &'w dyn Workload, seed: u64) -> Self {
        SeededArgs {
            inner,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            calls: Mutex::new(Vec::new()),
        }
    }
}

impl Workload for SeededArgs<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn description(&self) -> &str {
        self.inner.description()
    }
    fn program(&self) -> &Program {
        self.inner.program()
    }
    fn potential_method(&self) -> MethodId {
        self.inner.potential_method()
    }
    fn sizes(&self) -> Vec<u32> {
        self.inner.sizes()
    }
    fn size_meaning(&self) -> &str {
        self.inner.size_meaning()
    }
    fn make_args(&self, heap: &mut Heap, size: u32, _scenario_rng: &mut SmallRng) -> Vec<Value> {
        let mut rng = self.rng.lock().expect("no poisoned lock");
        let t0 = Instant::now();
        let args = self.inner.make_args(heap, size, &mut rng);
        self.calls
            .lock()
            .expect("no poisoned lock")
            .push(t0.elapsed());
        args
    }
    fn calibration_sizes(&self) -> Vec<u32> {
        self.inner.calibration_sizes()
    }
    fn check(&self, heap: &Heap, size: u32, result: Option<Value>) -> Option<bool> {
        self.inner.check(heap, size, result)
    }
}

/// Host time and output of faults-observed's sinks and checkpoints.
#[derive(Debug, Clone, Default)]
struct ObsTotals {
    /// Seconds in the `.jtb` sink (record + finish).
    jtb_s: f64,
    /// Seconds in the `.jts` sink (observe + finish).
    jts_s: f64,
    /// Events recorded.
    events: u64,
    /// Bytes of the finished `.jtb` files.
    jtb_bytes: u64,
    /// Bytes of the finished `.jts` files.
    jts_bytes: u64,
    /// Seconds checkpointing (sink flush + encode + atomic write).
    ckpt_s: f64,
    /// Checkpoint bytes written.
    ckpt_bytes: u64,
    /// Checkpoints written.
    ckpts: u64,
}

impl ObsTotals {
    fn add(&mut self, o: &ObsTotals) {
        self.jtb_s += o.jtb_s;
        self.jts_s += o.jts_s;
        self.events += o.events;
        self.jtb_bytes += o.jtb_bytes;
        self.jts_bytes += o.jts_bytes;
        self.ckpt_s += o.ckpt_s;
        self.ckpt_bytes += o.ckpt_bytes;
        self.ckpts += o.ckpts;
    }
}

/// faults-observed's file outputs: one `.jtb`, `.jts` and `.jck` per
/// unit in a per-process scratch directory.
struct Observer {
    dir: PathBuf,
    /// Time the sinks and checkpoints (the traced round only).
    timed: bool,
    /// Accumulated while `timed`.
    totals: ObsTotals,
}

impl Observer {
    fn new() -> std::io::Result<Observer> {
        // Next to the executable, so the files stay inside the build
        // tree the benchmark was built in.
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("jem-perf-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Observer {
            dir,
            timed: false,
            totals: ObsTotals::default(),
        })
    }

    fn path(&self, i: usize, ext: &str) -> String {
        self.dir
            .join(format!("u{i:02}.{ext}"))
            .display()
            .to_string()
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        i: usize,
        name: &str,
        w: &dyn Workload,
        profile: &Profile,
        scenario: &Scenario,
        strategy: Strategy,
        resilience: &ResilienceConfig,
        clock: Option<&mut HostClockSink>,
    ) -> ScenarioResult {
        let mut tee = Tee {
            clock,
            jtb: FileSink::create(&self.path(i, "jtb")).expect("create .jtb"),
            jts: TimelineSink::create(&self.path(i, "jts"), SAMPLE_EVERY_NS).expect("create .jts"),
            timed: self.timed,
            totals: ObsTotals::default(),
        };
        let ckpt_path = self.path(i, "jck");
        let timed = self.timed;
        let mut ckpt = ObsTotals::default();
        let mut hook = |snap: &RunSnapshot, writer: Option<Vec<u8>>| {
            let t0 = Instant::now();
            let bytes = CkptFile {
                fingerprint: format!("jem-perf faults-observed {name}"),
                completed: Vec::new(),
                writer_state: writer,
                inflight: Some(InflightCkpt {
                    unit: name.to_string(),
                    snapshot: snap.encode(),
                }),
            }
            .encode();
            jem_obs::write_atomic(&ckpt_path, &bytes).expect("checkpoint write");
            if timed {
                ckpt.ckpt_s += t0.elapsed().as_secs_f64();
                ckpt.ckpt_bytes += bytes.len() as u64;
                ckpt.ckpts += 1;
            }
        };
        let result = run_scenario_ckpt(
            w,
            profile,
            scenario,
            strategy,
            resilience,
            Some(&mut tee),
            None,
            CKPT_EVERY,
            Some(&mut hook),
        )
        .expect("scenario runs");
        let mut totals = tee.finish();
        if self.timed {
            let size = |ext| std::fs::metadata(self.path(i, ext)).map_or(0, |m| m.len());
            totals.jtb_bytes = size("jtb");
            totals.jts_bytes = size("jts");
            totals.add(&ckpt);
            self.totals.add(&totals);
        }
        result
    }

    /// Check that unit `i`'s last files load: the `.jtb` trace, the
    /// `.jts` timeline and the `.jck` checkpoint, whose writer state
    /// must split into its `.jtb` and `.jts` parts.
    fn files_load(&self, i: usize) -> bool {
        let jtb = jem_obs::load_trace_path(&self.path(i, "jtb")).is_ok();
        let jts = std::fs::read(self.path(i, "jts"))
            .map_err(|e| e.to_string())
            .and_then(|b| jem_obs::validate_jts(&b))
            .is_ok();
        let jck = CkptFile::load(&self.path(i, "jck")).is_ok_and(|c| {
            c.writer_state
                .as_deref()
                .and_then(split_composite_state)
                .is_some()
        });
        jtb && jts && jck
    }
}

impl Drop for Observer {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The benchmark's tee: every event is stamped by the host clock (in
/// the traced round), then goes to the `.jts` timeline (with the
/// tracer's exact ledger) and to the `.jtb` trace.
struct Tee<'c> {
    clock: Option<&'c mut HostClockSink>,
    jtb: FileSink,
    jts: TimelineSink,
    timed: bool,
    totals: ObsTotals,
}

impl Tee<'_> {
    fn finish(self) -> ObsTotals {
        let mut totals = self.totals;
        let t0 = Instant::now();
        self.jtb.finish().expect("finish .jtb");
        let t1 = Instant::now();
        self.jts.finish().expect("finish .jts");
        if self.timed {
            totals.jtb_s += (t1 - t0).as_secs_f64();
            totals.jts_s += t1.elapsed().as_secs_f64();
        }
        totals
    }
}

impl TraceSink for Tee<'_> {
    fn record(&mut self, event: TraceEvent) {
        if let Some(clock) = self.clock.as_mut() {
            clock.stamp(&event.kind);
        }
        self.jts.observe(&event, None);
        self.jtb.record(event);
    }

    fn record_with_ledger(&mut self, event: TraceEvent, ledger: &EnergyBreakdown) {
        if let Some(clock) = self.clock.as_mut() {
            clock.stamp(&event.kind);
        }
        if !self.timed {
            self.jts.observe(&event, Some(ledger));
            self.jtb.record(event);
            return;
        }
        let t0 = Instant::now();
        self.jts.observe(&event, Some(ledger));
        let t1 = Instant::now();
        self.jtb.record(event);
        self.totals.jts_s += (t1 - t0).as_secs_f64();
        self.totals.jtb_s += t1.elapsed().as_secs_f64();
        self.totals.events += 1;
    }

    fn ckpt_state(&mut self) -> Option<Vec<u8>> {
        // Both writers flush and sync.
        let t0 = Instant::now();
        let jtb = TraceSink::ckpt_state(&mut self.jtb)?;
        let jts = TraceSink::ckpt_state(&mut self.jts)?;
        let out = encode_composite_state(&jtb, &jts);
        if self.timed {
            self.totals.ckpt_s += t0.elapsed().as_secs_f64();
        }
        Some(out)
    }
}

/// Magic of the composite writer state that `faults --trace x.jtb
/// --timeline x.jts --ckpt x.jck` checkpoints: a `.jtb` writer state
/// and a `.jts` timeline state in one blob.
const JCS_MAGIC: &[u8; 4] = b"JCS1";

/// The composite layout: magic, presence byte 1 and the `.jtb` part
/// behind its u32 length, then the `.jts` part behind its u32 length.
fn encode_composite_state(jtb: &[u8], jts: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + jtb.len() + jts.len());
    out.extend_from_slice(JCS_MAGIC);
    out.push(1);
    out.extend_from_slice(&(jtb.len() as u32).to_le_bytes());
    out.extend_from_slice(jtb);
    out.extend_from_slice(&(jts.len() as u32).to_le_bytes());
    out.extend_from_slice(jts);
    out
}

/// The `.jtb` and `.jts` parts of a composite writer state, if it is
/// one and has both.
fn split_composite_state(state: &[u8]) -> Option<(&[u8], &[u8])> {
    let rest = state.strip_prefix(JCS_MAGIC)?.strip_prefix(&[1])?;
    let part = |s: &[u8]| -> Option<(usize, usize)> {
        let len = u32::from_le_bytes(s.get(..4)?.try_into().ok()?) as usize;
        (s.len() >= 4 + len).then_some((4, 4 + len))
    };
    let (a, b) = part(rest)?;
    let (jtb, rest) = (&rest[a..b], &rest[b..]);
    let (a, b) = part(rest)?;
    (b == rest.len()).then_some((jtb, &rest[a..b]))
}

/// Everything a run measured.
pub struct Run {
    /// The workload.
    pub kind: Kind,
    /// Measured rounds.
    pub rounds: usize,
    /// Whether the per-layer measurements were taken.
    pub traced: bool,
    /// Units run (rounds × units, plus checked extra runs).
    pub attempted: u64,
    /// Unit runs whose output was wrong.
    pub failed: u64,
    /// Why, one line per failed check.
    pub failures: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// End-to-end metric name → within-run relative spread.
    pub spreads: BTreeMap<&'static str, f64>,
}

/// Options of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Benchmark seed.
    pub seed: u64,
    /// Also take the per-layer measurements.
    pub trace: bool,
}

/// Set up and measure one workload.
///
/// # Errors
/// Scratch-directory I/O errors.
pub fn run(kind: Kind, opts: RunOptions, golden: &Golden) -> std::io::Result<Run> {
    let mut runner = Runner::new(kind, opts.seed, opts.trace)?;
    let n = runner.units.len();
    let mut failures = Vec::new();

    // --- measured rounds ---
    let runq0 = runq_wait_s();
    let rounds = kind.rounds();
    let mut first: Vec<UnitOut> = Vec::with_capacity(n);
    let mut best = vec![UnitOut::default(); n];
    let mut round_totals = Vec::with_capacity(rounds);
    let mut mismatched = 0u64;
    for r in 0..rounds {
        let mut total = 0.0;
        for i in 0..n {
            let out = runner.run_unit(i, r == 0, Probe::None);
            total += out.secs;
            if r == 0 {
                best[i] = out.clone();
                first.push(out);
                continue;
            }
            if out.digest != first[i].digest {
                mismatched += 1;
                failures.push(format!(
                    "{}: round {r} digest differs from round 0",
                    runner.units[i].name
                ));
            }
            let b = &mut best[i];
            b.secs = b.secs.min(out.secs);
            b.make_args_s = b.make_args_s.min(out.make_args_s);
            b.invoke_s = b.invoke_s.min(out.invoke_s);
        }
        round_totals.push(total);
    }
    let runq = runq_wait_s() - runq0;

    // --- output checks (on round 0; later rounds must match it) ---
    let mut bad = vec![false; n];
    let mut flag = |i: usize, why: &str| {
        failures.push(format!("{}: {why}", runner.units[i].name));
        bad[i] = true;
    };
    // Golden digests hold at seed 0, and at every seed for workloads
    // the seed does not reach.
    if opts.seed == 0 || !kind.seeded() {
        let digests: Vec<(&str, u64)> = (runner.units.iter().zip(&first))
            .map(|(u, out)| (u.name.as_str(), out.digest))
            .collect();
        for i in check::golden_mismatches(golden.get(kind.golden_key()), &digests) {
            flag(i, "digest differs from golden.json");
        }
    }
    if !kind.seeded() {
        let oracle = check::faults_oracle();
        for (i, (u, out)) in runner.units.iter().zip(&first).enumerate() {
            if oracle.get(&u.name).copied() != out.totals {
                flag(i, "differs from bench/baselines/BENCH_faults.json");
            }
        }
    }
    for (i, out) in first.iter().enumerate() {
        if out.check == Some(false) {
            flag(i, "Workload::check failed");
        }
    }
    if let Some(obs) = &runner.observer {
        for i in 0..n {
            if !obs.files_load(i) {
                flag(i, ".jtb/.jts/.jck output does not load");
            }
        }
    }

    let mut metrics = runner.setup.metrics.clone();
    let invocations: u64 = first.iter().map(|o| o.invocations).sum();
    let floor: f64 = best.iter().map(|o| o.secs).sum();
    metrics.insert("inv_per_s", invocations as f64 / floor);
    metrics.insert("host.round_p50_s", median(&round_totals));
    metrics.insert(
        "host.round_max_s",
        round_totals.iter().copied().fold(0.0, f64::max),
    );
    metrics.insert("host.runq_wait_s", runq);
    let per_round_rate: Vec<f64> = round_totals
        .iter()
        .map(|t| invocations as f64 / t)
        .collect();
    let mut spreads = BTreeMap::new();
    spreads.insert("setup_s", rel_range(&runner.setup.build_totals));
    spreads.insert("inv_per_s", rel_range(&per_round_rate));
    spreads.insert("peak_rss_mb", 0.0);

    // The traced round runs every unit twice more.
    let mut attempted = (n * rounds) as u64;
    let mut traced_failures = Vec::new();
    if opts.trace {
        traced_failures = layer_metrics(&mut runner, &first, &best, &mut metrics);
        attempted += 2 * n as u64;
    }
    metrics.insert("peak_rss_mb", peak_rss_mb());

    // A unit that fails a check fails in every round (later rounds
    // reproduce round 0's digest or count as mismatches themselves).
    let bad_units = bad.iter().filter(|&&b| b).count() as u64;
    let failed = mismatched + bad_units * rounds as u64 + traced_failures.len() as u64;
    failures.extend(traced_failures);
    Ok(Run {
        kind,
        rounds,
        traced: opts.trace,
        attempted,
        failed,
        failures,
        metrics,
        spreads,
    })
}

/// The per-layer measurements: one extra traced round, plus counts.
/// Returns the units whose traced run changed the simulation.
fn layer_metrics(
    runner: &mut Runner,
    first: &[UnitOut],
    best: &[UnitOut],
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut stats = RunStats::default();
    for o in first {
        if let Some(s) = &o.stats {
            stats.merge(s);
        }
    }
    let failures_n = stats.losses + stats.outages + stats.corrupt_responses;
    let successes = stats.remote + stats.remote_compiles;
    let attempts = successes + failures_n;
    metrics.insert(
        "core.compiles",
        (stats.local_compiles + stats.remote_compiles) as f64,
    );
    metrics.insert("core.remote.attempts", attempts as f64);
    metrics.insert("core.remote.retries", stats.retries as f64);
    metrics.insert("core.remote.failures", failures_n as f64);
    metrics.insert("core.remote.fallbacks", stats.fallbacks as f64);
    metrics.insert(
        "core.remote.success_ratio",
        if attempts == 0 {
            0.0
        } else {
            successes as f64 / attempts as f64
        },
    );

    // The traced round: every unit once more with the workload's
    // per-layer probe attached, each right after an untraced run of
    // the same unit, so the tracing overhead is measured in pairs
    // that share the host's phase.
    let mut layers = LayerTimes::default();
    let mut decode_s = 0.0;
    let (mut plain_total, mut traced_total) = (0.0, 0.0);
    for (i, want) in first.iter().enumerate() {
        plain_total += runner.run_unit(i, false, Probe::None).secs;
        if let Some(obs) = runner.observer.as_mut() {
            obs.timed = true;
        }
        let probe = match runner.kind {
            Kind::InterpOnly => Probe::Decode(&mut decode_s),
            _ => Probe::HostClock(&mut layers),
        };
        let out = runner.run_unit(i, false, probe);
        if let Some(obs) = runner.observer.as_mut() {
            obs.timed = false;
        }
        traced_total += out.secs;
        if out.digest != want.digest {
            failures.push(format!(
                "{}: traced digest differs from untraced",
                runner.units[i].name
            ));
        }
    }
    metrics.insert(
        "trace.overhead_pct",
        (traced_total / plain_total - 1.0) * 100.0,
    );

    if runner.kind == Kind::InterpOnly {
        let invoke: f64 = best.iter().map(|o| o.invoke_s).sum();
        let instructions: u64 = first.iter().map(|o| o.instructions).sum();
        metrics.insert("apps.make_args_s", best.iter().map(|o| o.make_args_s).sum());
        metrics.insert("jvm.decode_s", decode_s);
        metrics.insert("jvm.interp_s", (invoke - decode_s).max(0.0));
        metrics.insert(
            "jvm.interp.ns_per_kinstr",
            ns_per_kinstr(invoke, instructions),
        );
        return failures;
    }
    for &(layer, secs) in &layers.secs {
        if layer != Layer::Other {
            metrics.insert(layer.metric(), secs);
        }
    }
    metrics.insert(
        "trace.unattributed_pct",
        layers.get(Layer::Other) / layers.total() * 100.0,
    );
    metrics.insert(
        "jvm.exec.ns_per_kinstr",
        ns_per_kinstr(layers.exec_secs, layers.exec_instructions),
    );
    metrics.insert(
        "jvm.interp.ns_per_kinstr",
        ns_per_kinstr(layers.interp_secs, layers.interp_instructions),
    );
    if let Some(obs) = &runner.observer {
        let t = &obs.totals;
        metrics.insert("obs.jtb_s", t.jtb_s);
        metrics.insert("obs.jtb.bytes", t.jtb_bytes as f64);
        metrics.insert("obs.jts_s", t.jts_s);
        metrics.insert("obs.jts.bytes", t.jts_bytes as f64);
        metrics.insert("obs.events", t.events as f64);
        metrics.insert("core.ckpt.write_s", t.ckpt_s);
        metrics.insert("core.ckpt.bytes", t.ckpt_bytes as f64);
        metrics.insert("core.ckpt.count", t.ckpts as f64);
    }
    failures
}

fn ns_per_kinstr(secs: f64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        secs * 1e9 / (instructions as f64 / 1000.0)
    }
}

/// This process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds this process has waited on a run queue
/// (`/proc/self/schedstat`, second field).
fn runq_wait_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ns| ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_state_round_trips_in_the_jcs1_layout() {
        let state = encode_composite_state(b"trace", b"timeline!");
        assert_eq!(&state[..5], b"JCS1\x01");
        assert_eq!(state.len(), 13 + 5 + 9);
        assert_eq!(
            split_composite_state(&state),
            Some((&b"trace"[..], &b"timeline!"[..]))
        );
        assert_eq!(split_composite_state(&state[..state.len() - 1]), None);
        assert_eq!(split_composite_state(b"\x05\0\0\0\0\0\0\0trace"), None);
    }
}
