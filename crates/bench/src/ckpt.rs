//! The one sweep executor of the bench bins: ordered, parallel and
//! checkpointed.
//!
//! The sweep bins (`fig6`, `fig7`, `faults`, `speedup`, `ablation`)
//! list their work as named [`Unit`]s and run them with
//! [`SweepSession::run`] on `jem_sim::parallel`'s worker pool. Units
//! drain into the run's one [`BenchSink`] in unit order: a unit whose
//! predecessors have all drained when it starts streams straight into
//! the sink; any other records its events, each with the tracer's
//! exact ledger, into a buffer replayed in its turn. The sink sees the
//! same events in the same order on any number of workers.
//!
//! `--ckpt out.jck` saves every drained unit with the sink's writer
//! state and, inside scenario units, a snapshot every `--ckpt-every`
//! invocations (default 25; `ablation`'s variants have none). A
//! buffered unit's events are not on disk, so no snapshot could cover
//! them: under `--ckpt` the sweep runs one worker, where every unit
//! streams, and the drained units are the checkpoint's completed
//! prefix. `--resume out.jck` continues a killed run: drained units
//! return their stored results, the in-flight unit restarts from its
//! snapshot, and the `.jtb`/`.jts` streams reopen at their
//! checkpointed offsets, so every output is byte-identical to an
//! uninterrupted run's. The monitor tee's window state is not
//! serialized, so `--ckpt` refuses `--monitor`/`--health-out`.

use crate::obs::{BenchSink, ObsArgs};
use jem_core::ckpt::{
    decode_result, encode_result, run_scenario_ckpt, BoundaryHook, CkptFile, InflightCkpt,
    RunSnapshot,
};
use jem_core::{Profile, ResilienceConfig, ScenarioResult, Strategy, Workload};
use jem_energy::EnergyBreakdown;
use jem_obs::{write_atomic, NullSink, TraceEvent, TraceSink};
use jem_sim::parallel::sweep_ordered;
use jem_sim::Scenario;

/// The checkpoint flags (`--ckpt`, `--ckpt-every`, `--resume`).
#[derive(Debug, Clone, Default)]
pub struct CkptArgs {
    /// Checkpoint file path (from either flag).
    pub path: Option<String>,
    /// Invocation cadence for in-run snapshots.
    pub every: usize,
    /// Whether `--resume` asked to continue from an existing file.
    pub resume: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

impl CkptArgs {
    /// `--ckpt` and `--resume`: every bin that checkpoints its units.
    pub const UNIT_FLAGS: &'static [crate::Flag] = &[("--ckpt", true), ("--resume", true)];

    /// `--ckpt-every`: bins whose units are scenario runs, snapshotted
    /// inside the run.
    pub const EVERY_FLAGS: &'static [crate::Flag] = &[("--ckpt-every", true)];

    /// Parse the checkpoint flags from argv.
    pub fn parse(args: &[String]) -> CkptArgs {
        let ckpt = crate::arg_str(args, "--ckpt");
        let resume = crate::arg_str(args, "--resume");
        if let (Some(c), Some(r)) = (&ckpt, &resume) {
            if c != r {
                fail("--ckpt and --resume must name the same file");
            }
        }
        CkptArgs {
            resume: resume.is_some(),
            path: resume.or(ckpt),
            every: crate::arg_usize(args, "--ckpt-every", 25),
        }
    }

    /// Reject output combinations a checkpoint cannot restore.
    pub fn validate(&self, obs: &ObsArgs) {
        if self.path.is_none() {
            return;
        }
        if obs.monitoring() {
            fail(
                "--ckpt cannot resume monitor state; drop --monitor/--health-out \
                 or run without checkpointing",
            );
        }
        if self.every == 0 {
            fail("--ckpt-every must be at least 1");
        }
    }
}

/// How a unit runs: into the sink it is given, from a snapshot when
/// resumed, calling the hook every `every` invocations.
type RunFn<'a> = dyn Fn(
        Option<&mut dyn TraceSink>,
        Option<&RunSnapshot>,
        usize,
        Option<&mut BoundaryHook<'_>>,
    ) -> Outcome
    + Sync
    + 'a;

/// One named unit of a sweep. The name keys the unit in the
/// checkpoint, so it must be unique within the sweep.
pub struct Unit<'a> {
    name: String,
    records: bool,
    shard: Option<String>,
    /// Whether the outcome is a scenario result (else variant bytes).
    scenario: bool,
    run: Box<RunFn<'a>>,
}

impl<'a> Unit<'a> {
    /// A scenario unit, resumable at invocation boundaries, whose
    /// events are not recorded.
    pub fn scenario(
        name: impl Into<String>,
        workload: &'a dyn Workload,
        profile: &'a Profile,
        scenario: Scenario,
        strategy: Strategy,
        resilience: ResilienceConfig,
    ) -> Unit<'a> {
        let name = name.into();
        let unit = name.clone();
        Unit::new(name, true, move |sink, resume, every, hook| {
            let run = run_scenario_ckpt(
                workload,
                profile,
                &scenario,
                strategy,
                &resilience,
                sink,
                resume,
                every,
                hook,
            );
            Outcome::Run(Box::new(
                run.unwrap_or_else(|e| fail(&format!("unit `{unit}` failed: {e}"))),
            ))
        })
    }

    /// An opaque variant unit whose events are not recorded: `run`
    /// records into the sink it is given and returns its result as
    /// bytes. It has no in-run snapshots, so a killed variant reruns
    /// from its start.
    pub fn variant(
        name: impl Into<String>,
        run: impl Fn(&mut dyn TraceSink) -> Vec<u8> + Sync + 'a,
    ) -> Unit<'a> {
        Unit::new(name.into(), false, move |sink, _, _, _| {
            Outcome::Payload(run(sink.unwrap_or(&mut NullSink)))
        })
    }

    fn new(
        name: String,
        scenario: bool,
        run: impl Fn(
                Option<&mut dyn TraceSink>,
                Option<&RunSnapshot>,
                usize,
                Option<&mut BoundaryHook<'_>>,
            ) -> Outcome
            + Sync
            + 'a,
    ) -> Unit<'a> {
        Unit {
            name,
            records: false,
            shard: None,
            scenario,
            run: Box::new(run),
        }
    }

    /// Record the unit's events into the run's sink.
    pub fn recorded(mut self) -> Unit<'a> {
        self.records = true;
        self
    }

    /// Record the unit's events into the run's sink, in a new `.jtb`
    /// shard named `shard`.
    pub fn in_shard(mut self, shard: impl Into<String>) -> Unit<'a> {
        self.shard = Some(shard.into());
        self.recorded()
    }

    /// The outcome a checkpoint stored for this unit.
    fn decode(&self, payload: &[u8]) -> Outcome {
        if !self.scenario {
            return Outcome::Payload(payload.to_vec());
        }
        match decode_result(payload) {
            Ok(r) => Outcome::Run(Box::new(r)),
            Err(e) => fail(&format!(
                "corrupt stored result for unit `{}`: {e}",
                self.name
            )),
        }
    }
}

/// What a unit produced.
pub enum Outcome {
    /// A scenario unit's result.
    Run(Box<ScenarioResult>),
    /// A variant unit's bytes.
    Payload(Vec<u8>),
}

impl Outcome {
    /// A scenario unit's result.
    ///
    /// # Panics
    /// On a variant unit's outcome.
    pub fn into_run(self) -> ScenarioResult {
        match self {
            Outcome::Run(r) => *r,
            Outcome::Payload(_) => panic!("a variant unit has no scenario result"),
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Outcome::Run(r) => encode_result(r),
            Outcome::Payload(p) => p.clone(),
        }
    }
}

/// The events a unit recorded while an earlier unit held the sink,
/// each with the tracer's ledger when it came with one.
#[derive(Default)]
struct Buffer(Vec<(TraceEvent, Option<EnergyBreakdown>)>);

impl TraceSink for Buffer {
    fn record(&mut self, event: TraceEvent) {
        self.0.push((event, None));
    }
    fn record_with_ledger(&mut self, event: TraceEvent, ledger: &EnergyBreakdown) {
        self.0.push((event, Some(*ledger)));
    }
}

/// How a unit's events reach the sink when it drains.
enum Events {
    /// Stored in the resumed checkpoint: the unit did not run.
    Stored,
    /// Streamed as the unit ran (or not recorded at all).
    Streamed,
    /// Buffered while an earlier unit held the sink.
    Buffered(Buffer),
}

/// One bench invocation's sweep: the checkpoint bookkeeping and the
/// run's one streaming sink.
pub struct SweepSession {
    path: Option<String>,
    every: usize,
    /// The checkpoint as last saved or resumed from.
    ckpt: CkptFile,
    sink: Option<BenchSink>,
}

impl SweepSession {
    /// Start (or resume) a session and open the run's sink (reopened
    /// at the checkpointed writer state on resume). `fingerprint` must
    /// encode the bin name and every argument that shapes its units;
    /// the event outputs are added here. Resuming with a different
    /// invocation is refused.
    pub fn open(args: &CkptArgs, obs: &ObsArgs, fingerprint: String) -> SweepSession {
        let fingerprint = format!(
            "{fingerprint} trace={:?} timeline={:?} flush_every={:?}",
            obs.trace, obs.timeline, obs.flush_every_ms
        );
        let mut session = SweepSession {
            path: args.path.clone(),
            every: args.every,
            ckpt: CkptFile {
                fingerprint,
                ..CkptFile::default()
            },
            sink: None,
        };
        if args.resume {
            let path = session.path.as_deref().expect("resume implies a path");
            if std::path::Path::new(path).exists() {
                let file = CkptFile::load(path)
                    .unwrap_or_else(|e| fail(&format!("cannot resume from {path}: {e}")));
                if file.fingerprint != session.ckpt.fingerprint {
                    fail(&format!(
                        "{path} was written by a different invocation\n  checkpoint: {}\n  \
                         this run:  {}",
                        file.fingerprint, session.ckpt.fingerprint
                    ));
                }
                eprintln!(
                    "resuming from {path}: {} completed unit(s){}",
                    file.completed.len(),
                    file.inflight
                        .as_ref()
                        .map(|i| format!(", in-flight `{}`", i.unit))
                        .unwrap_or_default(),
                );
                session.ckpt = file;
            } else {
                eprintln!("resume: {path} does not exist yet, starting fresh");
            }
        }
        session.sink = obs.trace_sink(session.ckpt.writer_state.as_deref());
        session
    }

    /// Run `units` on up to `workers` workers (0 = every core; one
    /// under `--ckpt`) and return their outcomes in unit order.
    pub fn run(&mut self, units: &[Unit<'_>], workers: usize) -> Vec<Outcome> {
        let recording = self.sink.is_some();
        // A buffered unit's events are not on disk yet, so no snapshot
        // could cover them: on one worker every unit streams.
        let workers = if self.path.is_some() { 1 } else { workers };
        let units: Vec<&Unit<'_>> = units.iter().collect();
        let mut state = (self, Vec::with_capacity(units.len()));
        sweep_ordered(
            &units,
            workers,
            &mut state,
            |&unit, head| match head {
                Some((session, _)) => session.stream(unit),
                None => {
                    let mut buffer = (unit.records && recording).then(Buffer::default);
                    let outcome = (unit.run)(buffer.as_mut().map(|b| b as _), None, 0, None);
                    let events = buffer.map_or(Events::Streamed, Events::Buffered);
                    (unit, outcome, events)
                }
            },
            |(session, outcomes), ran| outcomes.push(session.drain(ran)),
        );
        state.1
    }

    /// Run `unit` as the head: every earlier unit has drained, so it
    /// streams into the sink and snapshots. A unit the resumed
    /// checkpoint completed returns its stored result; its in-flight
    /// unit, which must be the first one not completed, resumes from
    /// its snapshot without reopening its shard (the shard record is
    /// inside the snapshot's writer state).
    fn stream<'u, 'a>(&mut self, unit: &'u Unit<'a>) -> (&'u Unit<'a>, Outcome, Events) {
        let name = &unit.name;
        if let Some((_, payload)) = self.ckpt.completed.iter().find(|(n, _)| n == name) {
            return (unit, unit.decode(payload), Events::Stored);
        }
        let resume = match self.ckpt.inflight.take() {
            Some(inf) if &inf.unit == name => match RunSnapshot::decode(&inf.snapshot) {
                Ok(s) => Some(s),
                Err(e) => fail(&format!("corrupt snapshot for unit `{name}`: {e}")),
            },
            Some(inf) => fail(&format!(
                "checkpoint is in-flight in unit `{}` but the sweep reached `{name}` first — \
                 the unit order diverged",
                inf.unit
            )),
            None => None,
        };
        let SweepSession {
            path,
            every,
            ckpt,
            sink,
        } = self;
        let mut sink = sink.as_mut().filter(|_| unit.records);
        if let (Some(sink), Some(shard), None) = (sink.as_mut(), &unit.shard, &resume) {
            sink.begin_shard(shard);
        }
        let mut hook = |snap: &RunSnapshot, writer: Option<Vec<u8>>| {
            if writer.is_some() {
                ckpt.writer_state = writer;
            }
            ckpt.inflight = Some(InflightCkpt {
                unit: name.clone(),
                snapshot: snap.encode(),
            });
            save(path, ckpt);
        };
        let hook = path.is_some().then_some(&mut hook as &mut BoundaryHook<'_>);
        let every = if hook.is_some() { *every } else { 0 };
        let outcome = (unit.run)(sink.map(|s| s as _), resume.as_ref(), every, hook);
        (unit, outcome, Events::Streamed)
    }

    /// Drain one unit in its turn: replay its buffered events through
    /// the sink (opening its shard first) and save it to the
    /// checkpoint with the sink's writer state.
    fn drain(&mut self, (unit, outcome, events): (&Unit<'_>, Outcome, Events)) -> Outcome {
        match events {
            Events::Stored => return outcome,
            Events::Streamed => {}
            Events::Buffered(buffer) => {
                let sink = self.sink.as_mut().expect("a buffer implies a sink");
                if let Some(shard) = &unit.shard {
                    sink.begin_shard(shard);
                }
                for (event, ledger) in buffer.0 {
                    match ledger {
                        Some(ledger) => sink.record_with_ledger(event, &ledger),
                        None => sink.record(event),
                    }
                }
            }
        }
        if self.path.is_some() {
            self.ckpt
                .completed
                .push((unit.name.clone(), outcome.encode()));
            if unit.records {
                if let Some(ws) = self.sink.as_mut().and_then(TraceSink::ckpt_state) {
                    self.ckpt.writer_state = Some(ws);
                }
            }
            self.ckpt.inflight = None;
            save(&self.path, &self.ckpt);
        }
        outcome
    }

    /// Finish the run's sink: the trace and timeline files and the
    /// health report ([`ObsArgs::finish_trace`]).
    pub fn finish(self, obs: &ObsArgs) {
        obs.finish_trace(self.sink);
    }
}

/// Write the checkpoint `file` to `path` (none without `--ckpt`).
fn save(path: &Option<String>, file: &CkptFile) {
    if let Some(path) = path {
        if let Err(e) = write_atomic(path, &file.encode()) {
            fail(&format!("cannot write checkpoint {path}: {e}"));
        }
    }
}
