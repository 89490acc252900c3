//! Sweep-level checkpoint/resume for the bench bins.
//!
//! The sweep bins (`fig6`, `fig7`, `faults`, `speedup`, `ablation`)
//! accept:
//!
//! * `--ckpt out.jck` — write a checkpoint after every completed
//!   sweep unit and, inside long scenario runs, every `--ckpt-every`
//!   invocations (default 25; `ablation`'s variant units have no
//!   in-run checkpoints, so it does not take the flag);
//! * `--resume out.jck` — continue a killed run: completed units are
//!   replayed from their stored results (no re-execution), the
//!   in-flight unit restarts from its invocation-boundary snapshot,
//!   and the `.jtb` trace and `.jts` timeline streams reopen at their
//!   checkpointed offsets.
//!
//! The contract is **bit-identical output**: a run that is killed and
//! resumed any number of times writes the same `BENCH_*.json` and the
//! same `.jtb` bytes as one uninterrupted run — the resumed loop is
//! the same code path ([`jem_core::run_scenario_ckpt`]), capture is
//! read-only, and every finished artifact is written atomically.
//!
//! Incompatible combinations are rejected up front rather than
//! silently degraded: the monitor tee carries state that only
//! materializes at exit, so `--ckpt` requires no
//! `--monitor`/`--health-out`.

use crate::obs::{BenchSink, ObsArgs};
use jem_core::ckpt::{
    decode_result, encode_result, run_scenario_ckpt, CkptFile, InflightCkpt, RunSnapshot,
};
use jem_core::{Profile, ResilienceConfig, ScenarioResult, Strategy, Workload};
use jem_obs::{write_atomic, NullSink, TraceSink};
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

    /// `--ckpt-every`: bins whose units are scenario runs, checkpointed
    /// inside the run ([`SweepSession::run_unit`]).
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

    /// Whether checkpointing is on at all.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Reject output combinations a checkpoint cannot restore.
    pub fn validate(&self, obs: &ObsArgs) {
        if !self.enabled() {
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
        if obs.flush_every_ms.is_some() {
            fail(
                "--ckpt and --flush-every cannot be combined: resume truncates back to \
                 the checkpointed offset, which assumes the default block cadence",
            );
        }
    }
}

/// One bench invocation's checkpointed sweep: an ordered series of
/// named units, each either a full scenario run (resumable at
/// invocation granularity) or an opaque payload (resumable at unit
/// granularity).
pub struct SweepSession {
    path: Option<String>,
    every: usize,
    fingerprint: String,
    completed: Vec<(String, Vec<u8>)>,
    sink_state: Option<Vec<u8>>,
    inflight: Option<InflightCkpt>,
}

impl SweepSession {
    /// Start (or resume) a session. `fingerprint` must encode the bin
    /// name and every argument that shapes the sweep — resuming with
    /// a different invocation is refused.
    pub fn open(args: &CkptArgs, fingerprint: String) -> SweepSession {
        let mut session = SweepSession {
            path: args.path.clone(),
            every: args.every,
            fingerprint,
            completed: Vec::new(),
            sink_state: None,
            inflight: None,
        };
        if args.resume {
            let path = session.path.as_deref().expect("resume implies a path");
            if std::path::Path::new(path).exists() {
                let file = match CkptFile::load(path) {
                    Ok(f) => f,
                    Err(e) => fail(&format!("cannot resume from {path}: {e}")),
                };
                if file.fingerprint != session.fingerprint {
                    fail(&format!(
                        "{path} was written by a different invocation\n  checkpoint: {}\n  \
                         this run:  {}",
                        file.fingerprint, session.fingerprint
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
                session.completed = file.completed;
                session.sink_state = file.writer_state;
                session.inflight = file.inflight;
            } else {
                eprintln!("resume: {path} does not exist yet, starting fresh");
            }
        }
        session
    }

    /// The checkpointed `.jtb` writer state, for
    /// [`ObsArgs::trace_sink_resumed`].
    pub fn writer_state(&self) -> Option<&[u8]> {
        self.sink_state.as_deref()
    }

    /// Whether unit `name` runs from its start: it is neither a
    /// completed unit nor the in-flight unit of the resumed checkpoint.
    pub fn is_fresh(&self, name: &str) -> bool {
        !self.completed.iter().any(|(n, _)| n == name)
            && self.inflight.as_ref().is_none_or(|inf| inf.unit != name)
    }

    /// Record unit `name` as completed with `payload`, together with
    /// the writer state of the `sink` it recorded into, and save.
    fn complete(&mut self, name: &str, payload: Vec<u8>, sink: Option<&mut BenchSink>) {
        if self.path.is_none() {
            return;
        }
        self.completed.push((name.to_string(), payload));
        if let Some(ws) = sink.and_then(|s| s.ckpt_state()) {
            self.sink_state = Some(ws);
        }
        self.save(None);
    }

    fn save(&self, inflight: Option<InflightCkpt>) {
        let Some(path) = &self.path else { return };
        let file = CkptFile {
            fingerprint: self.fingerprint.clone(),
            completed: self.completed.clone(),
            writer_state: self.sink_state.clone(),
            inflight,
        };
        if let Err(e) = write_atomic(path, &file.encode()) {
            fail(&format!("cannot write checkpoint {path}: {e}"));
        }
    }

    /// Run one scenario unit, checkpointing at invocation boundaries.
    /// A unit already in the checkpoint returns its stored result
    /// without re-running (its trace bytes are already on disk below
    /// the checkpointed writer offset); the in-flight unit resumes
    /// from its snapshot; anything else runs fresh.
    #[allow(clippy::too_many_arguments)]
    pub fn run_unit(
        &mut self,
        name: &str,
        workload: &dyn Workload,
        profile: &Profile,
        scenario: &Scenario,
        strategy: Strategy,
        resilience: &ResilienceConfig,
        mut sink: Option<&mut BenchSink>,
    ) -> ScenarioResult {
        if let Some((_, payload)) = self.completed.iter().find(|(n, _)| n == name) {
            match decode_result(payload) {
                Ok(r) => return r,
                Err(e) => fail(&format!("corrupt stored result for unit `{name}`: {e}")),
            }
        }
        let resume_snap = match self.inflight.take() {
            Some(inf) if inf.unit == name => match RunSnapshot::decode(&inf.snapshot) {
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

        let every = if self.path.is_some() { self.every } else { 0 };
        let (path, fingerprint) = (&self.path, &self.fingerprint);
        let (completed, sink_state) = (&self.completed, &mut self.sink_state);
        let mut hook = |snap: &RunSnapshot, writer: Option<Vec<u8>>| {
            if writer.is_some() {
                *sink_state = writer;
            }
            let file = CkptFile {
                fingerprint: fingerprint.clone(),
                completed: completed.clone(),
                writer_state: sink_state.clone(),
                inflight: Some(InflightCkpt {
                    unit: name.to_string(),
                    snapshot: snap.encode(),
                }),
            };
            let path = path.as_deref().expect("hook only runs with a path");
            if let Err(e) = write_atomic(path, &file.encode()) {
                fail(&format!("cannot write checkpoint {path}: {e}"));
            }
        };
        let sink_dyn: Option<&mut dyn TraceSink> = match sink.as_mut() {
            Some(s) => Some(&mut **s),
            None => None,
        };
        let result = match run_scenario_ckpt(
            workload,
            profile,
            scenario,
            strategy,
            resilience,
            sink_dyn,
            resume_snap.as_ref(),
            every,
            if self.path.is_some() {
                Some(&mut hook)
            } else {
                None
            },
        ) {
            Ok(r) => r,
            Err(e) => fail(&format!("unit `{name}` failed: {e}")),
        };

        self.complete(name, encode_result(&result), sink);
        result
    }

    /// Run one opaque unit (unit-level granularity): the payload of a
    /// completed unit is returned without re-running `f`. `f` records
    /// into `sink` (a [`NullSink`] when there is none), whose writer
    /// state is saved with the completed unit, as
    /// [`SweepSession::run_unit`] does.
    pub fn unit(
        &mut self,
        name: &str,
        mut sink: Option<&mut BenchSink>,
        f: impl FnOnce(&mut dyn TraceSink) -> Vec<u8>,
    ) -> Vec<u8> {
        if let Some((_, payload)) = self.completed.iter().find(|(n, _)| n == name) {
            return payload.clone();
        }
        if let Some(inf) = self.inflight.take() {
            if inf.unit != name {
                fail(&format!(
                    "checkpoint is in-flight in unit `{}` but the sweep reached `{name}` \
                     first — the unit order diverged",
                    inf.unit
                ));
            }
            // Opaque units carry no snapshot; restart the unit.
        }
        let payload = match sink.as_deref_mut() {
            Some(s) => f(s),
            None => f(&mut NullSink),
        };
        self.complete(name, payload.clone(), sink);
        payload
    }
}
