//! The simulated execution machine: prices instruction events and
//! tracks time.
//!
//! A [`Machine`] is the meeting point between the MJVM (which produces
//! abstract instruction events while interpreting bytecode or running
//! JIT-generated native code) and the energy model. It simulates
//! instruction fetch through the I-cache, data accesses through the
//! D-cache, charges Fig 1 energies to an [`EnergyBreakdown`], and
//! counts cycles.
//!
//! Two machines exist in every experiment:
//!
//! * the **client**: a 100 MHz microSPARC-IIep-like core with 16 KB
//!   I-cache / 8 KB D-cache, whose energy we care about, and
//! * the **server**: a 750 MHz SPARC workstation with larger caches.
//!   Its energy is free (the paper optimizes *client* energy) but its
//!   cycle count determines how long the client stays powered down.
//!
//! During remote execution the paper places "the processor, memory and
//! the receiver into a power-down state" in which the processor still
//! burns leakage, "assumed to be 10 % of the normal power consumption".
//! [`Machine::power_down`] implements exactly that.

use crate::cache::{CacheConfig, CacheSim, CacheState, CacheStats};
use crate::itable::{EnergyTable, InstrClass, InstrMix};
use crate::meter::{Component, EnergyBreakdown};
use crate::units::{Energy, Power, SimTime};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Data-memory behaviour of one instruction event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// No data access.
    None,
    /// Data read from the given simulated byte address.
    Read(u64),
    /// Data write to the given simulated byte address.
    Write(u64),
}

/// CPU power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerState {
    /// Executing normally.
    Active,
    /// Powered down (remote execution in flight); only leakage burns.
    PowerDown,
}

/// Static configuration of a simulated machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Per-instruction energy table (Fig 1).
    pub table: EnergyTable,
    /// Instruction cache geometry (`None` disables fetch simulation).
    pub icache: Option<CacheConfig>,
    /// Data cache geometry (`None` disables data-access simulation).
    pub dcache: Option<CacheConfig>,
    /// Pipeline stall cycles per cache miss (DRAM latency).
    pub miss_penalty_cycles: u32,
    /// Nominal active power of core + memory, used to price leakage
    /// during power-down.
    pub nominal_power: Power,
    /// Fraction of nominal power burned while powered down (the paper
    /// assumes 0.10).
    pub leak_fraction: f64,
}

impl MachineConfig {
    /// The paper's mobile client: 100 MHz microSPARC-IIep, 16 KB
    /// I-cache, 8 KB D-cache, 32 MB off-chip DRAM.
    ///
    /// The nominal active power follows from the energy table itself:
    /// ~3.5 nJ/instruction at 100 MIPS is ~350 mW, consistent with the
    /// low-power embedded cores of the period.
    pub fn mobile_client() -> Self {
        MachineConfig {
            clock_hz: 100e6,
            table: EnergyTable::microsparc_iiep(),
            icache: Some(CacheConfig::client_icache()),
            dcache: Some(CacheConfig::client_dcache()),
            miss_penalty_cycles: 10,
            nominal_power: Power::from_milliwatts(350.0),
            leak_fraction: 0.10,
        }
    }

    /// The paper's remote server: a 750 MHz SPARC workstation. Caches
    /// are larger and the miss penalty (in cycles) higher, as on real
    /// workstation-class parts. Its energy ledger is maintained but
    /// never charged to the client.
    pub fn sparc_server() -> Self {
        MachineConfig {
            clock_hz: 750e6,
            table: EnergyTable::microsparc_iiep(),
            icache: Some(CacheConfig {
                size_bytes: 64 * 1024,
                line_bytes: 32,
            }),
            dcache: Some(CacheConfig {
                size_bytes: 64 * 1024,
                line_bytes: 32,
            }),
            miss_penalty_cycles: 40,
            nominal_power: Power::from_watts(25.0),
            leak_fraction: 0.10,
        }
    }

    /// Duration of one clock cycle.
    pub fn cycle_time(&self) -> SimTime {
        SimTime::from_nanos(1e9 / self.clock_hz)
    }
}

/// A running machine instance.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    icache: Option<CacheSim>,
    dcache: Option<CacheSim>,
    cycles: u64,
    /// Wall time spent outside normal execution (power-down waits).
    extra_time: SimTime,
    breakdown: EnergyBreakdown,
    mix: InstrMix,
    state: PowerState,
}

impl Machine {
    /// Build a machine in the [`PowerState::Active`] state.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            icache: config.icache.map(CacheSim::new),
            dcache: config.dcache.map(CacheSim::new),
            cycles: 0,
            extra_time: SimTime::ZERO,
            breakdown: EnergyBreakdown::new(),
            mix: InstrMix::new(),
            state: PowerState::Active,
            config,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Execute one instruction event.
    ///
    /// `pc` is the simulated byte address the instruction was fetched
    /// from (drives the I-cache); `mem` describes its data access
    /// (drives the D-cache). Charges core energy per Fig 1 and DRAM
    /// energy per miss, and advances the cycle counter (1 cycle base +
    /// miss penalties).
    ///
    /// # Panics
    /// In debug builds, if called while powered down — the caller must
    /// wake the machine first.
    #[inline]
    pub fn step(&mut self, pc: u64, class: InstrClass, mem: MemOp) {
        debug_assert_eq!(self.state, PowerState::Active, "step while powered down");
        let mut cycles: u64 = 1;
        if let Some(icache) = &mut self.icache {
            if !icache.access(pc) {
                cycles += self.config.miss_penalty_cycles as u64;
                self.breakdown
                    .charge(Component::Dram, self.config.table.main_memory);
                self.mix.mem_accesses += 1;
            }
        }
        match mem {
            MemOp::None => {}
            MemOp::Read(addr) | MemOp::Write(addr) => {
                if let Some(dcache) = &mut self.dcache {
                    if !dcache.access(addr) {
                        cycles += self.config.miss_penalty_cycles as u64;
                        self.breakdown
                            .charge(Component::Dram, self.config.table.main_memory);
                        self.mix.mem_accesses += 1;
                    }
                }
            }
        }
        self.breakdown
            .charge(Component::Core, self.config.table.energy(class));
        self.mix.record(class, 1);
        self.cycles += cycles;
    }

    /// Replay a precompiled [`SeqPlan`]: one straight-line sequence of
    /// machine events, batched. This is the machine's only batched
    /// replay; native segments and interpreter segments both use it.
    ///
    /// This is the bit-exact batched equivalent of the calls the plan
    /// was built from, in order: [`Machine::step`] at `code_base + off`
    /// once per micro, and `step(code_base + fetch, lead, None)`
    /// followed by one [`Machine::charge_mix`] per mix for each
    /// dispatch (see [`SeqPlan::dispatch`]):
    ///
    /// * **I-cache** — because `code_base` is line-aligned, the
    ///   grouping of consecutive fetches into cache lines is static.
    ///   Only the *first* fetch of each line is simulated; the
    ///   follow-on fetches are guaranteed hits (a direct-mapped line
    ///   just accessed cannot be evicted by fetches to other lines of
    ///   the same sequence, and hits never modify tags), so they are
    ///   credited in bulk via [`CacheSim::credit_hits`].
    /// * **D-cache** — data-bearing micros are replayed individually,
    ///   in issue order, at their true addresses, because heap
    ///   locality is dynamic: `frame_base + offset` for spills, and for
    ///   the `i`-th heap micro `heap_addrs[i]`, where `None` means the
    ///   micro makes no D-cache access.
    /// * **Core energy** — the ordered additions (`energy(class)` per
    ///   micro or lead, each `energy(class) * n` product a mix
    ///   charges) are folded into one exact add whenever that gives
    ///   the same bits as adding them individually in order, and
    ///   replayed one by one otherwise (see the private `CoreFold`).
    /// * **DRAM energy** — every miss charges the same
    ///   `table.main_memory` constant, so reordering the D-cache
    ///   misses after the I-cache misses leaves the DRAM accumulator
    ///   bit-identical (adding the same constant `k` times is
    ///   order-independent); the count of additions is preserved.
    /// * **Cycles / mix** — integer bookkeeping is associative and is
    ///   folded into single additions.
    ///
    /// # Panics
    /// In debug builds, if called while powered down, if `code_base`
    /// is not aligned to the plan's line size, if the plan was
    /// compiled for a different I-cache line size than this machine's,
    /// or if `heap_addrs` does not hold one entry per heap micro.
    ///
    /// Always inlined: it runs once per segment in both engines' hot
    /// loops, and with two engines calling it the compiler otherwise
    /// keeps it out of line.
    #[inline(always)]
    pub fn step_seq(
        &mut self,
        plan: &SeqPlan,
        code_base: u64,
        frame_base: u64,
        heap_addrs: &[Option<u64>],
    ) {
        debug_assert_eq!(self.state, PowerState::Active, "step while powered down");
        debug_assert_eq!(
            code_base % u64::from(plan.line_bytes),
            0,
            "code base not line-aligned"
        );
        debug_assert_eq!(
            heap_addrs.len(),
            plan.mems
                .iter()
                .filter(|m| matches!(m, SeqDataRef::Heap { .. }))
                .count(),
            "one heap address per heap micro"
        );
        let penalty = u64::from(self.config.miss_penalty_cycles);
        let mut cycles = plan.cycles;
        if let Some(icache) = &mut self.icache {
            debug_assert_eq!(
                icache.config().line_bytes % plan.line_bytes,
                0,
                "plan line grouping incompatible with I-cache line size"
            );
            for &(off, extra) in plan.lines.iter() {
                if !icache.access(code_base + off) {
                    cycles += penalty;
                    self.breakdown
                        .charge(Component::Dram, self.config.table.main_memory);
                    self.mix.mem_accesses += 1;
                }
                icache.credit_hits(u64::from(extra));
            }
        }
        if let Some(dcache) = &mut self.dcache {
            let mut heap = heap_addrs.iter();
            for mem in plan.mems.iter() {
                let addr = match *mem {
                    SeqDataRef::None => continue,
                    SeqDataRef::Frame { offset, .. } => frame_base + offset,
                    SeqDataRef::Heap { .. } => match heap.next() {
                        Some(&Some(a)) => a,
                        _ => continue,
                    },
                };
                if !dcache.access(addr) {
                    cycles += penalty;
                    self.breakdown
                        .charge(Component::Dram, self.config.table.main_memory);
                    self.mix.mem_accesses += 1;
                }
            }
        }
        self.charge_core(&plan.core, &plan.fold);
        for &(class, n) in plan.classes.iter() {
            self.mix.record(class, n);
        }
        self.cycles += cycles;
    }

    /// Add the ordered `core` energies to the Core accumulator, ending
    /// on exactly the bits of adding them one at a time: one exact add
    /// when `fold` proves that possible at the accumulator's current
    /// binade, the literal serial loop otherwise.
    #[inline]
    fn charge_core(&mut self, core: &[Energy], fold: &CoreFold) {
        let acc = self.breakdown[Component::Core].nanojoules().to_bits();
        let ulps = fold.ulps(acc >> 52, core);
        if ulps < (1u64 << 52) - (acc & MANTISSA) {
            // acc + ulps·u, exact: the sum stays in acc's binade, so
            // adding to the significand field cannot carry.
            self.breakdown[Component::Core] = Energy::from_nanojoules(f64::from_bits(acc + ulps));
        } else {
            for e in core {
                self.breakdown.charge(Component::Core, *e);
            }
        }
    }

    /// Bulk-charge an instruction mix without cache simulation — used
    /// for work whose memory behaviour is summarized rather than
    /// traced (e.g. JIT compiler passes, serialization loops). Each
    /// recorded memory access is priced as a DRAM access plus the miss
    /// penalty.
    #[inline]
    pub fn charge_mix(&mut self, mix: &InstrMix) {
        debug_assert_eq!(self.state, PowerState::Active, "charge while powered down");
        for class in InstrClass::ALL {
            let n = mix.count(class);
            if n > 0 {
                self.breakdown
                    .charge(Component::Core, self.config.table.energy(class) * n as f64);
            }
        }
        if mix.mem_accesses > 0 {
            self.breakdown.charge(
                Component::Dram,
                self.config.table.main_memory * mix.mem_accesses as f64,
            );
        }
        self.mix += *mix;
        self.cycles += mix.total() + mix.mem_accesses * self.config.miss_penalty_cycles as u64;
    }

    /// Enter the power-down state for `duration`: wall time advances,
    /// and leakage (10 % of nominal power) is charged.
    pub fn power_down(&mut self, duration: SimTime) {
        self.state = PowerState::PowerDown;
        let leak = self.config.nominal_power * self.config.leak_fraction;
        self.breakdown
            .charge(Component::Leakage, leak.over(duration));
        self.extra_time += duration;
        self.state = PowerState::Active;
    }

    /// Busy-wait (active idle) for `duration`: wall time advances and
    /// the core burns nominal power — what happens when the client
    /// waits for the radio *without* powering down.
    pub fn active_idle(&mut self, duration: SimTime) {
        self.breakdown
            .charge(Component::Core, self.config.nominal_power.over(duration));
        self.extra_time += duration;
    }

    /// Charge radio energy onto this machine's ledger.
    pub fn charge_radio(&mut self, tx: Energy, rx: Energy) {
        self.breakdown.charge(Component::RadioTx, tx);
        self.breakdown.charge(Component::RadioRx, rx);
    }

    /// Cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total elapsed simulated time (execution + waits).
    pub fn elapsed(&self) -> SimTime {
        SimTime::from_cycles(self.cycles, self.config.clock_hz) + self.extra_time
    }

    /// The energy ledger.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    /// Total energy so far.
    pub fn energy(&self) -> Energy {
        self.breakdown.total()
    }

    /// Executed instruction histogram.
    pub fn mix(&self) -> InstrMix {
        self.mix
    }

    /// I-cache statistics, if an I-cache is configured.
    pub fn icache_stats(&self) -> Option<CacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// D-cache statistics, if a D-cache is configured.
    pub fn dcache_stats(&self) -> Option<CacheStats> {
        self.dcache.as_ref().map(|c| c.stats())
    }

    /// Snapshot of (cycles, energy) — used to meter a sub-interval.
    pub fn checkpoint(&self) -> MachineCheckpoint {
        MachineCheckpoint {
            cycles: self.cycles,
            extra_time: self.extra_time,
            breakdown: self.breakdown,
        }
    }

    /// Energy and time consumed since `checkpoint`.
    pub fn since(&self, checkpoint: &MachineCheckpoint) -> (Energy, SimTime) {
        let energy = self.breakdown.total() - checkpoint.breakdown.total();
        let time = SimTime::from_cycles(self.cycles - checkpoint.cycles, self.config.clock_hz)
            + (self.extra_time - checkpoint.extra_time);
        (energy, time)
    }

    /// Snapshot the complete mutable state — counters, ledger, mix,
    /// power state and cache residency — for checkpointing. Restoring
    /// with [`Machine::import_state`] on a machine of the same
    /// configuration reproduces all subsequent accounting bit-exactly.
    pub fn export_state(&self) -> MachineState {
        MachineState {
            cycles: self.cycles,
            extra_time: self.extra_time,
            breakdown: self.breakdown,
            mix: self.mix,
            state: self.state,
            icache: self.icache.as_ref().map(CacheSim::export_state),
            dcache: self.dcache.as_ref().map(CacheSim::export_state),
        }
    }

    /// Restore state captured by [`Machine::export_state`].
    ///
    /// # Panics
    /// If the snapshot's cache presence or geometry does not match
    /// this machine's configuration.
    pub fn import_state(&mut self, state: &MachineState) {
        self.cycles = state.cycles;
        self.extra_time = state.extra_time;
        self.breakdown = state.breakdown;
        self.mix = state.mix;
        self.state = state.state;
        match (&mut self.icache, &state.icache) {
            (Some(sim), Some(s)) => sim.import_state(s),
            (None, None) => {}
            _ => panic!("machine state icache presence mismatch"),
        }
        match (&mut self.dcache, &state.dcache) {
            (Some(sim), Some(s)) => sim.import_state(s),
            (None, None) => {}
            _ => panic!("machine state dcache presence mismatch"),
        }
    }

    /// Reset energy/cycle accounting and caches (fresh run on the same
    /// configuration).
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.extra_time = SimTime::ZERO;
        self.breakdown = EnergyBreakdown::new();
        self.mix = InstrMix::new();
        if let Some(c) = &mut self.icache {
            c.flush();
            c.reset_stats();
        }
        if let Some(c) = &mut self.dcache {
            c.flush();
            c.reset_stats();
        }
        self.state = PowerState::Active;
    }
}

/// Serializable snapshot of a [`Machine`]'s complete mutable state
/// (configuration excluded — it is static and re-derivable).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// Cycle counter.
    pub cycles: u64,
    /// Wall time spent outside normal execution.
    pub extra_time: SimTime,
    /// Energy ledger.
    pub breakdown: EnergyBreakdown,
    /// Executed instruction histogram.
    pub mix: InstrMix,
    /// Power state.
    pub state: PowerState,
    /// I-cache residency, if configured.
    pub icache: Option<CacheState>,
    /// D-cache residency, if configured.
    pub dcache: Option<CacheState>,
}

/// Opaque snapshot returned by [`Machine::checkpoint`].
#[derive(Debug, Clone, Copy)]
pub struct MachineCheckpoint {
    cycles: u64,
    extra_time: SimTime,
    breakdown: EnergyBreakdown,
}

/// Significand field of an `f64`'s bits.
const MANTISSA: u64 = (1 << 52) - 1;

/// [`CoreFold`] sentinel: the addends cannot be folded at this binade.
const NO_FOLD: u64 = u64::MAX;

/// Exact fold of a batched plan's ordered Core additions into one add.
///
/// Let the accumulator `acc` be positive, normal and in the binade
/// `[2^E, 2^(E+1))`, where every `f64` is a multiple of `u = 2^(E-52)`.
/// For an addend `e ≥ 0`, `q = e/u` is exact (`u` is a power of two),
/// and if `q` is not a half-integer then `fl(acc + e) = acc + round(q)·u`
/// for every such `acc`, provided the sum stays in the binade. So the
/// ordered adds `acc + e_1 + … + e_n` end on exactly
/// `acc + (Σ round(e_i/u))·u` whenever that stays below `2^(E+1)`: the
/// partial sums only grow, so each of them stays in the binade too.
///
/// The memo holds `(acc_bits >> 52, Σ round(e_i/u))` for the binade
/// last seen. It depends only on the binade and the plan's addends, is
/// recomputed when the accumulator changes binade, and is never
/// serialized, so a cold memo (a fresh plan after resume) behaves
/// identically. The fold is refused — [`NO_FOLD`], and the caller
/// replays the serial adds — when `acc` is zero, subnormal, negative
/// or not finite, when an addend is negative or not finite, when some
/// `e_i/u` is a half-integer (ties-to-even then depends on the
/// running significand's parity), or when some `e_i/u ≥ 2^53`; the
/// caller also replays when the folded sum would leave the binade.
#[derive(Debug, Clone)]
struct CoreFold(Cell<(u64, u64)>);

impl CoreFold {
    /// An empty memo. Its binade key, 0, is that of zero and the
    /// subnormals, which never fold.
    fn new() -> Self {
        CoreFold(Cell::new((0, NO_FOLD)))
    }

    /// `Σ round(e_i/u)` over `core` at the binade whose bits-`>> 52`
    /// key is `key`, or [`NO_FOLD`].
    #[inline]
    fn ulps(&self, key: u64, core: &[Energy]) -> u64 {
        let (memo_key, ulps) = self.0.get();
        if memo_key == key {
            return ulps;
        }
        let ulps = fold_ulps(key, core);
        self.0.set((key, ulps));
        ulps
    }
}

/// `Σ round(e_i/u)` over `core`, where `u` is the ulp of the positive
/// normal binade with biased exponent `key`; [`NO_FOLD`] if any term is
/// not exactly foldable (see [`CoreFold`]) or the sum reaches `2^52`,
/// beyond which no accumulator in the binade could take it.
#[cold]
#[inline(never)]
fn fold_ulps(key: u64, core: &[Energy]) -> u64 {
    // Sign bit set (negative) lands at key >= 0x800, above inf/NaN.
    if key == 0 || key >= 0x7ff {
        return NO_FOLD;
    }
    let mut sum = 0u64;
    for e in core {
        let bits = e.nanojoules().to_bits();
        let exp = bits >> 52;
        if exp >= 0x7ff {
            return NO_FOLD;
        }
        // e = m·2^(max(exp, 1) - 1075) and u = 2^(key - 1075).
        let m = if exp == 0 {
            bits & MANTISSA
        } else {
            (bits & MANTISSA) | (1 << 52)
        };
        let shift = exp.max(1) as i64 - key as i64;
        let q = if shift >= 0 {
            if shift >= 53 || m >= 1 << (53 - shift) {
                return NO_FOLD;
            }
            m << shift
        } else if shift <= -54 {
            // m < 2^53, so e/u < 1/2: the add leaves acc unchanged.
            0
        } else {
            let t = (-shift) as u32;
            let half = 1u64 << (t - 1);
            let rem = m & ((1u64 << t) - 1);
            if rem == half {
                return NO_FOLD;
            }
            (m >> t) + u64::from(rem > half)
        };
        sum += q;
        if sum >= 1 << 52 {
            return NO_FOLD;
        }
    }
    sum
}

/// Data access performed by one micro-instruction of a [`SeqPlan`].
///
/// Addresses are split into a static part (captured at compile time)
/// and a dynamic part (supplied to [`Machine::step_seq`] per replay),
/// mirroring how JIT-emitted code addresses its spill frame and heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqDataRef {
    /// No data access.
    None,
    /// Spill-frame access at `frame_base + offset`.
    Frame {
        /// Write (store) rather than read.
        store: bool,
        /// Byte offset from the frame base supplied at replay time.
        offset: u64,
    },
    /// Heap access at the address supplied at replay time.
    Heap {
        /// Write (store) rather than read.
        store: bool,
    },
}

/// A precompiled batched charge plan for one straight-line sequence of
/// machine events, replayed by [`Machine::step_seq`].
///
/// The events are emitted native micro-instructions
/// ([`SeqPlan::compile_at`]), interpreter dispatches
/// ([`SeqPlan::dispatch`]), or any concatenation of such plans
/// ([`SeqPlan::concat`]). A plan is compiled once per (sequence, energy
/// table, I-cache grouping) and replayed on every execution of the
/// sequence. It pre-resolves everything static about the accounting
/// (line grouping of consecutive fetches, the ordered core-energy
/// additions and their exact fold, folded instruction histogram and
/// base cycles) while keeping everything dynamic (cache hit/miss
/// outcomes, data addresses) live. Replay is bit-exact with the calls
/// the plan was built from — see [`Machine::step_seq`] for the
/// argument.
#[derive(Debug, Clone)]
pub struct SeqPlan {
    /// One entry per run of consecutive same-granule fetches, in
    /// order: byte offset (from the line-aligned code base) of the
    /// run's first fetch, plus the number of guaranteed follow-on hits.
    lines: Box<[(u64, u32)]>,
    /// Ordered core-energy additions.
    core: Box<[Energy]>,
    /// Data-bearing micros, in issue order.
    mems: Box<[SeqDataRef]>,
    /// Folded instruction histogram of the whole sequence, as nonzero
    /// `(class, count)` pairs.
    classes: Box<[(InstrClass, u64)]>,
    /// Base cycles: one per micro, and per dispatch one for its fetch
    /// plus one per instruction of its mixes (miss penalties are added
    /// on replay).
    cycles: u64,
    /// Fetch grouping granule: a power of two dividing the I-cache's
    /// line size.
    line_bytes: u32,
    /// Derived fold of `core` at the last Core binade seen.
    fold: CoreFold,
}

impl SeqPlan {
    /// Compile a plan equivalent to, for each `(class, mem)` micro at
    /// index `i`,
    /// `step(code_base + start_byte + i * instr_bytes, class, mem)`,
    /// assuming `code_base` will be aligned to `line_bytes`.
    ///
    /// `line_bytes` is the grouping granule: any power of two that
    /// divides the target I-cache's actual line size is sound (two
    /// fetches within one granule are then always within one cache
    /// line), so callers unsure of the exact geometry can group
    /// conservatively, e.g. at `actual_line_bytes.min(32)` when code
    /// bases are 32-byte aligned.
    ///
    /// # Panics
    /// If `line_bytes` is not a power of two or `instr_bytes` is zero.
    pub fn compile(
        table: &EnergyTable,
        start_byte: u64,
        instr_bytes: u64,
        line_bytes: u32,
        micros: &[(InstrClass, SeqDataRef)],
    ) -> Self {
        assert!(instr_bytes > 0, "zero-size instructions");
        let offs: Vec<(u64, InstrClass, SeqDataRef)> = micros
            .iter()
            .enumerate()
            .map(|(i, &(class, mem))| (start_byte + i as u64 * instr_bytes, class, mem))
            .collect();
        Self::compile_at(table, line_bytes, &offs)
    }

    /// Compile a plan equivalent to, for each `(off, class, mem)` micro,
    /// `step(code_base + off, class, mem)` in slice order, assuming
    /// `code_base` will be aligned to `line_bytes`.
    ///
    /// Unlike [`SeqPlan::compile`] the fetch offsets are explicit, so a
    /// caller can merge several consecutive emitted sequences (e.g. a
    /// straight-line run of JIT'd instructions) into one plan. Offsets
    /// need not be contiguous or even monotonic: only *consecutive*
    /// same-line fetches are grouped into guaranteed hits, which is
    /// sound regardless of the overall offset pattern.
    ///
    /// # Panics
    /// If `line_bytes` is not a power of two.
    pub fn compile_at(
        table: &EnergyTable,
        line_bytes: u32,
        micros: &[(u64, InstrClass, SeqDataRef)],
    ) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let mut lines: Vec<(u64, u32)> = Vec::new();
        let mut core = Vec::with_capacity(micros.len());
        let mut mems = Vec::new();
        let mut mix = InstrMix::new();
        for &(off, class, mem) in micros {
            push_fetch(&mut lines, line_bytes, off, 0);
            core.push(table.energy(class));
            mix.record(class, 1);
            if mem != SeqDataRef::None {
                mems.push(mem);
            }
        }
        SeqPlan {
            lines: lines.into_boxed_slice(),
            core: core.into_boxed_slice(),
            mems: mems.into_boxed_slice(),
            classes: nonzero_classes(&mix),
            cycles: micros.len() as u64,
            line_bytes,
            fold: CoreFold::new(),
        }
    }

    /// Compile one interpreter dispatch: a plan equivalent to
    /// `step(code_base + fetch_pc, lead, MemOp::None)` followed by
    /// `charge_mix(m)` for each mix in `mixes`, in order.
    ///
    /// The core additions are the lead's `energy(lead)` and then, per
    /// mix, each nonzero `energy(class) * n` product in the order
    /// `charge_mix` issues them, so the replayed additions carry
    /// identical bits.
    ///
    /// # Panics
    /// If `line_bytes` is not a power of two, or if a mix records
    /// main-memory accesses (those are priced as one DRAM add of their
    /// own, which a plan does not fold).
    pub fn dispatch(
        table: &EnergyTable,
        line_bytes: u32,
        fetch_pc: u64,
        lead: InstrClass,
        mixes: &[InstrMix],
    ) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let mut core = vec![table.energy(lead)];
        let mut mix = InstrMix::new().with(lead, 1);
        for m in mixes {
            assert_eq!(
                m.mem_accesses, 0,
                "a dispatch plan cannot fold DRAM accesses"
            );
            for class in InstrClass::ALL {
                let n = m.count(class);
                if n > 0 {
                    core.push(table.energy(class) * n as f64);
                }
            }
            mix += *m;
        }
        SeqPlan {
            lines: Box::new([(fetch_pc, 0)]),
            core: core.into_boxed_slice(),
            mems: Box::new([]),
            classes: nonzero_classes(&mix),
            cycles: mix.total(),
            line_bytes,
            fold: CoreFold::new(),
        }
    }

    /// Concatenate `plans` into one plan equivalent to replaying each
    /// of them in order with the same `code_base` and `frame_base`,
    /// and the heap addresses of all of them, in order.
    ///
    /// Core additions, data micros and fetches keep their order; a
    /// fetch in the same granule as the fetch just before it becomes a
    /// guaranteed hit, as in [`SeqPlan::compile_at`].
    ///
    /// # Panics
    /// If `plans` is empty or its plans group fetches at different
    /// granules.
    pub fn concat(plans: &[&SeqPlan]) -> Self {
        let line_bytes = plans.first().expect("at least one plan").line_bytes;
        let mut lines: Vec<(u64, u32)> = Vec::new();
        let mut core = Vec::new();
        let mut mems = Vec::new();
        let mut mix = InstrMix::new();
        let mut cycles = 0;
        for p in plans {
            assert_eq!(
                p.line_bytes, line_bytes,
                "plans grouped at different granules"
            );
            for &(off, hits) in p.lines.iter() {
                push_fetch(&mut lines, line_bytes, off, hits);
            }
            core.extend_from_slice(&p.core);
            mems.extend_from_slice(&p.mems);
            for &(class, n) in p.classes.iter() {
                mix.record(class, n);
            }
            cycles += p.cycles;
        }
        SeqPlan {
            lines: lines.into_boxed_slice(),
            core: core.into_boxed_slice(),
            mems: mems.into_boxed_slice(),
            classes: nonzero_classes(&mix),
            cycles,
            line_bytes,
            fold: CoreFold::new(),
        }
    }
}

/// Append a fetch at `off` followed by `hits` guaranteed hits to
/// `lines`, folding it into the last entry when both lie in one
/// `line_bytes` granule (the fetch then hits the line just accessed).
fn push_fetch(lines: &mut Vec<(u64, u32)>, line_bytes: u32, off: u64, hits: u32) {
    let lb = u64::from(line_bytes);
    match lines.last_mut() {
        Some(&mut (first, ref mut extra)) if off / lb == first / lb => *extra += 1 + hits,
        _ => lines.push((off, hits)),
    }
}

/// `mix`'s nonzero `(class, count)` pairs, in [`InstrClass::ALL`] order.
fn nonzero_classes(mix: &InstrMix) -> Box<[(InstrClass, u64)]> {
    InstrClass::ALL
        .into_iter()
        .filter_map(|class| {
            let n = mix.count(class);
            (n > 0).then_some((class, n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> Machine {
        Machine::new(MachineConfig::mobile_client())
    }

    #[test]
    fn single_alu_instruction() {
        let mut m = client();
        m.step(0, InstrClass::AluSimple, MemOp::None);
        // First fetch misses the I-cache: 1 + 10 cycles, core energy
        // 2.846 nJ + one DRAM access 4.94 nJ.
        assert_eq!(m.cycles(), 11);
        assert!((m.breakdown()[Component::Core].nanojoules() - 2.846).abs() < 1e-9);
        assert!((m.breakdown()[Component::Dram].nanojoules() - 4.94).abs() < 1e-9);
    }

    #[test]
    fn hot_loop_hits_caches() {
        let mut m = client();
        // Re-execute the same instruction; after the first fetch the
        // line is resident, so each iteration is one cycle.
        m.step(0, InstrClass::AluSimple, MemOp::None);
        let c0 = m.cycles();
        for _ in 0..100 {
            m.step(0, InstrClass::AluSimple, MemOp::None);
        }
        assert_eq!(m.cycles() - c0, 100);
    }

    #[test]
    fn load_with_dcache_miss_and_hit() {
        let mut m = client();
        m.step(0, InstrClass::Load, MemOp::Read(0x8000));
        // icache miss + dcache miss: 1 + 10 + 10.
        assert_eq!(m.cycles(), 21);
        m.step(0, InstrClass::Load, MemOp::Read(0x8004));
        // Both hit now.
        assert_eq!(m.cycles(), 22);
        assert_eq!(m.mix().count(InstrClass::Load), 2);
    }

    #[test]
    fn charge_mix_bulk() {
        let mut m = client();
        let mix = InstrMix::new()
            .with(InstrClass::AluSimple, 10)
            .with(InstrClass::Load, 5)
            .with_mem(2);
        m.charge_mix(&mix);
        assert_eq!(m.cycles(), 15 + 2 * 10);
        let expect = 10.0 * 2.846 + 5.0 * 4.814 + 2.0 * 4.94;
        assert!((m.energy().nanojoules() - expect).abs() < 1e-9);
    }

    #[test]
    fn dispatch_plan_is_bit_exact_with_unbatched_sequence() {
        // A dispatch plan replay must leave the machine in
        // *bit-identical* state to the step + charge_mix sequence it
        // compiles.
        let dispatch = InstrMix::new()
            .with(InstrClass::Load, 1)
            .with(InstrClass::AluSimple, 2);
        let work = InstrMix::new()
            .with(InstrClass::Load, 3)
            .with(InstrClass::AluSimple, 1)
            .with(InstrClass::Branch, 1);
        let mut slow = client();
        let mut fast = client();
        let plan = SeqPlan::dispatch(
            &fast.config().table.clone(),
            4,
            0x1000_0080,
            InstrClass::Branch,
            &[dispatch, work],
        );
        for rep in 0..1000 {
            // Interleave other traffic so the accumulators hold
            // "ugly" partial sums, not round numbers.
            slow.step(0x9000 + rep * 64, InstrClass::Load, MemOp::Read(rep * 8));
            fast.step(0x9000 + rep * 64, InstrClass::Load, MemOp::Read(rep * 8));
            slow.step(0x1000_0080, InstrClass::Branch, MemOp::None);
            slow.charge_mix(&dispatch);
            slow.charge_mix(&work);
            fast.step_seq(&plan, 0, 0, &[]);
            assert_eq!(slow.breakdown(), fast.breakdown(), "rep {rep}");
        }
        assert_eq!(slow.cycles(), fast.cycles());
        assert_eq!(slow.mix(), fast.mix());
        assert_eq!(slow.icache_stats(), fast.icache_stats());
        assert_eq!(slow.dcache_stats(), fast.dcache_stats());
        assert_eq!(
            slow.energy().nanojoules().to_bits(),
            fast.energy().nanojoules().to_bits()
        );
    }

    #[test]
    fn concat_plan_is_bit_exact_with_per_plan_replay() {
        // A concatenated plan must leave the machine bit-identical to
        // replaying its component plans one at a time.
        let table = EnergyTable::microsparc_iiep();
        let mixes = [
            InstrMix::new()
                .with(InstrClass::Load, 1)
                .with(InstrClass::AluSimple, 2),
            InstrMix::new().with(InstrClass::AluSimple, 1),
            InstrMix::new()
                .with(InstrClass::Load, 2)
                .with(InstrClass::Branch, 1)
                .with(InstrClass::AluComplex, 1),
        ];
        let plans: Vec<SeqPlan> = (0..3)
            .map(|i| {
                SeqPlan::dispatch(
                    &table,
                    4,
                    0x1000_0000 + i * 0x40,
                    InstrClass::Branch,
                    &mixes[..=i as usize],
                )
            })
            .collect();
        let seq = SeqPlan::concat(&plans.iter().collect::<Vec<_>>());
        // Three dispatches, three fetches.
        let fetches: u64 = seq.lines.iter().map(|&(_, h)| 1 + u64::from(h)).sum();
        assert_eq!(fetches, 3);
        let mut slow = client();
        let mut fast = client();
        for rep in 0..1000u64 {
            // Interleave other traffic so accumulators hold ugly
            // partial sums and the fetched lines get evicted.
            slow.step(rep * 8192, InstrClass::Load, MemOp::Read(rep * 16));
            fast.step(rep * 8192, InstrClass::Load, MemOp::Read(rep * 16));
            for p in &plans {
                slow.step_seq(p, 0, 0, &[]);
            }
            fast.step_seq(&seq, 0, 0, &[]);
            assert_eq!(slow.breakdown(), fast.breakdown(), "rep {rep}");
        }
        assert_eq!(slow.export_state(), fast.export_state());
        assert_eq!(
            slow.energy().nanojoules().to_bits(),
            fast.energy().nanojoules().to_bits()
        );
    }

    #[test]
    fn step_seq_is_bit_exact_with_per_micro_steps() {
        // Replaying a SeqPlan must leave the machine bit-identical to
        // the per-micro step loop it compiles: same energy bits, same
        // cycles, mixes, and cache counters/residency.
        use InstrClass::*;
        let seqs: Vec<(u64, Vec<(InstrClass, SeqDataRef)>)> = vec![
            // Unaligned start, crosses a 32-byte line boundary.
            (
                20,
                vec![
                    (Load, SeqDataRef::None),
                    (
                        AluSimple,
                        SeqDataRef::Frame {
                            store: false,
                            offset: 8,
                        },
                    ),
                    (
                        Store,
                        SeqDataRef::Frame {
                            store: true,
                            offset: 16,
                        },
                    ),
                    (Load, SeqDataRef::Heap { store: false }),
                    (Branch, SeqDataRef::None),
                ],
            ),
            // Empty sequence.
            (0, vec![]),
            // Long sequence spanning many lines.
            (
                64,
                (0..40)
                    .map(|i| {
                        (
                            if i % 3 == 0 { AluComplex } else { Nop },
                            if i % 7 == 0 {
                                SeqDataRef::Heap { store: i % 2 == 0 }
                            } else {
                                SeqDataRef::None
                            },
                        )
                    })
                    .collect(),
            ),
        ];
        let mut slow = client();
        let mut fast = client();
        let table = slow.config().table.clone();
        let plans: Vec<SeqPlan> = seqs
            .iter()
            .map(|(start, micros)| SeqPlan::compile(&table, *start, 4, 32, micros))
            .collect();
        let code_base = 0x3000_0040;
        let frame_base = 0x5000_2000;
        for rep in 0..500u64 {
            // Interleave unrelated traffic so accumulators hold ugly
            // partial sums and cache residency churns.
            slow.step(rep * 96, Load, MemOp::Read(rep * 40));
            fast.step(rep * 96, Load, MemOp::Read(rep * 40));
            for ((start, micros), plan) in seqs.iter().zip(&plans) {
                // One address per heap micro, some absent.
                let nheap = micros
                    .iter()
                    .filter(|(_, mem)| matches!(mem, SeqDataRef::Heap { .. }))
                    .count() as u64;
                let heap_addrs: Vec<Option<u64>> = (0..nheap)
                    .map(|j| ((rep + j) % 5 != 4).then_some(0x8000 + rep * 24 + j * 72))
                    .collect();
                let mut heap = heap_addrs.iter();
                let mut pc = code_base + start;
                for &(class, mem) in micros {
                    let op = match mem {
                        SeqDataRef::None => MemOp::None,
                        SeqDataRef::Frame { store, offset } => {
                            let a = frame_base + offset;
                            if store {
                                MemOp::Write(a)
                            } else {
                                MemOp::Read(a)
                            }
                        }
                        SeqDataRef::Heap { store } => match heap.next() {
                            Some(&Some(a)) if store => MemOp::Write(a),
                            Some(&Some(a)) => MemOp::Read(a),
                            _ => MemOp::None,
                        },
                    };
                    slow.step(pc, class, op);
                    pc += 4;
                }
                fast.step_seq(plan, code_base, frame_base, &heap_addrs);
                assert_eq!(slow.breakdown(), fast.breakdown(), "rep {rep}");
            }
        }
        assert_eq!(slow.cycles(), fast.cycles());
        assert_eq!(slow.mix(), fast.mix());
        assert_eq!(slow.icache_stats(), fast.icache_stats());
        assert_eq!(slow.dcache_stats(), fast.dcache_stats());
        assert_eq!(slow.export_state(), fast.export_state());
        assert_eq!(
            slow.energy().nanojoules().to_bits(),
            fast.energy().nanojoules().to_bits()
        );
    }

    /// The bits-`>> 52` key of the binade holding `x`.
    fn key(x: f64) -> u64 {
        x.to_bits() >> 52
    }

    fn nj(v: &[f64]) -> Vec<Energy> {
        v.iter().map(|&x| Energy::from_nanojoules(x)).collect()
    }

    #[test]
    fn fold_ulps_rounds_each_addend_to_the_binade_ulp() {
        // Binade [1, 2): u = 2^-52.
        let u = f64::EPSILON;
        assert_eq!(fold_ulps(key(1.0), &nj(&[u, 3.0 * u, 0.0])), 4);
        // Binade [2^52, 2^53): u = 1. 0.25 rounds down, 0.75 up, and
        // 2^-60 vanishes.
        let k = key(2f64.powi(52));
        assert_eq!(fold_ulps(k, &nj(&[3.0, 0.25, 0.75, 2f64.powi(-60)])), 4);
        // Subnormal addends scale like any other.
        assert_eq!(fold_ulps(1, &nj(&[f64::from_bits(5)])), 5);
    }

    #[test]
    fn fold_ulps_refuses_what_it_cannot_fold_exactly() {
        let k = key(2f64.powi(52));
        // A half-ulp tie: ties-to-even depends on the running parity.
        assert_eq!(fold_ulps(k, &nj(&[1.0, 2.5])), NO_FOLD);
        // An addend of 2^53 ulps or more.
        assert_eq!(fold_ulps(key(1.0), &nj(&[2.0])), NO_FOLD);
        // A sum no accumulator of the binade can take.
        assert_eq!(fold_ulps(k, &nj(&[2f64.powi(51), 2f64.powi(51)])), NO_FOLD);
        // Negative or non-finite addends.
        assert_eq!(fold_ulps(k, &nj(&[-1.0])), NO_FOLD);
        assert_eq!(fold_ulps(k, &nj(&[f64::NAN])), NO_FOLD);
        // Zero/subnormal, non-finite and negative accumulators.
        for acc in [0.0, f64::from_bits(3), f64::INFINITY, -1.0] {
            assert_eq!(fold_ulps(key(acc), &nj(&[1.0])), NO_FOLD);
        }
    }

    #[test]
    fn core_fold_memo_follows_the_binade() {
        let core = nj(&[4.0]);
        let fold = CoreFold::new();
        assert_eq!(fold.ulps(0, &core), NO_FOLD);
        assert_eq!(fold.ulps(key(1.5), &core), NO_FOLD);
        assert_eq!(fold.ulps(key(2f64.powi(52)), &core), 4);
        assert_eq!(fold.0.get(), (key(2f64.powi(52)), 4));
        assert_eq!(fold.ulps(key(2f64.powi(53)), &core), 2);
    }

    #[test]
    fn charge_core_folds_with_the_serial_adds_bits() {
        let core = nj(&[2.846, 4.814, 4.814, 2.868]);
        let fold = CoreFold::new();
        let mut m = client();
        for _ in 0..100_000 {
            let mut serial = m.breakdown();
            for e in &core {
                serial.charge(Component::Core, *e);
            }
            m.charge_core(&core, &fold);
            assert_eq!(m.breakdown(), serial);
        }
    }

    #[test]
    fn power_down_burns_only_leakage() {
        let mut m = client();
        m.power_down(SimTime::from_millis(10.0));
        // 10 % of 350 mW for 10 ms = 350 uJ.
        let leak = m.breakdown()[Component::Leakage];
        assert!((leak.microjoules() - 350.0).abs() < 1e-6);
        assert_eq!(m.breakdown()[Component::Core], Energy::ZERO);
        assert!((m.elapsed().millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn power_down_is_cheaper_than_active_idle() {
        let mut a = client();
        let mut b = client();
        let t = SimTime::from_millis(5.0);
        a.power_down(t);
        b.active_idle(t);
        assert!(a.energy() < b.energy());
        assert!((b.energy().ratio(a.energy()) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn elapsed_combines_cycles_and_waits() {
        let mut m = client();
        m.charge_mix(&InstrMix::new().with(InstrClass::Nop, 100));
        m.power_down(SimTime::from_micros(1.0));
        // 100 cycles at 100 MHz = 1 us, plus 1 us wait.
        assert!((m.elapsed().micros() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_delta() {
        let mut m = client();
        m.charge_mix(&InstrMix::new().with(InstrClass::Nop, 10));
        let cp = m.checkpoint();
        m.charge_mix(&InstrMix::new().with(InstrClass::Nop, 5));
        let (e, t) = m.since(&cp);
        assert!((e.nanojoules() - 5.0 * 2.644).abs() < 1e-9);
        assert!((t.nanos() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn server_is_faster() {
        let client_cfg = MachineConfig::mobile_client();
        let server_cfg = MachineConfig::sparc_server();
        assert!(server_cfg.clock_hz > 7.0 * client_cfg.clock_hz);
        assert!(server_cfg.cycle_time() < client_cfg.cycle_time());
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = client();
        m.step(0, InstrClass::Load, MemOp::Read(0));
        m.power_down(SimTime::from_millis(1.0));
        m.reset();
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.energy(), Energy::ZERO);
        assert_eq!(m.elapsed(), SimTime::ZERO);
        assert_eq!(m.mix().total(), 0);
    }

    #[test]
    fn radio_charges_land_in_radio_components() {
        let mut m = client();
        m.charge_radio(Energy::from_microjoules(3.0), Energy::from_microjoules(1.0));
        assert!((m.breakdown().communication().microjoules() - 4.0).abs() < 1e-9);
        assert_eq!(m.breakdown().computation(), Energy::ZERO);
    }
}
