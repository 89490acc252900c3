//! Per-instruction-class energy table — the paper's **Fig 1**.
//!
//! The paper derives client-core energy by "counting (dynamically) the
//! number of instructions of each type and multiplying the count by the
//! base energy consumption of the corresponding instruction", with the
//! per-class energies produced by a customized SimplePower model of a
//! five-stage microSPARC-IIep-like pipeline, and DRAM energy taken from
//! data sheets. We embed those exact constants.

use crate::units::Energy;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// The instruction classes priced by the paper's Fig 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrClass {
    /// Memory load (includes D-cache access).
    Load,
    /// Memory store (includes D-cache access).
    Store,
    /// Conditional or unconditional branch.
    Branch,
    /// Simple integer ALU operation (add, sub, logic, compare, moves).
    AluSimple,
    /// Complex ALU operation (multiply, divide, and our stand-in for
    /// floating-point arithmetic on the FP-less microSPARC-IIep core).
    AluComplex,
    /// Pipeline bubble / no-op.
    Nop,
}

impl InstrClass {
    /// All classes, in Fig 1 order.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::Branch,
        InstrClass::AluSimple,
        InstrClass::AluComplex,
        InstrClass::Nop,
    ];

    /// Stable index for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            InstrClass::Load => 0,
            InstrClass::Store => 1,
            InstrClass::Branch => 2,
            InstrClass::AluSimple => 3,
            InstrClass::AluComplex => 4,
            InstrClass::Nop => 5,
        }
    }

    /// Human-readable name matching the paper's table rows.
    pub const fn name(self) -> &'static str {
        match self {
            InstrClass::Load => "Load",
            InstrClass::Store => "Store",
            InstrClass::Branch => "Branch",
            InstrClass::AluSimple => "ALU(Simple)",
            InstrClass::AluComplex => "ALU(Complex)",
            InstrClass::Nop => "Nop",
        }
    }
}

/// Energy cost table for one machine (Fig 1 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyTable {
    /// Per-class base energy, indexed by [`InstrClass::index`].
    per_class: [Energy; 6],
    /// Energy of one main-memory (off-chip DRAM) access.
    pub main_memory: Energy,
}

impl EnergyTable {
    /// The paper's exact Fig 1 values (nanojoules).
    pub fn microsparc_iiep() -> Self {
        EnergyTable {
            per_class: [
                Energy::from_nanojoules(4.814), // Load
                Energy::from_nanojoules(4.479), // Store
                Energy::from_nanojoules(2.868), // Branch
                Energy::from_nanojoules(2.846), // ALU simple
                Energy::from_nanojoules(3.726), // ALU complex
                Energy::from_nanojoules(2.644), // Nop
            ],
            main_memory: Energy::from_nanojoules(4.94),
        }
    }

    /// Build a custom table (for what-if ablations).
    pub fn custom(per_class: [Energy; 6], main_memory: Energy) -> Self {
        EnergyTable {
            per_class,
            main_memory,
        }
    }

    /// Base energy of one instruction of `class`.
    #[inline]
    pub fn energy(&self, class: InstrClass) -> Energy {
        self.per_class[class.index()]
    }

    /// Energy of an entire instruction mix (no cache effects; memory
    /// accesses priced at the DRAM cost times `mem_accesses`).
    pub fn energy_of_mix(&self, mix: &InstrMix) -> Energy {
        let mut total = Energy::ZERO;
        for class in InstrClass::ALL {
            total += self.energy(class) * mix.count(class) as f64;
        }
        total += self.main_memory * mix.mem_accesses as f64;
        total
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        EnergyTable::microsparc_iiep()
    }
}

/// A histogram of executed instructions by class, plus main-memory
/// access count. Used both for bulk pricing (e.g. charging JIT
/// compilation work) and for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InstrMix {
    counts: [u64; 6],
    /// Number of main-memory accesses (cache misses or uncached).
    pub mem_accesses: u64,
}

impl InstrMix {
    /// The empty mix.
    pub const fn new() -> Self {
        InstrMix {
            counts: [0; 6],
            mem_accesses: 0,
        }
    }

    /// Record `n` instructions of `class`. (Named `record` rather than `add` to avoid clashing with the `Add` impl.)
    #[inline]
    pub fn record(&mut self, class: InstrClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Builder-style: with `n` instructions of `class` added.
    #[must_use]
    pub fn with(mut self, class: InstrClass, n: u64) -> Self {
        self.record(class, n);
        self
    }

    /// Builder-style: with `n` main-memory accesses added.
    #[must_use]
    pub fn with_mem(mut self, n: u64) -> Self {
        self.mem_accesses += n;
        self
    }

    /// Count of instructions of `class`.
    #[inline]
    pub fn count(&self, class: InstrClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total instruction count (memory accesses not included).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when no instructions or memory accesses are recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0 && self.mem_accesses == 0
    }

    /// The raw per-class counts (indexed by [`InstrClass::index`]),
    /// for checkpointing.
    pub fn class_counts(&self) -> [u64; 6] {
        self.counts
    }

    /// Rebuild a mix from raw parts captured by
    /// [`InstrMix::class_counts`] and [`InstrMix::mem_accesses`].
    pub fn from_parts(counts: [u64; 6], mem_accesses: u64) -> Self {
        InstrMix {
            counts,
            mem_accesses,
        }
    }

    /// Scale every count by `factor` (used to expand per-iteration
    /// mixes; saturates on overflow, which simulation sizes never hit).
    #[must_use]
    pub fn scaled(&self, factor: u64) -> Self {
        let mut out = *self;
        for c in &mut out.counts {
            *c = c.saturating_mul(factor);
        }
        out.mem_accesses = out.mem_accesses.saturating_mul(factor);
        out
    }
}

impl Add for InstrMix {
    type Output = InstrMix;
    fn add(self, rhs: InstrMix) -> InstrMix {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for InstrMix {
    #[inline]
    fn add_assign(&mut self, rhs: InstrMix) {
        for i in 0..6 {
            self.counts[i] += rhs.counts[i];
        }
        self.mem_accesses += rhs.mem_accesses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_values_are_exact() {
        let t = EnergyTable::microsparc_iiep();
        assert_eq!(t.energy(InstrClass::Load).nanojoules(), 4.814);
        assert_eq!(t.energy(InstrClass::Store).nanojoules(), 4.479);
        assert_eq!(t.energy(InstrClass::Branch).nanojoules(), 2.868);
        assert_eq!(t.energy(InstrClass::AluSimple).nanojoules(), 2.846);
        assert_eq!(t.energy(InstrClass::AluComplex).nanojoules(), 3.726);
        assert_eq!(t.energy(InstrClass::Nop).nanojoules(), 2.644);
        assert_eq!(t.main_memory.nanojoules(), 4.94);
    }

    #[test]
    fn loads_cost_more_than_simple_alu() {
        // Sanity ordering the paper's table exhibits: memory-touching
        // instructions are the most expensive, NOP the cheapest.
        let t = EnergyTable::default();
        assert!(t.energy(InstrClass::Load) > t.energy(InstrClass::AluComplex));
        assert!(t.energy(InstrClass::Store) > t.energy(InstrClass::AluSimple));
        for c in InstrClass::ALL {
            assert!(t.energy(c) >= t.energy(InstrClass::Nop));
        }
    }

    #[test]
    fn mix_accumulates_and_prices() {
        let t = EnergyTable::default();
        let mix = InstrMix::new()
            .with(InstrClass::Load, 2)
            .with(InstrClass::AluSimple, 3)
            .with_mem(1);
        assert_eq!(mix.total(), 5);
        let expect = 2.0 * 4.814 + 3.0 * 2.846 + 4.94;
        assert!((t.energy_of_mix(&mix).nanojoules() - expect).abs() < 1e-9);
    }

    #[test]
    fn mix_add_and_scale() {
        let a = InstrMix::new().with(InstrClass::Branch, 1).with_mem(2);
        let b = InstrMix::new().with(InstrClass::Branch, 4);
        let c = a + b;
        assert_eq!(c.count(InstrClass::Branch), 5);
        assert_eq!(c.mem_accesses, 2);
        let d = c.scaled(3);
        assert_eq!(d.count(InstrClass::Branch), 15);
        assert_eq!(d.mem_accesses, 6);
    }

    #[test]
    fn empty_mix_is_empty() {
        assert!(InstrMix::new().is_empty());
        assert!(!InstrMix::new().with(InstrClass::Nop, 1).is_empty());
        assert!(!InstrMix::new().with_mem(1).is_empty());
    }

    #[test]
    fn class_indices_are_bijective() {
        let mut seen = [false; 6];
        for c in InstrClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
