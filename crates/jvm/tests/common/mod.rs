//! Helpers shared by the engine differential tests.

use jem_energy::{Component, Energy};
use jem_jvm::Vm;

/// Everything observable about a finished VM, with energies captured
/// as raw bit patterns so `-0.0`/`0.0` or NaN artifacts could never
/// mask a divergence.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub steps: u64,
    cycles: u64,
    energy_bits: u64,
    component_bits: Vec<(String, u64)>,
    mix: Vec<(String, u64)>,
    icache: Option<jem_energy::CacheStats>,
    dcache: Option<jem_energy::CacheStats>,
    state: jem_energy::MachineState,
}

pub fn fingerprint(vm: &Vm) -> Fingerprint {
    let m = &vm.machine;
    Fingerprint {
        steps: vm.steps,
        cycles: m.cycles(),
        energy_bits: m.energy().joules().to_bits(),
        component_bits: m
            .breakdown()
            .iter()
            .map(|(c, e)| (format!("{c:?}"), e.joules().to_bits()))
            .collect(),
        mix: {
            use jem_energy::InstrClass::*;
            let mix = m.mix();
            [Load, Store, Branch, AluSimple, AluComplex, Nop]
                .iter()
                .map(|c| (format!("{c:?}"), mix.count(*c)))
                .collect()
        },
        icache: m.icache_stats(),
        dcache: m.dcache_stats(),
        state: m.export_state(),
    }
}

/// Start `vm`'s Core accumulator at `core_nj`, restored through the
/// checkpoint path.
pub fn precharge(vm: &mut Vm, core_nj: f64) {
    let mut state = vm.machine.export_state();
    state.breakdown[Component::Core] = Energy::from_nanojoules(core_nj);
    vm.machine.import_state(&state);
}
