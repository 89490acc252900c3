//! Linear-scan register allocation (spill decision).
//!
//! LaTTe's claim to fame was "fast and efficient register allocation"
//! for JIT-compiled code; we model the part that matters for energy:
//! which virtual registers fit in the physical register file and which
//! spill to the stack frame. Spilled registers cost an extra frame
//! load per use and a frame store per definition — traffic the
//! executor routes through the D-cache.
//!
//! Intervals come from a proper backward liveness analysis (so
//! loop-carried values are live across their loops, but nothing is
//! extended needlessly), then the classic Poletto–Sarkar linear scan
//! assigns registers and picks spill victims (furthest end first).

use crate::nir::{NFunc, VReg};
use std::collections::HashMap;

/// Number of allocatable physical registers on the target
/// (SPARC v8: 32 integer registers minus globals, stack/frame
/// pointers, return address and assembler temporaries).
pub const PHYS_REGS: usize = 16;

/// Allocation result.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Spilled registers and their frame slots.
    pub spill_slots: HashMap<VReg, u32>,
    /// Work units expended.
    pub work_units: u64,
}

impl Allocation {
    /// Whether `r` was spilled.
    pub fn is_spilled(&self, r: VReg) -> bool {
        self.spill_slots.contains_key(&r)
    }

    /// Number of spilled registers.
    pub fn spill_count(&self) -> usize {
        self.spill_slots.len()
    }
}

/// Run linear scan with `k` physical registers.
pub fn allocate(func: &NFunc, k: usize) -> Allocation {
    let mut work_units = 0u64;
    let nblocks = func.blocks.len();

    // Linear positions.
    let mut block_start = vec![0u32; nblocks];
    let mut block_end = vec![0u32; nblocks]; // exclusive
    {
        let mut pos = 0u32;
        for (b, block) in func.blocks.iter().enumerate() {
            block_start[b] = pos;
            pos += block.insts.len() as u32;
            block_end[b] = pos;
        }
    }

    let liveness = func.liveness();
    work_units += liveness.visits;

    // Intervals: min/max positions where each register matters —
    // its defs/uses, plus whole blocks where it is live-through.
    let mut first: HashMap<VReg, u32> = HashMap::new();
    let mut last: HashMap<VReg, u32> = HashMap::new();
    let touch =
        |r: VReg, at: u32, first: &mut HashMap<VReg, u32>, last: &mut HashMap<VReg, u32>| {
            first
                .entry(r)
                .and_modify(|f| *f = (*f).min(at))
                .or_insert(at);
            last.entry(r)
                .and_modify(|l| *l = (*l).max(at))
                .or_insert(at);
        };
    // Arguments are live from position 0.
    for a in 0..func.nlocals.min(func.nregs) {
        touch(VReg(a), 0, &mut first, &mut last);
    }
    for (b, block) in func.blocks.iter().enumerate() {
        for r in liveness.live_in[b].iter() {
            touch(r, block_start[b], &mut first, &mut last);
            work_units += 1;
        }
        for r in liveness.live_out(func, b).iter() {
            touch(r, block_end[b].saturating_sub(1), &mut first, &mut last);
            work_units += 1;
        }
        for (k, inst) in block.insts.iter().enumerate() {
            work_units += 1;
            let pos = block_start[b] + k as u32;
            for r in inst.uses().into_iter().chain(inst.def()) {
                touch(r, pos, &mut first, &mut last);
            }
        }
    }

    // Linear scan.
    let mut intervals: Vec<(VReg, u32, u32)> =
        first.iter().map(|(&r, &f)| (r, f, last[&r])).collect();
    intervals.sort_by_key(|&(r, f, _)| (f, r));
    work_units += (intervals.len() as u64).saturating_mul(2);

    let mut active: Vec<(VReg, u32)> = Vec::new(); // (reg, end) sorted by end
    let mut spilled: Vec<VReg> = Vec::new();
    for &(r, f, l) in &intervals {
        active.retain(|&(_, end)| end >= f);
        if active.len() < k {
            let ins = active.partition_point(|&(_, end)| end <= l);
            active.insert(ins, (r, l));
        } else {
            // Spill the interval that ends last (it blocks the most).
            let (last_reg, last_end) = *active.last().expect("active non-empty");
            if last_end > l {
                active.pop();
                spilled.push(last_reg);
                let ins = active.partition_point(|&(_, end)| end <= l);
                active.insert(ins, (r, l));
            } else {
                spilled.push(r);
            }
        }
        work_units += 1;
    }

    let spill_slots = spilled
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, i as u32))
        .collect();
    Allocation {
        spill_slots,
        work_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Cond, IBin, MethodId};
    use crate::nir::{Block, BlockId, NInst};

    fn chain_func(n: u32) -> NFunc {
        // r1 = r0+r0; r2 = r1+r1; ... all short-lived.
        let mut insts = Vec::new();
        for i in 1..n {
            insts.push(NInst::IBinOp {
                op: IBin::Add,
                d: VReg(i),
                a: VReg(i - 1),
                b: VReg(i - 1),
            });
        }
        insts.push(NInst::Ret {
            val: Some(VReg(n - 1)),
        });
        NFunc {
            method: MethodId(0),
            blocks: vec![Block { insts }],
            nregs: n,
            nlocals: 1,
        }
    }

    #[test]
    fn short_lived_chain_never_spills() {
        let f = chain_func(100);
        let a = allocate(&f, 8);
        assert_eq!(a.spill_count(), 0);
    }

    #[test]
    fn wide_simultaneous_liveness_spills() {
        // Define r1..r40 all up front, then use them all at the end:
        // every interval overlaps every other.
        let n = 40u32;
        let mut insts = Vec::new();
        for i in 1..=n {
            insts.push(NInst::IConst {
                d: VReg(i),
                v: i as i32,
            });
        }
        // One giant consumer keeps them all live to the end.
        let args: Vec<VReg> = (1..=n).map(VReg).collect();
        insts.push(NInst::CallOp {
            d: None,
            target: MethodId(0),
            args,
        });
        insts.push(NInst::Ret { val: None });
        let f = NFunc {
            method: MethodId(0),
            blocks: vec![Block { insts }],
            nregs: n + 1,
            nlocals: 1,
        };
        let a = allocate(&f, 16);
        // All 40 constant registers overlap at the call: at least
        // 40 - 16 of them must spill.
        assert!(
            a.spill_count() >= n as usize - 16,
            "expected heavy spilling, got {}",
            a.spill_count()
        );
    }

    #[test]
    fn spill_slots_are_distinct() {
        let n = 40u32;
        let mut insts = Vec::new();
        for i in 1..=n {
            insts.push(NInst::IConst { d: VReg(i), v: 0 });
        }
        let args: Vec<VReg> = (1..=n).map(VReg).collect();
        insts.push(NInst::CallOp {
            d: None,
            target: MethodId(0),
            args,
        });
        insts.push(NInst::Ret { val: None });
        let f = NFunc {
            method: MethodId(0),
            blocks: vec![Block { insts }],
            nregs: n + 1,
            nlocals: 1,
        };
        let a = allocate(&f, 4);
        let mut slots: Vec<u32> = a.spill_slots.values().copied().collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), a.spill_count());
    }

    #[test]
    fn more_physical_registers_never_spill_more() {
        let f = chain_func(60);
        for k in [2usize, 4, 8, 16] {
            let a1 = allocate(&f, k);
            let a2 = allocate(&f, k * 2);
            assert!(a2.spill_count() <= a1.spill_count());
        }
    }

    #[test]
    fn loop_carried_value_is_live_across_loop() {
        // b0: jmp b1
        // b1 (header): if r1 >= r0 -> b3 else b2
        // b2: r2 = r9 + r9 (r9 defined before loop); r1 += r2; jmp b1
        // b3: ret r9  — r9 must be live across the whole loop.
        let f = NFunc {
            method: MethodId(0),
            blocks: vec![
                Block {
                    insts: vec![
                        NInst::IConst { d: VReg(9), v: 3 },
                        NInst::Jmp { target: BlockId(1) },
                    ],
                },
                Block {
                    insts: vec![NInst::BrCond {
                        cond: Cond::Ge,
                        a: VReg(1),
                        b: VReg(0),
                        then_: BlockId(3),
                        else_: BlockId(2),
                    }],
                },
                Block {
                    insts: vec![
                        NInst::IBinOp {
                            op: IBin::Add,
                            d: VReg(2),
                            a: VReg(9),
                            b: VReg(9),
                        },
                        NInst::IBinOp {
                            op: IBin::Add,
                            d: VReg(1),
                            a: VReg(1),
                            b: VReg(2),
                        },
                        NInst::Jmp { target: BlockId(1) },
                    ],
                },
                Block {
                    insts: vec![NInst::Ret { val: Some(VReg(9)) }],
                },
            ],
            nregs: 10,
            nlocals: 2,
        };
        // With 3 registers, r0/r1/r9 are all live through the loop and
        // r2 is short-lived inside it: someone must spill.
        let tight = allocate(&f, 3);
        assert!(tight.spill_count() >= 1);
        // With 8 registers, nothing spills.
        let roomy = allocate(&f, 8);
        assert_eq!(roomy.spill_count(), 0);
    }

    #[test]
    fn disjoint_lifetimes_share_registers() {
        // Two values with non-overlapping lifetimes fit in one
        // register slot each-after-other: with k=2 (r0 arg + 1 slot),
        // no spills.
        let f = NFunc {
            method: MethodId(0),
            blocks: vec![Block {
                insts: vec![
                    NInst::IConst { d: VReg(1), v: 1 },
                    NInst::IBinOp {
                        op: IBin::Add,
                        d: VReg(0),
                        a: VReg(1),
                        b: VReg(1),
                    },
                    // r1 dead now; r2's lifetime starts.
                    NInst::IConst { d: VReg(2), v: 2 },
                    NInst::IBinOp {
                        op: IBin::Add,
                        d: VReg(0),
                        a: VReg(2),
                        b: VReg(2),
                    },
                    NInst::Ret { val: Some(VReg(0)) },
                ],
            }],
            nregs: 3,
            nlocals: 1,
        };
        let a = allocate(&f, 2);
        assert_eq!(a.spill_count(), 0);
    }
}
